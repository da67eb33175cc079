import tracemalloc

import numpy as np
import pytest

from evosylv import discretization, kernels, krylov, solver
from evosylv.discretization import (LowRankRhs, assemble_rhs,
                                    assemble_space_operator, kron_vectors)
from evosylv.errors import (IndexOutOfRange, NotSeparable, ShiftSingular,
                            SingularMatrix)
from evosylv.oracles import timestep_solve
from evosylv.presets import get_preset
from evosylv.solver import (FactoredSolution, eksm_memory_units,
                            eksm_separable_memory_units, extract_snapshot,
                            materialize, rksm_memory_units, solve_eksm,
                            solve_eksm_separable, solve_rksm)
from evosylv.timeops import build_time_operator

from helpers import problem_spec, square_grid

rng = np.random.default_rng(33)


def setup(preset, n, ell, s=1, **kw):
    spec = get_preset(preset, n, ell, s=s, **kw)
    op = assemble_space_operator(spec)
    rhs = assemble_rhs(spec, op)
    top = build_time_operator(s, ell - s + 1)
    return spec, op, rhs, top


def explicit_residual(op, U, rhs, top):
    return op.a_full() @ U - U @ top.sigma.toarray().T - rhs.left @ rhs.right.T


def explicit_residual_norm(op, V, Y, rhs, top):
    """||A_full V Y - V Y sigma^T - rhs.left rhs.right^T||_F from the factors.

    The residual is [A_full V, V, left] @ [Y^T, -sigma Y^T, -right]^T; the
    norm is that of the QR triangle of the tall left factor times the
    ell-wide right one, so nothing of size n^d x ell or ell x ell is formed.
    """
    left = np.hstack([op.a_full() @ V, V, rhs.left])
    right = np.hstack([Y.T, -(top.sigma @ Y.T), -rhs.right])
    return float(np.linalg.norm(np.linalg.qr(left, mode="r") @ right.T))


def small_heat_problem(n=24, ell=12, d=1):
    grid = square_grid(d, n, ell)
    if d == 1:
        u0 = lambda x: x * (1 - x) * np.exp(-40 * (x - 0.45) ** 2)
    else:
        u0 = lambda x, y: x * (1 - x) * y * (1 - y) * \
            np.exp(-10 * ((x - 0.4) ** 2 + (y - 0.6) ** 2))
    spec = problem_spec("heat", grid, u0=u0)
    op = assemble_space_operator(spec)
    rhs = assemble_rhs(spec, op)
    top = build_time_operator(1, ell)
    return op, rhs, top


class TestEksm:
    def test_zero_rhs_trivial_convergence(self):
        op, rhs, top = small_heat_problem()
        zero = LowRankRhs(left=np.zeros((op.size, 1)), right=np.zeros((top.ell, 1)))
        sol, rep = solve_eksm(op, zero, top, tol=1e-8)
        assert rep.converged and rep.iterations == 1
        assert np.allclose(materialize(sol), 0.0)

    def test_matches_oracle(self):
        op, rhs, top = small_heat_problem()
        sol, rep = solve_eksm(op, rhs, top, tol=1e-11, m_max=40)
        assert rep.converged
        Uo = timestep_solve(op, rhs, top).U
        assert np.linalg.norm(materialize(sol) - Uo) <= 1e-8 * np.linalg.norm(Uo)

    @pytest.mark.parametrize("d", [1, 2])
    def test_cheap_residual_equals_explicit(self, d):
        # the stopping formula tau*beta*||E^T Tbar Y||_F reproduces ||R_m||_F
        op, rhs, top = small_heat_problem(n=14 if d == 2 else 28, ell=10, d=d)
        hist = []
        sol, rep = solve_eksm(op, rhs, top, tol=1e-12, m_max=12, history=hist)
        checked = 0
        for entry in hist:
            # basis prefixes: reconstruct V_m from the final basis
            V, Y = iterate_factors(sol, rep, entry)
            R = explicit_residual(op, V @ Y, rhs, top)
            rel = np.linalg.norm(R) / rep.delta
            assert abs(rel - entry["rel_residual"]) <= 1e-8 * rel + 1e-12
            checked += 1
        assert checked >= 3

    def test_galerkin_orthogonality(self):
        op, rhs, top = small_heat_problem(n=30, ell=14)
        hist = []
        sol, rep = solve_eksm(op, rhs, top, tol=1e-12, m_max=12, history=hist)
        norm_rhs = np.linalg.norm(rhs.dense())
        for entry in hist:
            V, Y = iterate_factors(sol, rep, entry)
            R = explicit_residual(op, V @ Y, rhs, top)
            assert np.linalg.norm(V[:, :entry["r"]].T @ R) <= 1e-8 * norm_rhs

    def test_residual_history_recorded(self):
        op, rhs, top = small_heat_problem()
        sol, rep = solve_eksm(op, rhs, top, tol=1e-9, m_max=30)
        assert len(rep.residual_history) == rep.iterations
        assert rep.residual_history[-1] <= 1e-9

    def test_memory_units_formula(self):
        op, rhs, top = small_heat_problem()
        sol, rep = solve_eksm(op, rhs, top, tol=1e-9, m_max=30)
        m, w = rep.iterations, rhs.width
        assert rep.memory_units == 2 * (m + 1) * w * (op.size + top.ell)

    def test_sequential_inner_agrees(self, monkeypatch):
        # projected orders above DENSE_EIG_BOUND take the column recursion
        op, rhs, top = small_heat_problem()
        sol_f, rep_f = solve_eksm(op, rhs, top, tol=1e-11)
        assert rep_f.inner_solver == "fft_smw"
        monkeypatch.setattr(solver, "DENSE_EIG_BOUND", 3)
        sol_s, rep_s = solve_eksm(op, rhs, top, tol=1e-11)
        assert rep_s.inner_solver == "sequential"
        Uf, Us = materialize(sol_f), materialize(sol_s)
        assert np.linalg.norm(Uf - Us) <= 1e-9 * np.linalg.norm(Us)

    def test_nonnormal_projection_stays_on_fft_smw(self):
        # convection-dominated example3: the final projected matrix (order
        # 78) has an eigenvector condition estimate of ~9e6, enough to cost
        # an eigenvector-based inner solve ~1e-9 of relative accuracy
        spec, op, rhs, top = setup("example3", 96, 2048, epsilon=0.01)
        sol, rep = solve_eksm(op, rhs, top)
        assert rep.converged and rep.inner_solver == "fft_smw"
        K = 64
        ref = timestep_solve(op, LowRankRhs(left=rhs.left, right=rhs.right[:K]),
                             build_time_operator(1, K)).U
        U = sol.bases[0] @ sol.Y[:, :K]
        assert np.linalg.norm(U - ref) <= 1e-10 * np.linalg.norm(ref)


def iterate_factors(sol, rep, entry):
    """Full-grid factors V, Y of a history iterate: the padded prefix of the
    Krylov basis and the boundary columns of the final solution, with the
    iterate's Y stacked on the boundary block's time factor."""
    R = rep.basis_dims[0]
    V = np.hstack([sol.bases[0][:, :entry["r"]], sol.bases[0][:, R:]])
    return V, np.vstack([entry["Y"], sol.Y[R:]])


class TestEksmSeparable:
    def test_requires_structure(self):
        op, rhs, top = small_heat_problem(d=2, n=10)
        with pytest.raises(NotSeparable):
            solve_eksm_separable(op, LowRankRhs(rhs.left, rhs.right, None), top)

    def test_matches_full_solver(self):
        spec, op, rhs, top = setup("example2", 16, 32)
        sol_t, rep_t = solve_eksm_separable(op, rhs, top, tol=1e-11, m_max=30)
        sol_f, _ = solve_eksm(op, rhs, top, tol=1e-11, m_max=30)
        Ut, Uf = materialize(sol_t), materialize(sol_f)
        assert rep_t.converged
        assert np.linalg.norm(Ut - Uf) <= 1e-8 * np.linalg.norm(Uf)

    def test_zero_rhs(self):
        spec, op, rhs, top = setup("example2", 8, 8)
        zero = LowRankRhs(left=np.zeros((op.size, 1)), right=np.zeros((top.ell, 1)),
                          separable=[([np.zeros((8, 1))] * 2, np.zeros((top.ell, 1)))])
        sol, rep = solve_eksm_separable(op, zero, top)
        assert rep.converged
        assert np.allclose(materialize(sol), 0.0)

    def test_3d_matches_oracle(self):
        spec, op, rhs, top = setup("example2_1", 6, 24)
        sol, rep = solve_eksm_separable(op, rhs, top, tol=1e-10, m_max=20)
        assert rep.converged
        Uo = timestep_solve(op, rhs, top).U
        assert np.linalg.norm(materialize(sol) - Uo) <= 1e-7 * np.linalg.norm(Uo)

    @pytest.mark.parametrize("preset,n,ell", [("example2", 8, 10),
                                              ("example2_1", 5, 8)])
    def test_tensorized_residual_formula(self, preset, n, ell):
        # Kronecker-sum coupling terms reproduce the explicit residual in
        # both two and three dimensions
        spec, op, rhs, top = setup(preset, n, ell)
        hist = []
        sol, rep = solve_eksm_separable(op, rhs, top, tol=1e-13, m_max=6,
                                        history=hist)
        for entry in hist:
            rs = entry["r"]
            V = kron_vectors([sol.bases[i][:, :rs[i]] for i in range(len(rs))])
            R = explicit_residual(op, V @ entry["Y"], rhs, top)
            rel = np.linalg.norm(R) / rep.delta
            assert abs(rel - entry["rel_residual"]) <= 1e-8 * rel + 1e-12

    def test_tensorized_galerkin(self):
        spec, op, rhs, top = setup("example2", 8, 10)
        hist = []
        sol, rep = solve_eksm_separable(op, rhs, top, tol=1e-13, m_max=6,
                                        history=hist)
        norm_rhs = np.linalg.norm(rhs.dense())
        for entry in hist:
            rs = entry["r"]
            V = kron_vectors([sol.bases[i][:, :rs[i]] for i in range(len(rs))])
            R = explicit_residual(op, V @ entry["Y"], rhs, top)
            assert np.linalg.norm(V.T @ R) <= 1e-8 * norm_rhs

    def test_memory_units_formula(self):
        spec, op, rhs, top = setup("example2", 16, 32)
        sol, rep = solve_eksm_separable(op, rhs, top, tol=1e-8, m_max=30)
        m, d = rep.iterations, 2
        widths = [1, 1]
        expected = 2 * (m + 1) * sum(widths) * op.n \
            + 2**d * (m + 1)**d * int(np.prod(widths)) * top.ell
        assert rep.memory_units == expected


class TestRksm:
    def test_zero_rhs(self):
        op, rhs, top = small_heat_problem()
        zero = LowRankRhs(left=np.zeros((op.size, 1)), right=np.zeros((top.ell, 1)))
        sol, rep = solve_rksm(op, zero, top)
        assert rep.converged
        assert np.allclose(materialize(sol), 0.0)

    def test_agrees_with_eksm(self):
        op, rhs, top = small_heat_problem(n=40, ell=16)
        sol_e, _ = solve_eksm(op, rhs, top, tol=1e-11, m_max=40)
        sol_r, rep_r = solve_rksm(op, rhs, top, tol=1e-11, m_max=40)
        assert rep_r.converged
        Ue, Ur = materialize(sol_e), materialize(sol_r)
        assert np.linalg.norm(Ue - Ur) <= 1e-8 * np.linalg.norm(Ue)

    def test_residual_formula_against_explicit_convdiff(self):
        # Prop-2-style criterion vs explicitly assembled residual, 1D
        # convection-diffusion with interior data
        grid = square_grid(1, 32, 10)
        spec = problem_spec("convection-diffusion", grid, epsilon=0.3,
                            wind=[(lambda x: 1.0 + x,)],
                            u0=lambda x: x**2 * (1 - x) ** 2)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        top = build_time_operator(1, 10)
        hist = []
        sol, rep = solve_rksm(op, rhs, top, tol=1e-12, m_max=12, history=hist)
        for entry in hist:
            V, Y = iterate_factors(sol, rep, entry)
            R = explicit_residual(op, V @ Y, rhs, top)
            rel = np.linalg.norm(R) / rep.delta
            assert abs(rel - entry["rel_residual"]) <= 1e-8 * rel + 1e-12

    def test_residual_formula_heat(self):
        op, rhs, top = small_heat_problem(n=32, ell=12)
        hist = []
        sol, rep = solve_rksm(op, rhs, top, tol=1e-12, m_max=14, history=hist)
        for entry in hist:
            V, Y = iterate_factors(sol, rep, entry)
            R = explicit_residual(op, V @ Y, rhs, top)
            rel = np.linalg.norm(R) / rep.delta
            assert abs(rel - entry["rel_residual"]) <= 1e-8 * rel + 1e-12

    def test_memory_units_formula(self):
        op, rhs, top = small_heat_problem()
        sol, rep = solve_rksm(op, rhs, top, tol=1e-9, m_max=40)
        assert rep.memory_units == (rep.iterations + 1) * rhs.width * (op.size + top.ell)

    def test_explicit_residual_from_factors(self):
        op, rhs, top = small_heat_problem(n=20, ell=9)
        V = np.linalg.qr(rng.standard_normal((op.size, 5)))[0]
        Y = rng.standard_normal((5, top.ell))
        dense = np.linalg.norm(explicit_residual(op, V @ Y, rhs, top))
        assert explicit_residual_norm(op, V, Y, rhs, top) == \
            pytest.approx(dense, rel=1e-12)

    @pytest.mark.parametrize("deflates", [True, False], ids=["mid-deflation", "generic"])
    def test_two_column_start_residual_exact(self, deflates):
        # start block [b, v] with b orthogonal to v. With v an eigenvector of
        # Kbar (a sine mode, zero on the boundary) the resolvent maps v into
        # span{v}, so the second column deflates at the first step and later
        # blocks have width 1. A generic v stays in every block, and the
        # residual needs the images of both start columns under K.
        op, rhs, top = small_heat_problem(n=24, ell=12)
        x = np.linspace(0.0, 1.0, op.size)
        v = np.sin(np.pi * x) if deflates else np.sin(3 * np.pi * x) * x * (1 - x)
        b = rhs.left[:, 0] - (rhs.left[:, 0] @ v) / (v @ v) * v
        right = np.column_stack([np.eye(top.ell)[:, 0], np.linspace(1.0, 0.2, top.ell)])
        start = LowRankRhs(np.column_stack([b, v]), right)
        hist = []
        sol, rep = solve_rksm(op, start, top, tol=1e-10, m_max=30, history=hist)
        assert rep.converged
        assert rep.basis_dims[0] == (rep.iterations + 1 if deflates else 2 * rep.iterations)
        for entry in hist:
            V, Y = iterate_factors(sol, rep, entry)
            R = explicit_residual(op, V @ Y, start, top)
            rel = np.linalg.norm(R) / rep.delta
            assert abs(rel - entry["rel_residual"]) <= 1e-8 * rel + 1e-12
        Uo = timestep_solve(op, start, top).U
        assert np.linalg.norm(materialize(sol) - Uo) <= 1e-8 * np.linalg.norm(Uo)

    def test_singular_shift_is_nudged(self, monkeypatch):
        # the first factorization of K_II - xi I reports a singular matrix,
        # as it would for a shift on an eigenvalue
        op, rhs, top = small_heat_problem(n=24, ell=12)
        original_shift = solver.next_shift

        def first_shift_exact(state):
            return 1.0 / op.tau_beta if not state.used_shifts else original_shift(state)

        monkeypatch.setattr(solver, "next_shift", first_shift_exact)
        original_factorize = krylov.sparse_factorize
        factorizations = []

        def factorize(A, shift=0.0):
            factorizations.append(shift)
            if len(factorizations) == 1:
                raise SingularMatrix("injected")
            return original_factorize(A, shift)

        monkeypatch.setattr(krylov, "sparse_factorize", factorize)
        raised = []
        original_step = krylov.RationalKrylovBasis.step

        def step(basis, shift):
            try:
                return original_step(basis, shift)
            except ShiftSingular:
                raised.append(shift)
                raise

        monkeypatch.setattr(krylov.RationalKrylovBasis, "step", step)
        sol, rep = solve_rksm(op, rhs, top, tol=1e-10, m_max=40)
        assert raised == [1.0 / op.tau_beta]
        assert rep.converged
        Uo = timestep_solve(op, rhs, top).U
        assert np.linalg.norm(materialize(sol) - Uo) <= 1e-8 * np.linalg.norm(Uo)

    @pytest.mark.parametrize("preset,kw,extra", [
        ("example2", {}, 0), ("example4", {}, 0),
        ("example3", {"epsilon": 0.1}, 1)])
    def test_one_factorization_per_pole(self, preset, kw, extra, monkeypatch):
        # a Kronecker sum gets its interval without an LU; example3 factors
        # K_II once for its inverse iteration. Every LU goes through the
        # basis's one analysis, and none is cached on the operator.
        spec, op, rhs, top = setup(preset, 12, 16, **kw)
        assert (op.factors is None) == bool(extra)
        analyses, poles = [], []
        original_factorize = krylov.sparse_factorize

        def factorize(A, shift=0.0):
            analyses.append(A)
            return original_factorize(A, shift)

        original_step = krylov.RationalKrylovBasis.step

        def step(basis, shift):
            poles.append(shift)
            return original_step(basis, shift)

        monkeypatch.setattr(krylov, "sparse_factorize", factorize)
        monkeypatch.setattr(krylov.RationalKrylovBasis, "step", step)
        sol, rep = solve_rksm(op, rhs, top, tol=1e-8)
        assert rep.converged and len(poles) >= 3
        assert len(analyses) == len(poles) + extra
        assert all(a is analyses[0] for a in analyses)
        assert isinstance(analyses[0], kernels.SparseAnalysis)
        assert op.interior()._lu is None

    def test_seed_determinism(self):
        op, rhs, top = small_heat_problem()
        r1 = solve_rksm(op, rhs, top, tol=1e-9, seed=7)[1]
        r2 = solve_rksm(op, rhs, top, tol=1e-9, seed=7)[1]
        assert r1.residual_history == r2.residual_history

    def test_iterations_on_fine_heat_grid(self):
        # the low end of the 2D heat spectrum needs poles within a few s_min,
        # a small fraction of [s_min, s_max] at this n
        spec, op, rhs, top = setup("example2", 96, 256)
        sol, rep = solve_rksm(op, rhs, top, tol=1e-8)
        assert rep.converged
        assert rep.iterations <= 15


class TestSnapshots:
    def test_zero(self):
        sol = FactoredSolution("full", [np.zeros((6, 0))], np.zeros((0, 4)))
        assert np.allclose(extract_snapshot(sol, 2), 0.0)

    def test_identity_basis(self):
        Y = rng.standard_normal((5, 7))
        sol = FactoredSolution("full", [np.eye(5)], Y)
        assert np.allclose(extract_snapshot(sol, 3), Y[:, 2])

    def test_tensor2d_against_dense_kron(self):
        V1 = rng.standard_normal((6, 3))
        V2 = rng.standard_normal((6, 2))
        Y = rng.standard_normal((6, 5))
        sol = FactoredSolution("tensor2d", [V1, V2], Y)
        dense = kron_vectors([V1, V2]) @ Y
        for k in (1, 3, 5):
            assert np.allclose(extract_snapshot(sol, k), dense[:, k - 1])

    def test_tensor3d_against_dense_kron(self):
        Vs = [rng.standard_normal((4, 2)) for _ in range(3)]
        Y = rng.standard_normal((8, 3))
        sol = FactoredSolution("tensor3d", Vs, Y)
        dense = kron_vectors(Vs) @ Y
        for k in (1, 2, 3):
            assert np.allclose(extract_snapshot(sol, k), dense[:, k - 1])

    def test_index_bounds(self):
        sol = FactoredSolution("full", [np.eye(3)], np.ones((3, 4)))
        with pytest.raises(IndexOutOfRange):
            extract_snapshot(sol, 0)
        with pytest.raises(IndexOutOfRange):
            extract_snapshot(sol, 5)


class TestBdfSolves:
    @pytest.mark.parametrize("s", [2, 3, 4])
    def test_eksm_matches_oracle_higher_order(self, s):
        spec, op, rhs, top = setup("example1", 32, 24, s=s)
        sol, rep = solve_eksm(op, rhs, top, tol=1e-12, m_max=20)
        assert rep.converged
        Uo = timestep_solve(op, rhs, top).U
        err = np.linalg.norm(materialize(sol) - Uo)
        assert err <= 1e-8 * max(np.linalg.norm(Uo), 1e-30)

    def test_bdf2_nontrivial_basis(self):
        # non-eigenvector initial data exercises the widened-RHS path
        grid = square_grid(1, 24, 16)
        u_exact = lambda x, t: np.exp(-t) * x * (1 - x)
        spec = problem_spec("heat", grid, s=2,
                            u0=lambda x: u_exact(x, 0.0),
                            f=lambda x, t: -u_exact(x, t) + 2 * np.exp(-t),
                            analytic=u_exact)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        top = build_time_operator(2, 15)
        sol, rep = solve_eksm(op, rhs, top, tol=1e-11, m_max=24)
        assert rep.converged
        Uo = timestep_solve(op, rhs, top).U
        assert np.linalg.norm(materialize(sol) - Uo) <= 1e-8 * np.linalg.norm(Uo)


def example3_setup(n, ell, s=1, u0=None, epsilon=0.01):
    """example3 with its hot wall; u0 = "wall" keeps the initial values
    consistent with g, an array replaces them (u0 = 0: inconsistent)."""
    spec = get_preset("example3", n, ell, s=s, epsilon=epsilon)
    if u0 is not None:
        spec.u0 = u0
    if s > 1:
        spec.extra_initial_values = [discretization._sample_u0(spec)] * (s - 1)
    op = assemble_space_operator(spec)
    rhs = assemble_rhs(spec, op)
    return op, rhs, build_time_operator(s, ell - s + 1)


class TestInteriorUnknowns:
    @pytest.mark.parametrize("method", [solve_eksm, solve_rksm])
    def test_cheap_residual_exact_with_boundary_data(self, method):
        # the stopping residual of every iterate equals the residual of the
        # full-grid equation at the padded solution
        op, rhs, top = example3_setup(24, 64)
        hist = []
        sol, rep = method(op, rhs, top, tol=1e-6, history=hist)
        assert rep.converged and len(hist) >= 10
        assert sol.bases[0].shape[1] > rep.basis_dims[0]      # boundary columns
        for entry in hist:
            V, Y = iterate_factors(sol, rep, entry)
            explicit = explicit_residual_norm(op, V, Y, rhs, top)
            assert abs(entry["rel_residual"] * rep.delta - explicit) <= 1e-6 * explicit

    @pytest.mark.parametrize("s", [1, 2])
    @pytest.mark.parametrize("consistent", [True, False])
    @pytest.mark.parametrize("method", [solve_eksm, solve_rksm])
    def test_example3_matches_oracle(self, method, consistent, s):
        n = 16
        u0 = None if consistent else np.zeros(n * n)
        op, rhs, top = example3_setup(n, 48, s=s, u0=u0)
        sol, rep = method(op, rhs, top, tol=1e-10, m_max=60)
        assert rep.converged
        Uo = timestep_solve(op, rhs, top).U
        assert np.linalg.norm(materialize(sol) - Uo) <= 1e-8 * np.linalg.norm(Uo)
        # Dirichlet data win: whatever the initial values, the boundary rows
        # are the hot wall at every step, one time-constant column
        boundary_rank = sol.bases[0].shape[1] - rep.basis_dims[0]
        assert boundary_rank == 1
        wall = np.where(op.boundary_indices % n == 0, 1.0, 0.0)
        UB = materialize(sol)[op.boundary_indices]
        assert np.abs(UB - wall[:, None]).max() <= 1e-12

    @pytest.mark.parametrize("method", [solve_eksm, solve_eksm_separable, solve_rksm])
    def test_example2_matches_oracle(self, method):
        spec, op, rhs, top = setup("example2", 12, 24)
        sol, rep = method(op, rhs, top, tol=1e-10, m_max=40)
        assert rep.converged
        assert [V.shape[0] for V in sol.bases] == \
            ([12, 12] if method is solve_eksm_separable else [144])
        Uo = timestep_solve(op, rhs, top).U
        assert np.linalg.norm(materialize(sol) - Uo) <= 1e-8 * np.linalg.norm(Uo)

    @pytest.mark.parametrize("method", [solve_eksm, solve_rksm])
    def test_example1_matches_oracle(self, method):
        spec, op, rhs, top = setup("example1", 40, 32)
        sol, rep = method(op, rhs, top, tol=1e-10, m_max=40)
        assert rep.converged
        Uo = timestep_solve(op, rhs, top).U
        assert np.linalg.norm(materialize(sol) - Uo) <= 1e-8 * np.linalg.norm(Uo)

    def test_boundary_block_alone(self):
        # a corner value couples to no interior node: the interior equation
        # has a right-hand side at rounding level and the solution is the
        # boundary block
        corner = lambda x, y, *t: np.where((x == 0.0) & (y == 0.0), 1.0, 0.0)
        spec = problem_spec("heat", square_grid(2, 8, 10), u0=corner, g=corner)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        top = build_time_operator(1, 10)
        sol, rep = solve_eksm(op, rhs, top)
        assert rep.converged and rep.iterations == 1
        assert rep.delta == rhs.initial_norm()
        Uo = timestep_solve(op, rhs, top).U
        assert np.linalg.norm(materialize(sol) - Uo) <= 1e-12 * np.linalg.norm(Uo)

    def test_tensorized_refuses_boundary_data(self):
        spec, op, rhs, top = setup("example2", 8, 10)
        ones = np.ones((8, 1))
        e1 = np.eye(top.ell)[:, :1]
        data = LowRankRhs(kron_vectors([ones, ones]), e1, separable=[([ones, ones], e1)])
        with pytest.raises(NotSeparable):
            solve_eksm_separable(op, data, top)
        # assemble_rhs offers no separable groups for such data
        spec = problem_spec("heat", square_grid(2, 8, 10), u0=lambda x, y: np.cos(x) * np.cos(y),
                            u0_separable=(np.cos, np.cos))
        assert assemble_rhs(spec, assemble_space_operator(spec)).separable is None

    @pytest.mark.parametrize("method", [solve_eksm, solve_rksm])
    def test_solve_memory_bound(self, method):
        # one n^d x ell array alone would break the bound twice over
        op, rhs, top = example3_setup(64, 4096)
        bound_mib = 64
        assert op.size * top.ell * 8 >= 2 * bound_mib * 2**20
        tracemalloc.start()
        try:
            sol, rep = method(op, rhs, top, tol=1e-6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert rep.converged
        assert peak < bound_mib * 2**20
