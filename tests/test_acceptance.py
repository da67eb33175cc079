"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""

import time

import numpy as np
import pytest

from evosylv.cli import RunConfig, convergence_study, run
from evosylv.discretization import (assemble_rhs, assemble_space_operator,
                                    kron_vectors)
from evosylv.kernels import fft, ifft
from evosylv.oracles import timestep_solve
from evosylv.presets import get_preset
from evosylv.solver import (ProjectedProblem, inner_solve_fft_smw,
                            inner_solve_sequential, materialize, solve_eksm,
                            solve_eksm_separable, solve_rksm)
from evosylv.timeops import build_time_operator

from helpers import problem_spec, square_grid


def _report(num, label, elapsed, budget):
    print(f"criterion {num} ({label}): PASS in {elapsed:.1f}s (budget {budget}s)")
    assert elapsed < budget


def _setup(preset, n, ell, s=1, **kw):
    spec = get_preset(preset, n, ell, s=s, **kw)
    op = assemble_space_operator(spec)
    rhs = assemble_rhs(spec, op)
    top = build_time_operator(s, ell - s + 1)
    return spec, op, rhs, top


def _explicit_residual_norm(op, V, Y, rhs, top):
    """Residual norm in extended precision: the oracle for the cheap
    formulas must stay accurate well below their 1e-8 relative target."""
    ld = np.longdouble
    U = V.astype(ld) @ Y.astype(ld)
    A = op.a_full().toarray().astype(ld)
    S = top.sigma.toarray().astype(ld)
    R = A @ U - U @ S.T - rhs.left.astype(ld) @ rhs.right.astype(ld).T
    return float(np.sqrt((R * R).sum()))


def _iterate_factors(sol, rep, entry):
    """Full-grid factors of a history iterate: the padded Krylov prefix plus
    the boundary columns of the final solution, Y stacked on their time
    factor."""
    R = rep.basis_dims[0]
    V = np.hstack([sol.bases[0][:, :entry["r"]], sol.bases[0][:, R:]])
    return V, np.vstack([entry["Y"], sol.Y[R:]])


def test_criterion_01_inner_solver_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2024)
    count = 0
    ells = (17, 64, 100, 256)
    while count < 200:
        s = count % 6 + 1
        L = ells[count % len(ells)]
        symmetric = count % 2 == 0
        r = int(rng.integers(2, 21))
        p = int(rng.integers(0, min(r - 1, 3)))
        top = build_time_operator(s, L)
        # keep the spectrum of A_small clear of the circulant eigenvalues
        # (|pi| <= sum|alpha|, max Re pi <= 3.5 across orders)
        margin = 4.0 + np.abs(top.scheme.alphas).sum()
        A = 0.25 * rng.standard_normal((r, r))
        if symmetric:
            A = (A + A.T) / 2
        A += margin * np.eye(r)
        prob = ProjectedProblem(A_small=A,
                                rhs_left=rng.standard_normal((r, p + 1)),
                                rhs_right=rng.standard_normal((L, p + 1)),
                                timeop=top)
        Y_seq = inner_solve_sequential(prob)
        Y_fft = inner_solve_fft_smw(prob)
        assert np.linalg.norm(Y_fft - Y_seq) <= 1e-10 * np.linalg.norm(Y_seq), \
            (s, L, r, symmetric)
        count += 1
    _report(1, "inner-solver equivalence, 200 problems", time.perf_counter() - t0, 30)


def test_criterion_02_smw_structure():
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    for s in range(1, 7):
        for r, L in ((3, 8), (8, 32), (5, 2 * s + 5)):
            top = build_time_operator(s, L)
            A = (2.0 + np.abs(top.scheme.alphas).sum()) * np.eye(r) \
                + 0.1 * rng.standard_normal((r, r))
            lam = np.linalg.eigvals(A)
            pi = top.circ_eigs
            F = fft(np.eye(L), axis=0)
            Finv = ifft(np.eye(L), axis=0)
            M_mat = F @ top.corr_left
            N_mat = Finv @ top.corr_right @ top.corr_alpha.T
            Lbig = np.kron(np.eye(L), np.diag(lam)) - np.kron(np.diag(pi), np.eye(r))
            dense = np.kron(N_mat, np.eye(r)).T @ np.linalg.solve(
                Lbig, np.kron(M_mat, np.eye(r)))
            H = 1.0 / (lam[:, None] - pi[None, :])
            structured = np.zeros((s * r, s * r), dtype=complex)
            for q in range(s):
                for h in range(s):
                    structured[q * r:(q + 1) * r, h * r:(h + 1) * r] = \
                        np.diag(H @ (N_mat[:, q] * M_mat[:, h]))
            scale = max(1.0, np.abs(dense).max())
            assert np.abs(dense - structured).max() <= 1e-12 * scale, (s, r, L)
    _report(2, "SMW diagonal/block-diagonal structure", time.perf_counter() - t0, 5)


def test_criterion_03_residual_formula_identities():
    t0 = time.perf_counter()

    def check(op, rhs, top, solver, **kw):
        hist = []
        sol, rep = solver(op, rhs, top, tol=1e-6, m_max=40, history=hist, **kw)
        assert rep.converged
        assert len(hist) >= 2
        for entry in hist:
            if isinstance(entry["r"], list):
                rs = entry["r"]
                V = kron_vectors([sol.bases[i][:, :rs[i]] for i in range(len(rs))])
                Y = entry["Y"]
            else:
                V, Y = _iterate_factors(sol, rep, entry)
            explicit = _explicit_residual_norm(op, V, Y, rhs, top) / rep.delta
            assert abs(explicit - entry["rel_residual"]) <= 1e-8 * explicit, \
                (entry["m"], explicit, entry["rel_residual"])

    # 1D heat, full extended basis (res_norm_comp)
    grid = square_grid(1, 32, 16)
    spec = problem_spec("heat", grid,
                        u0=lambda x: x * (1 - x) * np.exp(-30 * (x - 0.4) ** 2))
    op = assemble_space_operator(spec)
    check(op, assemble_rhs(spec, op), build_time_operator(1, 16), solve_eksm)

    # 2D heat, full extended basis (res_norm_comp)
    grid = square_grid(2, 12, 12)
    spec = problem_spec("heat", grid,
                        u0=lambda x, y: x * (1 - x) * y * (1 - y) * (1 + x * y))
    op = assemble_space_operator(spec)
    check(op, assemble_rhs(spec, op), build_time_operator(1, 12), solve_eksm)

    # 2D heat, tensorized (Prop 1, res_norm_comp_2d)
    spec, op, rhs, top = _setup("example2", 16, 12)
    check(op, rhs, top, solve_eksm_separable)

    # 1D convection-diffusion, rational basis (Prop 2)
    grid = square_grid(1, 32, 16)
    spec = problem_spec("convection-diffusion", grid, epsilon=0.2,
                        wind=[(lambda x: 1.0 + x,)],
                        u0=lambda x: x**2 * (1 - x) ** 2)
    op = assemble_space_operator(spec)
    check(op, assemble_rhs(spec, op), build_time_operator(1, 16), solve_rksm)

    _report(3, "cheap residual formulas vs explicit", time.perf_counter() - t0, 30)


def test_criterion_04_oracle_equivalence_example1():
    t0 = time.perf_counter()
    spec, op, rhs, top = _setup("example1", 256, 1024)
    Uo = timestep_solve(op, rhs, top).U
    for solver in (solve_eksm, solve_rksm):
        sol, rep = solver(op, rhs, top, tol=1e-10, m_max=40)
        assert rep.converged
        U = materialize(sol)
        err = np.linalg.norm(U - Uo) / np.linalg.norm(Uo)
        assert err <= 1e-8, (solver.__name__, err)
    _report(4, "example1 vs time-stepping oracle", time.perf_counter() - t0, 60)


def test_criterion_05_convergence_orders():
    t0 = time.perf_counter()
    base = RunConfig(preset="example1", s=3, ell=256, tol=1e-12)
    _, _, slope = convergence_study(base, "space", points=[33, 65, 129, 257])
    assert 1.85 <= slope <= 2.15, slope
    for s in (1, 2, 3):
        base = RunConfig(preset="example1", n=8193, s=s, tol=1e-12)
        _, _, slope = convergence_study(base, "time", points=[8, 16, 32, 64])
        assert s - 0.15 <= slope <= s + 0.15, (s, slope)
    _report(5, "space/time convergence orders", time.perf_counter() - t0, 300)


def test_criterion_06_iteration_robustness_in_ell():
    t0 = time.perf_counter()
    counts = []
    for ell in (256, 1024, 4096):
        spec, op, rhs, top = _setup("example2", 64, ell)
        sol, rep = solve_eksm_separable(op, rhs, top, tol=1e-6, m_max=30)
        assert rep.converged
        counts.append(rep.iterations)
    assert max(counts) - min(counts) <= 2, counts
    _report(6, f"example2 iterations vs ell {counts}", time.perf_counter() - t0, 60)


def test_criterion_07_tensorized_full_consistency():
    t0 = time.perf_counter()
    spec, op, rhs, top = _setup("example2", 32, 256)
    sol_t, rep_t = solve_eksm_separable(op, rhs, top, tol=1e-11, m_max=30)
    sol_f, rep_f = solve_eksm(op, rhs, top, tol=1e-11, m_max=30)
    assert rep_t.converged and rep_f.converged
    Ut, Uf = materialize(sol_t), materialize(sol_f)
    assert np.linalg.norm(Ut - Uf) <= 1e-8 * np.linalg.norm(Uf)

    spec, op, rhs, top = _setup("example2_1", 8, 64)
    sol, rep = solve_eksm_separable(op, rhs, top, tol=1e-9, m_max=30)
    assert rep.converged
    Uo = timestep_solve(op, rhs, top).U
    err = np.linalg.norm(materialize(sol) - Uo) / np.linalg.norm(Uo)
    assert err <= 1e-7, err
    _report(7, "tensorized/full consistency (2D and 3D)", time.perf_counter() - t0, 120)


def test_criterion_08_convection_diffusion():
    t0 = time.perf_counter()
    for eps in (1.0, 0.1, 0.01):
        spec, op, rhs, top = _setup("example3", 64, 256, epsilon=eps)
        Uo = timestep_solve(op, rhs, top).U
        for solver in (solve_eksm, solve_rksm):
            sol, rep = solver(op, rhs, top, tol=1e-6, m_max=60)
            assert rep.converged, (solver.__name__, eps, rep.iterations)
            err = np.linalg.norm(materialize(sol) - Uo) / np.linalg.norm(Uo)
            assert err <= 1e-5, (solver.__name__, eps, err)
    _report(8, "example3 convergence for eps in {1, 0.1, 0.01}",
            time.perf_counter() - t0, 180)


def test_criterion_09_memory_accounting():
    t0 = time.perf_counter()
    # full EKSM / RKSM: Table-2 style vector units
    spec, op, rhs, top = _setup("example3", 16, 32, epsilon=1.0)
    w = rhs.width
    sol, rep = solve_eksm(op, rhs, top, tol=1e-8, m_max=40)
    assert rep.memory_units == 2 * (rep.iterations + 1) * w * (op.size + top.ell)
    sol, rep = solve_rksm(op, rhs, top, tol=1e-8, m_max=40)
    assert rep.memory_units == (rep.iterations + 1) * w * (op.size + top.ell)
    # tensorized formulas: 2(m+1) sum_i p_i n + 2^d (m+1)^d prod_i p_i ell
    for preset, n, d in (("example2", 16, 2), ("example2_1", 6, 3)):
        spec, op, rhs, top = _setup(preset, n, 16)
        widths = [sum(np.asarray(g[0][i]).reshape(n, -1).shape[1]
                      for g in rhs.separable) for i in range(d)]
        sol, rep = solve_eksm_separable(op, rhs, top, tol=1e-8, m_max=20)
        m = rep.iterations
        expected = 2 * (m + 1) * sum(widths) * n \
            + 2**d * (m + 1)**d * int(np.prod(widths)) * top.ell
        assert rep.memory_units == expected
    _report(9, "Table-2 memory formulas (integer equality)",
            time.perf_counter() - t0, 60)


def test_criterion_10_galerkin_property():
    t0 = time.perf_counter()
    cases = []
    grid = square_grid(1, 32, 12)
    cases.append(problem_spec("heat", grid, u0=lambda x: x * (1 - x) * np.cos(3 * x)))
    grid = square_grid(2, 5, 10)
    cases.append(problem_spec("heat", grid,
                              u0=lambda x, y: np.exp(x) * y * (1 - y) * x * (1 - x)))
    grid = square_grid(1, 28, 10)
    cases.append(problem_spec(
        "convection-diffusion", grid, epsilon=0.4,
        wind=[(lambda x: 1.0 - 2 * x,)], u0=lambda x: x * (1 - x)))
    for spec in cases:
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        top = build_time_operator(1, spec.grid.ell)
        norm_rhs = np.linalg.norm(rhs.dense())
        for solver in (solve_eksm, solve_rksm):
            hist = []
            sol, rep = solver(op, rhs, top, tol=1e-10, m_max=30, history=hist)
            for entry in hist:
                V, Y = _iterate_factors(sol, rep, entry)
                U = V @ Y
                R = op.a_full() @ U - U @ top.sigma.toarray().T \
                    - rhs.left @ rhs.right.T
                assert np.linalg.norm(V[:, :entry["r"]].T @ R) <= 1e-8 * norm_rhs
    _report(10, "Galerkin orthogonality each iteration",
            time.perf_counter() - t0, 60)
