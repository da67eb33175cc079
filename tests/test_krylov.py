import numpy as np
import pytest

from evosylv.discretization import assemble_space_operator, kron_sum
from evosylv.errors import Breakdown
from evosylv.krylov import (ExtendedKrylovBasis, RationalKrylovBasis,
                            ShiftState, next_shift, spectral_bounds)
from evosylv.presets import get_preset

from helpers import problem_spec, square_grid

rng = np.random.default_rng(21)


def heat_op(n, ell=10, d=1):
    spec = problem_spec("heat", square_grid(d, n, ell), u0=lambda *x: sum(x))
    return assemble_space_operator(spec)


def interior_bump(op, col=None):
    v = np.zeros(op.size)
    v[op.size // 2] = 1.0
    return v


class TestExtendedBasis:
    def test_initial_block_and_gamma(self):
        op = heat_op(16)
        B = np.column_stack([np.sin(np.linspace(0, np.pi, 16)) * np.exp(np.linspace(0, 1, 16))])
        basis = ExtendedKrylovBasis(op, B)
        assert basis.width == 2
        V = basis.V
        assert np.linalg.norm(V.T @ V - np.eye(2)) < 1e-12
        assert np.linalg.norm(V @ (V.T @ B) - B) <= 1e-12 * np.linalg.norm(B)

    def test_dependent_start_deflates(self):
        op = heat_op(12)
        v = rng.standard_normal(12)
        B = np.column_stack([v, 2 * v])      # second column dependent
        basis = ExtendedKrylovBasis(op, B)
        # 2 independent directions out of [B, K^{-1}B]'s 4 candidates
        assert basis.width == 2

    def test_invariant_subspace_start_deflates(self):
        # an eigenvector start makes K^{-1}B dependent: block width 1
        spec = get_preset("example1", 24, 8)
        op = assemble_space_operator(spec)
        basis = ExtendedKrylovBasis(op, np.sin(spec.grid.axes()[0]))
        assert basis.width == 1
        with pytest.raises(Breakdown):
            basis.step()

    def test_exhaustion_breaks_down(self):
        op = heat_op(8)
        basis = ExtendedKrylovBasis(op, interior_bump(op))
        with pytest.raises(Breakdown):
            for _ in range(20):
                basis.step()
        assert basis.width <= 8

    def test_orthogonality_maintained(self):
        op = heat_op(64)
        basis = ExtendedKrylovBasis(op, rng.standard_normal((64, 2)))
        for _ in range(5):
            basis.step()
        r = basis.width
        assert np.linalg.norm(basis.V.T @ basis.V - np.eye(r)) <= 1e-10

    def test_arnoldi_relation(self):
        op = heat_op(32)
        basis = ExtendedKrylovBasis(op, rng.standard_normal(32))
        for _ in range(4):
            basis.step()
        m = basis.n_blocks - 1
        r = basis.state.block_bounds[m]
        rn = basis.state.block_bounds[m + 1]
        K = op.matrix.toarray()
        Vm = basis.V[:, :r]
        Tbar = basis.state.T_full[:rn, :r]
        res = np.linalg.norm(K @ Vm - basis.V[:, :rn] @ Tbar)
        assert res <= 1e-8 * np.abs(K).sum(axis=0).max()

    def test_deflation_keeps_full_rank(self):
        op = heat_op(10)
        basis = ExtendedKrylovBasis(op, rng.standard_normal((10, 3)))
        try:
            for _ in range(6):
                basis.step()
        except Breakdown:
            pass
        sv = np.linalg.svd(basis.V, compute_uv=False)
        assert sv.min() > 1e-12
        widths = np.diff(basis.state.block_bounds)
        assert (widths <= widths[0]).all()


class TestProjections:
    def test_full_basis_interior_projection(self):
        # the interior operator is Kbar without its boundary rows and
        # columns, and a full basis of the interior projects it exactly
        for preset, n, kw in (("example1", 9, {}), ("example2", 7, {}),
                              ("example3", 7, {"epsilon": 0.1}),
                              ("example2_1", 5, {})):
            op = assemble_space_operator(get_preset(preset, n, 8, **kw))
            inner = op.interior()
            keep = np.setdiff1d(np.arange(op.size), op.boundary_indices)
            dense = op.matrix.toarray()[keep][:, keep]
            assert inner.n == n - 2 and inner.size == len(keep)
            assert len(inner.boundary_indices) == 0
            assert np.array_equal(inner.matrix.toarray(), dense)
            basis = ExtendedKrylovBasis(inner, np.eye(inner.size))
            T, _ = basis.projections(1)
            assert np.allclose(basis.V @ T @ basis.V.T, dense)

    def test_interior_factors_kron_sum_equal_matrix(self):
        for preset, n in (("example1", 9), ("example2", 7), ("example2_1", 5),
                          ("example4", 5)):
            op = assemble_space_operator(get_preset(preset, n, 8))
            inner = op.interior()
            assert [F.shape for F in inner.factors] == [(n - 2, n - 2)] * op.d
            assert abs(kron_sum(inner.factors, n - 2) - inner.matrix).max() == 0.0

    def test_projection_symmetry_for_symmetric_operator(self):
        # without boundary rows the heat operator is symmetric, so its
        # projection is symmetric for any start block
        op = heat_op(24).interior()
        basis = ExtendedKrylovBasis(op, rng.standard_normal((op.size, 1)))
        for _ in range(3):
            basis.step()
        T, _ = basis.projections(basis.n_blocks - 1)
        assert np.linalg.norm(T - T.T) <= 1e-12 * np.linalg.norm(T)

    def test_interior_projection_against_dense(self):
        op = heat_op(16, d=2).interior()
        basis = ExtendedKrylovBasis(op, rng.standard_normal(op.size))
        for _ in range(3):
            basis.step()
        m = basis.n_blocks - 1
        T, coupling = basis.projections(m)
        r = T.shape[0]
        rn = basis.state.block_bounds[m + 1]
        K = op.matrix.toarray()
        assert np.abs(T - basis.V[:, :r].T @ K @ basis.V[:, :r]).max() \
            <= 1e-10 * np.abs(K).max()
        assert np.abs(coupling - basis.V[:, r:rn].T @ K @ basis.V[:, :r]).max() \
            <= 1e-10 * np.abs(K).max()

    def test_interior_projection_spectrum(self):
        # Ritz values of the symmetric interior operator lie in its spectrum
        op = heat_op(20).interior()
        basis = ExtendedKrylovBasis(op, rng.standard_normal((op.size, 2)))
        for _ in range(3):
            basis.step()
        T, _ = basis.projections(basis.n_blocks - 1)
        ritz = np.linalg.eigvalsh((T + T.T) / 2)
        lam = np.linalg.eigvalsh(op.matrix.toarray())
        assert lam[0] * (1 - 1e-12) <= ritz.min() and ritz.max() <= lam[-1] * (1 + 1e-12)


class TestRationalBasis:
    @staticmethod
    def _adaptive_basis(op, B, steps):
        basis = RationalKrylovBasis(op, B)
        s_min, s_max = spectral_bounds(op)
        state = ShiftState(s_min=s_min, s_max=s_max)
        for _ in range(steps):
            state.ritz_values = np.linalg.eigvals(basis.state.T_full)
            xi = next_shift(state)
            state.used_shifts.append(xi)
            basis.step(xi)
        return basis

    @staticmethod
    def _sine_start(n):
        # [b, v] with v a sine eigenvector of the 1D interior heat operator
        # and b orthogonal to it: v deflates inside the first step's block
        v = np.sin(np.pi * np.arange(1, n - 1) / (n - 1))
        b = rng.standard_normal(n - 2)
        return np.column_stack([b - (b @ v) / (v @ v) * v, v])

    @pytest.mark.parametrize("op,start,steps,p,deflates", [
        (lambda: heat_op(14, d=2).interior(),
         lambda op: rng.standard_normal((op.size, 2)), 6, 2, False),
        (lambda: assemble_space_operator(get_preset("example3", 14, 8, epsilon=0.01)).interior(),
         lambda op: rng.standard_normal((op.size, 1)), 8, 1, False),
        (lambda: heat_op(24).interior(), lambda op: TestRationalBasis._sine_start(24), 5, 2, True),
        (lambda: heat_op(30).interior(),
         lambda op: (lambda x, y: np.column_stack([x, y, x - 2 * y]))(
             *rng.standard_normal((2, op.size))), 5, 2, False),
    ], ids=["heat2d-two-columns", "example3", "mid-deflation", "dependent-column"])
    def test_residual_lies_in_image_of_start_block(self, op, start, steps, p, deflates):
        # W = K V_r - V_r T_r has rank at most p, the width of the first
        # block, and lies in the range of (I - V_r V_r^T) K V_1: the identity
        # behind the cheap RKSM residual, after any deflation
        op = op()
        basis = self._adaptive_basis(op, start(op), steps)
        st = basis.state
        assert st.block_bounds[1] == p
        widths = np.diff(st.block_bounds)
        assert (widths < p).any() == deflates
        K = op.matrix.toarray()
        for m in range(1, basis.n_blocks + 1):
            r = st.block_bounds[m]
            V = basis.V[:, :r]
            W = K @ V - V @ st.T_full[:r, :r]
            sv = np.linalg.svd(W, compute_uv=False)
            assert (sv > 1e-10 * sv[0]).sum() <= p
            Q = np.linalg.svd(K @ V[:, :p] - V @ (V.T @ K @ V[:, :p]),
                              full_matrices=False)[0]
            outside = W - Q @ (Q.T @ W)
            assert np.linalg.norm(outside) <= 1e-12 * np.linalg.norm(W), m

    def test_repeated_shift_valid(self):
        op = heat_op(24)
        basis = RationalKrylovBasis(op, rng.standard_normal(24))
        for _ in range(3):
            basis.step(-5.0)
        r = basis.width
        assert np.linalg.norm(basis.V.T @ basis.V - np.eye(r)) <= 1e-10

    def test_exhaustion(self):
        op = heat_op(6)
        basis = RationalKrylovBasis(op, rng.standard_normal(6))
        with pytest.raises(Breakdown):
            for k in range(10):
                basis.step(-3.0 - k)

    def test_eigenvector_start_breaks_down_immediately(self):
        spec = get_preset("example1", 24, 8)
        op = assemble_space_operator(spec)
        u0 = np.sin(spec.grid.axes()[0])
        basis = RationalKrylovBasis(op, u0)
        with pytest.raises(Breakdown):
            basis.step(-10.0)


class TestShifts:
    def test_first_shift_magnitude(self):
        state = ShiftState(s_min=2.0, s_max=100.0)
        assert next_shift(state) == -2.0

    def test_interior_after_endpoint_shifts(self):
        state = ShiftState(s_min=1.0, s_max=50.0,
                           used_shifts=[-1.0, -50.0],
                           ritz_values=np.array([]))
        xi = next_shift(state)
        assert -50.0 < xi < -1.0

    def test_matches_grid_oracle(self):
        state = ShiftState(s_min=1.0, s_max=30.0,
                           used_shifts=[-1.0, -7.5, -30.0],
                           ritz_values=np.array([2.0, 11.0, 28.0]))
        xi = next_shift(state)
        xs = -np.geomspace(1.0, 30.0, 1000)
        vals = np.ones_like(xs)
        for u in state.used_shifts:
            vals *= np.abs(xs - u)
        for th in state.ritz_values:
            vals /= np.abs(xs - th)
        assert xi == xs[np.argmax(vals)]

    def test_pole_near_low_end_of_wide_interval(self):
        # Ritz values crowd the low end of a four-decade interval; a linear
        # grid spaces its candidates ~10 apart and cannot place a pole below
        # -10, the log-spaced candidates can
        state = ShiftState(s_min=1.0, s_max=1e4,
                           used_shifts=[-1.0, -1e4],
                           ritz_values=np.array([1.5, 3.0, 6.0]))
        xi = next_shift(state)
        assert -10.0 < xi < -1.0

    def test_deterministic_sequence(self):
        op = heat_op(20)
        seqs = []
        for _ in range(2):
            s_min, s_max = spectral_bounds(op, seed=3)
            state = ShiftState(s_min=s_min, s_max=s_max,
                               ritz_values=np.array([5.0, 40.0]))
            seq = []
            for _ in range(4):
                xi = next_shift(state)
                state.used_shifts.append(xi)
                seq.append(xi)
            seqs.append(seq)
        assert seqs[0] == seqs[1]

    def test_distinct_from_used(self):
        state = ShiftState(s_min=1.0, s_max=10.0, ritz_values=np.array([]))
        for _ in range(6):
            xi = next_shift(state)
            assert xi not in state.used_shifts
            state.used_shifts.append(xi)

    @pytest.mark.parametrize("op", [
        lambda: assemble_space_operator(get_preset("example1", 40, 8)),
        lambda: assemble_space_operator(get_preset("example1", 40, 8)).interior(),
        lambda: assemble_space_operator(get_preset("example2", 14, 8)).interior(),
        lambda: assemble_space_operator(get_preset("example2_1", 8, 8)).interior(),
        lambda: assemble_space_operator(get_preset("example4", 8, 8)),
        lambda: assemble_space_operator(get_preset("example4", 10, 8)).interior(),
        # the 1D convection-diffusion operator of the residual-formula check
        lambda: assemble_space_operator(problem_spec(
            "convection-diffusion", square_grid(1, 32, 16), epsilon=0.2,
            wind=[(lambda x: 1.0 + x,)], u0=lambda x: x**2 * (1 - x) ** 2)),
    ], ids=["example1", "example1-interior", "example2-interior",
            "example2_1-interior", "example4", "example4-interior", "convdiff1d"])
    def test_kronecker_interval_is_the_spectrum_hull(self, op):
        op = op()
        lam = np.linalg.eigvals(op.matrix.toarray()).real
        s_min, s_max = spectral_bounds(op)
        assert abs(s_min - lam.min()) <= 1e-10 * lam.min()
        assert abs(s_max - lam.max()) <= 1e-10 * lam.max()

    def test_bounds_positive_for_heat(self):
        op = heat_op(16, d=2)
        s_min, s_max = spectral_bounds(op)
        assert 0 < s_min < s_max
        lam = np.linalg.eigvals(op.matrix.toarray())
        assert s_max >= lam.real.max() * (1 - 1e-10)
        assert s_min <= lam.real.min() * 1.5
