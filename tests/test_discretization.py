import dataclasses
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

from evosylv import discretization
from evosylv.discretization import (SOURCE_CHUNK, Grid, assemble_rhs,
                                    assemble_space_operator,
                                    boundary_index_set, compress_snapshots,
                                    first_derivative_1d, kron_vectors,
                                    laplacian_1d, modify_for_boundary,
                                    sample_space_function)
from evosylv.errors import MissingInitialValues, NonSeparableWind
from evosylv.oracles import timestep_solve
from evosylv.presets import get_preset
from evosylv.timeops import bdf_coefficients, build_time_operator

from helpers import problem_spec, square_grid

rng = np.random.default_rng(5)


def heat_spec(d, n, ell, u0=None, g=None, f=None, s=1, T=1.0, **kw):
    grid = square_grid(d, n, ell, T=T)
    return problem_spec("heat", grid, s=s, u0=u0, g=g, f=f, **kw)


def dense_source_factor(spec, op, L):
    """The former source builder, kept as the oracle: every row of every
    step in one n^d x L matrix, then one truncated SVD."""
    grid, scheme = spec.grid, spec.scheme
    s, tau, tb, alphas = scheme.s, grid.tau, spec.tau_beta, scheme.alphas
    bnd = op.boundary_indices
    Fd = np.zeros((op.size, L))
    if spec.f is not None:
        for q in range(L):
            tk = tau * (s + q)
            Fd[:, q] = sample_space_function(grid, lambda *x: spec.f(*x, tk))
        Fd[bnd, :] = 0.0
    if spec.g is not None:
        defect = op.boundary_defect()
        mesh = np.meshgrid(*grid.axes(), indexing="ij")
        coords = [np.ravel(m, order="F")[bnd] for m in mesh]
        gb = [np.broadcast_to(np.asarray(spec.g(*coords, tau * k), dtype=float),
                              coords[0].shape) for k in range(L + s)]
        for q in range(L):
            k = s + q
            tele = gb[k].copy()
            for i in range(1, s + 1):
                tele -= alphas[i - 1] * gb[k - i]
            ghat = np.zeros(op.size)
            ghat[bnd] = gb[k]
            Fd[bnd, q] = (tele + defect @ ghat) / tb
    if np.linalg.norm(Fd) == 0:
        return None
    F1, F2 = compress_snapshots(Fd, 1e-12)
    return discretization.LowRankRhs(F1, tb * F2)


class TestOneDimOperators:
    def test_laplacian_stencil(self):
        K = laplacian_1d(5, 0.25).toarray()
        assert np.allclose(K[2], [0, -16, 32, -16, 0])
        assert np.allclose(K[0], 0) and np.allclose(K[4], 0)

    def test_derivative_stencil(self):
        B = first_derivative_1d(5, 0.25).toarray()
        assert np.allclose(B[2], [0, -2, 0, 2, 0])

    def test_laplacian_second_order_on_sine(self):
        n = 101
        x = np.linspace(0, np.pi, n)
        h = x[1] - x[0]
        K = laplacian_1d(n, h)
        # negative laplacian of sin is sin, to O(h^2)
        err = (K @ np.sin(x))[1:-1] - np.sin(x)[1:-1]
        assert np.abs(err).max() < 0.2 * h**2

    def test_modify_for_boundary_corners(self):
        K = modify_for_boundary(laplacian_1d(4, 1.0), 0.5).toarray()
        assert K[0, 0] == 2.0 and K[3, 3] == 2.0
        assert np.allclose(K[0, 1:], 0) and np.allclose(K[3, :3], 0)

    def test_boundary_rows_act_as_identity(self):
        n, tb = 6, 0.37
        K = modify_for_boundary(laplacian_1d(n, 0.2), tb)
        A_full = np.diag([0.0] + [1.0] * (n - 2) + [0.0]) + tb * K.toarray()
        assert np.allclose(A_full[0], np.eye(n)[0])
        assert np.allclose(A_full[n - 1], np.eye(n)[n - 1])
        P = np.zeros((n, n))
        P[0, 0] = P[n - 1, n - 1] = 1.0
        assert np.allclose(P @ A_full, P)

    @pytest.mark.parametrize("n", [3, 5, 8])
    @pytest.mark.parametrize("tb", [1e-3, 0.5, 10.0])
    def test_modified_matrix_nonsingular(self, n, tb):
        K = modify_for_boundary(laplacian_1d(n, 1.0 / (n - 1)), tb).toarray()
        assert abs(np.linalg.det(K)) > 0


class TestSpaceOperatorAssembly:
    def test_2d_heat_is_kron_sum(self):
        spec = heat_spec(2, 3, 4, u0=lambda x, y: x * y)
        op = assemble_space_operator(spec)
        K1 = op.factors[0].toarray()
        expected = np.kron(K1, np.eye(3)) + np.kron(np.eye(3), K1)
        assert op.matrix.shape == (9, 9)
        assert np.allclose(op.matrix.toarray(), expected)

    def test_1d_zero_wind_reduces_to_scaled_stiffness(self):
        grid = square_grid(1, 8, 4)
        zero = lambda x: np.zeros_like(x)
        spec = problem_spec("convection-diffusion", grid, epsilon=1.0,
                            wind=[(zero,)], u0=lambda x: x)
        op = assemble_space_operator(spec)
        K1 = modify_for_boundary(laplacian_1d(8, grid.h), spec.tau_beta)
        assert np.allclose(op.matrix.toarray(), K1.toarray())

    def test_1d_zero_wind_viscosity_scales_interior_only(self):
        grid = square_grid(1, 8, 4)
        zero = lambda x: np.zeros_like(x)
        eps = 0.3
        spec = problem_spec("convection-diffusion", grid, epsilon=eps,
                            wind=[(zero,)], u0=lambda x: x)
        K = assemble_space_operator(spec).matrix.toarray()
        K1 = modify_for_boundary(laplacian_1d(8, grid.h), spec.tau_beta).toarray()
        assert np.allclose(K[1:-1], eps * K1[1:-1])
        assert K[0, 0] == K1[0, 0] and K[-1, -1] == K1[-1, -1]

    def test_2d_wind_against_stencil_oracle(self):
        # wind (y, -x): assemble and compare every interior row against a
        # direct loop over the five-point stencil
        n = 4
        grid = square_grid(2, n, 4)
        spec = problem_spec(
            "convection-diffusion", grid, epsilon=0.7,
            wind=[(lambda x: np.ones_like(x), lambda y: y),
                  (lambda x: -x, lambda y: np.ones_like(y))],
            u0=lambda x, y: x * y)
        op = assemble_space_operator(spec)
        K = op.matrix.toarray()
        h = grid.h
        xs = grid.axes()[0]
        eps = 0.7

        def idx(i, j):
            return i + n * j

        for i in range(1, n - 1):
            for j in range(1, n - 1):
                row = np.zeros(n * n)
                # -eps * laplacian (negative laplacian convention)
                row[idx(i, j)] += 4 * eps / h**2
                for di, dj in ((1, 0), (-1, 0), (0, 1), (0, -1)):
                    row[idx(i + di, j + dj)] -= eps / h**2
                # w1 = y d/dx, centered
                w1 = xs[j]
                row[idx(i + 1, j)] += w1 / (2 * h)
                row[idx(i - 1, j)] -= w1 / (2 * h)
                # w2 = -x d/dy
                w2 = -xs[i]
                row[idx(i, j + 1)] += w2 / (2 * h)
                row[idx(i, j - 1)] -= w2 / (2 * h)
                assert np.allclose(K[idx(i, j)], row), (i, j)

    def test_wind_shape_validated(self):
        grid = square_grid(2, 4, 4)
        with pytest.raises(NonSeparableWind):
            problem_spec("convection-diffusion", grid,
                         wind=[(lambda x: x,)], u0=lambda x, y: x)

    def test_bad_dimension_rejected(self):
        with pytest.raises(Exception):
            Grid(d=4, n=4, domain=((0, 1),) * 4, T=1.0, ell=2)


class TestBoundaryStructure:
    def test_interior_indicator_complements_boundary(self):
        for d, n in ((1, 5), (2, 4), (3, 3)):
            bnd = boundary_index_set(n, d)
            interior = np.setdiff1d(np.arange(n**d), bnd)
            grid_pts = np.array(
                np.unravel_index(interior, (n,) * d, order="F")).T
            assert ((grid_pts > 0) & (grid_pts < n - 1)).all()
            expected = sum((n**d - (n - 2)**d,))
            assert len(bnd) == n**d - (n - 2)**d

    def test_bc_constraint_exact_1d(self):
        spec = heat_spec(1, 6, 5, u0=np.sin)
        op = assemble_space_operator(spec)
        A = op.a_full().toarray()
        P = np.zeros((6, 6))
        P[0, 0] = P[5, 5] = 1.0
        assert np.allclose(P @ A, P)

    @pytest.mark.parametrize("d,n", [(2, 4), (2, 6), (3, 4)])
    def test_bc_constraint_with_face_terms(self, d, n):
        # A_full boundary rows equal identity rows plus the correction
        # tau*beta*[P1 (x) K1-terms] confined to boundary faces
        spec = heat_spec(d, n, 5, u0=lambda *x: sum(x))
        op = assemble_space_operator(spec)
        tb = spec.tau_beta
        A = op.a_full().toarray()
        K1 = op.factors[0].toarray()
        P1 = np.zeros((n, n))
        P1[0, 0] = P1[n - 1, n - 1] = 1.0
        Q1 = np.eye(n) - P1
        if d == 2:
            L = tb * (np.kron(P1, K1) + np.kron(Q1 @ K1, P1))
            P = np.kron(P1, np.eye(n)) + np.kron(Q1, P1)
        else:
            Iy = np.eye(n)
            L = tb * (np.kron(P1, np.kron(K1, Iy)) + np.kron(P1, np.kron(Iy, K1))
                      + np.kron(Q1 @ K1, np.kron(P1, Iy)) + np.kron(Q1, np.kron(P1, K1))
                      + np.kron(Q1 @ K1, np.kron(Q1, P1)) + np.kron(Q1, np.kron(Q1 @ K1, P1)))
            P = np.kron(P1, np.kron(Iy, Iy)) + np.kron(Q1, np.kron(P1, Iy)) \
                + np.kron(Q1, np.kron(Q1, P1))
        # kron slot order is (slowest .. fastest) = (dim d .. dim 1)
        assert np.allclose(P @ A, P + P @ L)

    @pytest.mark.parametrize("preset,n,kw", [
        ("example2", 5, {}), ("example3", 5, {"epsilon": 0.5}), ("example4", 4, {}),
    ])
    def test_defect_support_confined_to_boundary(self, preset, n, kw):
        spec = get_preset(preset, n, 6, **kw)
        op = assemble_space_operator(spec)
        D = op.boundary_defect().tocoo()
        assert np.isin(np.unique(D.col), op.boundary_indices).all()

    def test_heat_full_matrix_spectrum_positive(self):
        for d, n in ((1, 8), (2, 5), (3, 3)):
            spec = heat_spec(d, n, 7, u0=lambda *x: sum(x))
            A = assemble_space_operator(spec).a_full().toarray()
            lam = np.linalg.eigvals(A)
            assert lam.real.min() > 0
            assert np.abs(lam.imag).max() < 1e-8 * np.abs(lam.real).max()


class TestOrderingConvention:
    def test_first_coordinate_fastest(self):
        grid = square_grid(2, 4, 2)
        phi = lambda x: np.cos(x)
        psi = lambda y: y**2 + 1
        samples = sample_space_function(grid, lambda x, y: phi(x) * psi(y))
        x = grid.axes()[0]
        expected = kron_vectors([phi(x), psi(x)])[:, 0]
        assert np.allclose(samples, expected)

    def test_3d_sampling_matches_kron(self):
        grid = square_grid(3, 3, 2)
        f1, f2, f3 = (lambda x: x + 1), (lambda y: 2 * y - 1), (lambda z: z**2 + 0.5)
        samples = sample_space_function(grid, lambda x, y, z: f1(x) * f2(y) * f3(z))
        ax = grid.axes()[0]
        assert np.allclose(samples, kron_vectors([f1(ax), f2(ax), f3(ax)])[:, 0])


class TestRhsAssembly:
    def test_homogeneous_heat(self):
        # without g the Dirichlet value 0 wins over u0 = sin on the boundary
        spec = heat_spec(1, 8, 5, u0=np.sin)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        assert rhs.width == 1
        expected = np.sin(spec.grid.axes()[0])
        expected[[0, -1]] = 0.0
        assert np.array_equal(rhs.left[:, 0], expected)
        assert rhs.boundary is None
        e1 = np.zeros(5)
        e1[0] = 1.0
        assert np.allclose(rhs.right[:, 0], e1)

    def test_time_constant_wall_telescopes_to_zero(self):
        # g = 1 on the left wall: beyond the initial column the source part
        # vanishes and the wall value enters through u0 only
        wall = lambda x: np.where(x == 0.0, 1.0, 0.0)
        spec = heat_spec(1, 8, 6, u0=wall, g=lambda x, t: wall(x))
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        assert rhs.width == 1          # source part compressed away entirely
        assert rhs.left[0, 0] == 1.0
        dense = rhs.dense()
        assert np.allclose(dense[:, 1:], 0.0)

    def test_example1_rhs_is_rank_one(self):
        spec = get_preset("example1", 32, 8)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        assert rhs.width == 1
        assert np.linalg.matrix_rank(rhs.dense(), tol=1e-12) == 1

    def test_bdf_initial_columns(self):
        spec = get_preset("example1", 16, 12, s=3)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        s, a = 3, bdf_coefficients(3).alphas
        tau = spec.grid.tau
        x = spec.grid.axes()[0]
        us = [np.sin(x) * np.exp(-k * tau) for k in range(s)]
        # c_q = sum_{i=q}^{s} alpha_i u_{s+q-1-i}, 1-based q
        for q in range(1, s + 1):
            expected = sum(a[i - 1] * us[s + q - 1 - i] for i in range(q, s + 1))
            assert np.allclose(rhs.left[:, q - 1], expected)
        L = 12 - s + 1
        assert np.allclose(rhs.right[:s, :s], np.eye(s))
        assert rhs.right.shape == (L, s)

    def test_missing_initial_values(self):
        spec = heat_spec(1, 8, 8, u0=np.sin, s=2)
        op = assemble_space_operator(spec)
        with pytest.raises(MissingInitialValues):
            assemble_rhs(spec, op)

    def test_separable_source_groups(self):
        spec = get_preset("example2_1", 4, 8)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        assert rhs.separable is not None
        recon = np.hstack([kron_vectors(g[0]) for g in rhs.separable])
        assert np.linalg.norm(recon - rhs.left) <= 1e-12 * max(np.linalg.norm(rhs.left), 1)

    def test_separable_matches_dense_sampling(self):
        spec = get_preset("example2_1", 4, 8)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        tau = spec.grid.tau
        cols = []
        for k in range(1, 9):
            cols.append(spec.tau_beta * sample_space_function(
                spec.grid, lambda x, y, z: spec.f(x, y, z, k * tau)))
        assert np.allclose(rhs.dense(), np.column_stack(cols))

    def test_initial_norm_matches_dense(self):
        spec = get_preset("example2_1", 4, 8)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        assert abs(rhs.initial_norm() - np.linalg.norm(rhs.dense())) \
            <= 1e-12 * rhs.initial_norm()

    def test_initial_norm_three_term_formula(self):
        # delta^2 = u0'u0 + tb^2 trace((F1'F1)(F2'F2)) + 2 tb f1'u0
        n, L, p, tb = 20, 9, 3, 0.05
        u0 = rng.standard_normal(n)
        F1 = rng.standard_normal((n, p))
        F2 = rng.standard_normal((L, p))
        from evosylv.discretization import LowRankRhs
        e1 = np.zeros(L)
        e1[0] = 1.0
        rhs = LowRankRhs(left=np.column_stack([u0, F1]),
                         right=np.column_stack([e1, tb * F2]))
        f1 = F1 @ F2[0]
        expected = np.sqrt(u0 @ u0 + tb**2 * np.trace((F1.T @ F1) @ (F2.T @ F2))
                           + 2 * tb * f1 @ u0)
        assert abs(rhs.initial_norm() - expected) <= 1e-12 * expected


def _hot_wall_bdf3(n, ell):
    spec = get_preset("example3", n, ell, epsilon=0.01)
    u0 = sample_space_function(spec.grid, spec.u0)
    return dataclasses.replace(spec, scheme=bdf_coefficients(3),
                               extra_initial_values=[u0, u0])


def _heat3d_moving_g(n, ell):
    g = lambda x, y, z, t: np.sin(3 * t + x) * (1 + y * z)
    return heat_spec(3, n, ell, u0=lambda x, y, z: g(x, y, z, 0.0), g=g)


def _bdf2_f_and_g(n, ell):
    g = lambda x, y, t: np.cos(t) * x + y**2
    f = lambda x, y, t: np.exp(-t) * np.sin(np.pi * x) * y + t * x * y
    spec = heat_spec(2, n, ell, u0=lambda x, y: g(x, y, 0.0), g=g, f=f, s=2)
    extra = sample_space_function(spec.grid, lambda x, y: g(x, y, spec.grid.tau))
    return dataclasses.replace(spec, extra_initial_values=[extra])


def _wall_1d(n, ell, u0=None):
    wall = lambda x: np.where(x == 0.0, 1.0, 0.0)
    return heat_spec(1, n, ell, u0=wall if u0 is None else np.full(n, u0),
                     g=lambda x, t: wall(x))


def _boundary_samples(spec, op):
    """g(t_k) on the boundary nodes for the steps k = s .. ell, one column each."""
    coords = discretization.boundary_coordinates(spec.grid)
    steps = range(spec.scheme.s, spec.grid.ell + 1)
    return np.column_stack([np.broadcast_to(spec.g(*coords, spec.grid.tau * k),
                                            coords[0].shape) for k in steps])


class TestStreamedSource:
    """assemble_rhs against the former dense builder (``dense_source_factor``)."""

    @pytest.mark.parametrize("build,width", [
        (lambda: get_preset("example3", 10, 150, epsilon=0.01), 2),
        (lambda: _hot_wall_bdf3(8, 140), None),
        (lambda: _heat3d_moving_g(5, 150), None),
        (lambda: _bdf2_f_and_g(7, 140), None),
        (lambda: heat_spec(2, 7, 140, f=lambda x, y, t: np.cos(t) * (1 + x * y)), 1),
        (lambda: _wall_1d(8, 150), 1),
        (lambda: get_preset("example2", 8, 150), 1),
        (lambda: get_preset("example3", 6, SOURCE_CHUNK - 1, epsilon=0.5), 2),
        (lambda: get_preset("example3", 6, SOURCE_CHUNK, epsilon=0.5), 2),
        (lambda: get_preset("example3", 6, SOURCE_CHUNK + 1, epsilon=0.5), 2),
    ], ids=["example3", "example3_bdf3", "heat3d_moving_g", "bdf2_f_and_g",
            "f_nonzero_on_boundary", "wall_1d", "no_source", "chunk_minus_1",
            "chunk", "chunk_plus_1"])
    def test_matches_dense_builder(self, build, width, monkeypatch):
        spec = build()
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        monkeypatch.setattr(discretization, "_source_factor", dense_source_factor)
        ref = assemble_rhs(spec, op)
        assert rhs.width == ref.width
        if width is not None:
            assert rhs.width == width
        dense, ref_dense = rhs.dense(), ref.dense()
        assert np.linalg.norm(dense - ref_dense) <= 1e-12 * np.linalg.norm(ref_dense)

    def test_no_source_builds_nothing(self):
        spec = get_preset("example2", 8, 20)
        op = assemble_space_operator(spec)
        assert discretization._source_factor(spec, op, 20) is None

    @pytest.mark.parametrize("build,bound_mib", [
        (lambda: get_preset("example2", 256, 16384), 64),
        (lambda: get_preset("example3", 96, 2048, epsilon=0.01), 32),
        (lambda: heat_spec(2, 64, 2048, f=lambda x, y, t: np.sin(t) * x * y), 16),
    ], ids=["example2_no_source", "example3_boundary", "heat2d_interior_f"])
    def test_assembly_memory_bound(self, build, bound_mib):
        # one n^d x L array alone would break the bound twice over
        spec = build()
        op = assemble_space_operator(spec)
        assert op.size * spec.grid.ell * 8 >= 2 * bound_mib * 2**20
        tracemalloc.start()
        try:
            assemble_rhs(spec, op)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound_mib * 2**20


def _inconsistent_hot_wall(n, ell, s):
    # u0 = 0 disagrees with the hot wall g = 1 on x = 0
    spec = get_preset("example3", n, ell, s=s, epsilon=0.01)
    zero = np.zeros(n * n)
    return dataclasses.replace(spec, u0=zero, extra_initial_values=[zero] * (s - 1))


class TestEliminateBoundary:
    """eliminate_boundary against the full-grid oracle: the boundary rows of
    the time-stepped solution, and the dense interior right-hand side."""

    @pytest.mark.parametrize("build", [
        lambda: get_preset("example3", 10, 150, epsilon=0.01),
        lambda: _hot_wall_bdf3(8, 140),
        lambda: _heat3d_moving_g(5, 70),
        lambda: _bdf2_f_and_g(7, 140),
        lambda: _wall_1d(8, 150),
        lambda: _inconsistent_hot_wall(8, 140, 1),
        lambda: _inconsistent_hot_wall(8, 140, 2),
    ], ids=["example3", "example3_bdf3", "heat3d_moving_g", "bdf2_f_and_g",
            "wall_1d", "inconsistent_bdf1", "inconsistent_bdf2"])
    def test_matches_full_grid(self, build):
        spec = build()
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        s = spec.scheme.s
        top = build_time_operator(s, spec.grid.ell - s + 1)
        op_I, rhs_I, (G1, G2) = discretization.eliminate_boundary(op, rhs)
        U = timestep_solve(op, rhs, top).U
        bnd, keep = op.boundary_indices, op.interior_indices()
        UB = U[bnd]
        assert np.linalg.norm(G1 @ G2.T - UB) <= 1e-11 * np.linalg.norm(UB)
        A = op.a_full()
        expected = rhs.dense()[keep] - A[keep][:, bnd] @ UB
        assert np.linalg.norm(rhs_I.dense() - expected) <= 1e-11 * np.linalg.norm(expected)
        assert rhs_I.left.shape[0] == op_I.size == len(keep)
        # the interior equation holds for the oracle's interior rows
        R = op_I.a_full() @ U[keep] - U[keep] @ top.sigma.T - rhs_I.dense()
        assert np.linalg.norm(R) <= 1e-10 * np.linalg.norm(U[keep])

    def test_hot_wall_interior_rhs_has_rank_one(self):
        spec = get_preset("example3", 16, 200, epsilon=0.01)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        _, rhs_I, (G1, _) = discretization.eliminate_boundary(op, rhs)
        assert rhs.width == 2 and rhs_I.width == 1 and G1.shape[1] == 1

    @pytest.mark.parametrize("build", [
        lambda: _wall_1d(8, 150, u0=0.0),
        lambda: _inconsistent_hot_wall(8, 140, 1),
        lambda: _inconsistent_hot_wall(8, 140, 2),
    ], ids=["wall_1d", "example3_bdf1", "example3_bdf2"])
    def test_dirichlet_data_win(self, build):
        # u0 = 0 against a hot wall: the boundary rows of the time-stepped
        # solution are g at every step, and so is the assembled block
        spec = build()
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        s = spec.scheme.s
        top = build_time_operator(s, spec.grid.ell - s + 1)
        g = _boundary_samples(spec, op)
        U = timestep_solve(op, rhs, top).U
        assert np.abs(U[op.boundary_indices] - g).max() <= 1e-12 * np.abs(g).max()
        G1, G2 = rhs.boundary
        assert np.abs(G1 @ G2.T - g).max() <= 1e-12 * np.abs(g).max()

    def test_block_missing_from_boundary_data_is_refused(self):
        spec = get_preset("example3", 8, 20, epsilon=0.01)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        with pytest.raises(ValueError, match="assemble_rhs"):
            discretization.eliminate_boundary(op, discretization.LowRankRhs(rhs.left, rhs.right))

    def test_no_boundary_data_skips_the_boundary_solve(self, monkeypatch):
        def forbidden(*args, **kwargs):
            raise AssertionError("boundary block recompressed")

        monkeypatch.setattr(discretization, "compress_snapshots", forbidden)
        for spec in (get_preset("example2", 9, 12), get_preset("example2_1", 5, 8)):
            op = assemble_space_operator(spec)
            rhs = assemble_rhs(spec, op)
            op_I, rhs_I, boundary = discretization.eliminate_boundary(op, rhs)
            assert boundary is None
            assert np.array_equal(rhs_I.left, rhs.left[op.interior_indices()])
            assert rhs_I.right is rhs.right
            assert rhs_I.initial_norm() == pytest.approx(rhs.initial_norm(), rel=1e-14)
            for (facs, cols), (facs_I, cols_I) in zip(rhs.separable, rhs_I.separable):
                assert cols_I is cols
                assert np.array_equal(kron_vectors(facs_I),
                                      kron_vectors(facs)[op.interior_indices()])

    def test_boundary_solve_memory_bound(self):
        # example3 n=96, ell=2048: |bnd| x L alone is 5.9 MiB, n^d x L 144 MiB
        spec = get_preset("example3", 96, 2048, epsilon=0.01)
        op = assemble_space_operator(spec)
        rhs = assemble_rhs(spec, op)
        op.interior()
        tracemalloc.start()
        try:
            discretization.eliminate_boundary(op, rhs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * 2**20


class TestCompressSnapshots:
    def test_rank_one(self):
        F = np.outer(rng.standard_normal(12), rng.standard_normal(7))
        F1, F2 = compress_snapshots(F, 1e-12)
        assert F1.shape[1] == 1
        assert np.linalg.norm(F - F1 @ F2.T) <= 1e-12 * np.linalg.norm(F)

    def test_separable_function_is_rank_one(self):
        x = np.linspace(0, 1, 15)
        t = np.linspace(0, 2, 10)
        F = np.outer(x * (1 - x), 1 + np.sin(np.pi * t / 2))
        F1, _ = compress_snapshots(F, 1e-10)
        assert F1.shape[1] == 1

    def test_random_tolerance(self):
        F = rng.standard_normal((20, 15))
        F1, F2 = compress_snapshots(F, 1e-10)
        assert np.linalg.norm(F - F1 @ F2.T) <= 1e-10 * np.linalg.norm(F)

    def test_zero_matrix(self):
        F1, F2 = compress_snapshots(np.zeros((4, 3)), 1e-10)
        assert F1.shape == (4, 0) and F2.shape == (3, 0)
