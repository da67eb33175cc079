import numpy as np
import pytest
import scipy.sparse as sp

from evosylv.discretization import (LowRankRhs, SpaceOperator, assemble_rhs,
                                    assemble_space_operator)
from evosylv.errors import TooLarge
from evosylv.oracles import analytic_example1, dense_kron_solve, timestep_solve
from evosylv.presets import get_preset
from evosylv.timeops import build_time_operator

from helpers import problem_spec, square_grid

rng = np.random.default_rng(9)


def scalar_operator(tau):
    # one spatial "node" with coefficient 1 + tau, no boundary
    return SpaceOperator(d=1, n=1, matrix=sp.csr_matrix(np.array([[1.0]])),
                         boundary_indices=np.array([], dtype=int), tau_beta=tau)


def test_zero_data_zero_solution():
    spec = problem_spec("heat", square_grid(1, 8, 6), u0=None)
    op = assemble_space_operator(spec)
    rhs = assemble_rhs(spec, op)
    top = build_time_operator(1, 6)
    assert np.allclose(timestep_solve(op, rhs, top).U, 0.0)


def test_scalar_geometric_decay():
    tau = 0.2
    op = scalar_operator(tau)
    L = 10
    e1 = np.zeros(L)
    e1[0] = 1.0
    rhs = LowRankRhs(left=np.array([[1.0]]), right=e1[:, None])
    top = build_time_operator(1, L)
    U = timestep_solve(op, rhs, top).U
    assert np.allclose(U[0], (1 + tau) ** -np.arange(1, L + 1))


def test_example1_discretization_error():
    spec = get_preset("example1", 256, 512)
    op = assemble_space_operator(spec)
    rhs = assemble_rhs(spec, op)
    top = build_time_operator(1, 512)
    U = timestep_solve(op, rhs, top).U
    x = spec.grid.axes()[0]
    exact = np.sin(x) * np.exp(-1.0)
    err = np.linalg.norm(U[:, -1] - exact) / np.linalg.norm(exact)
    h, tau = spec.grid.h, spec.grid.tau
    assert err < 2 * (h**2 + tau)


def test_dense_kron_matches_scalar_recursion():
    tau = 0.5
    op = scalar_operator(tau)
    L = 3
    e1 = np.zeros(L)
    e1[0] = 1.0
    rhs = LowRankRhs(left=np.array([[1.0]]), right=e1[:, None])
    top = build_time_operator(1, L)
    assert np.allclose(dense_kron_solve(op, rhs, top).U,
                       timestep_solve(op, rhs, top).U)


@pytest.mark.parametrize("s", range(1, 7))
def test_cross_oracle_agreement_all_orders(s):
    spec = get_preset("example1", 8, 16, s=s)
    op = assemble_space_operator(spec)
    rhs = assemble_rhs(spec, op)
    top = build_time_operator(s, 16 - s + 1)
    Ut = timestep_solve(op, rhs, top).U
    Ud = dense_kron_solve(op, rhs, top).U
    assert np.linalg.norm(Ut - Ud) <= 1e-12 * max(np.linalg.norm(Ut), 1e-30)


def test_cross_oracle_2d_heat():
    spec = get_preset("example2", 6, 12)
    op = assemble_space_operator(spec)
    rhs = assemble_rhs(spec, op)
    top = build_time_operator(1, 12)
    Ut = timestep_solve(op, rhs, top).U
    Ud = dense_kron_solve(op, rhs, top).U
    assert np.linalg.norm(Ut - Ud) <= 1e-12 * np.linalg.norm(Ut)


def test_dense_oracle_size_guard():
    spec = get_preset("example2", 32, 64)
    op = assemble_space_operator(spec)
    rhs = assemble_rhs(spec, op)
    top = build_time_operator(1, 64)
    with pytest.raises(TooLarge):
        dense_kron_solve(op, rhs, top)


def test_analytic_example1_values():
    assert analytic_example1(np.pi / 2, 0.0) == pytest.approx(1.0)
    assert analytic_example1(0.0, 0.63) == pytest.approx(0.0)
    assert analytic_example1(np.pi / 2, 1.0) == pytest.approx(np.exp(-1), rel=1e-12)
