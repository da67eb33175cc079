import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosylv.errors import ResonantEigenvalue, SingularProjectedMatrix
from evosylv.kernels import fft, ifft
from evosylv.solver import (ProjectedProblem, inner_solve_fft_smw,
                            inner_solve_sequential)
from evosylv.timeops import build_time_operator

rng = np.random.default_rng(101)


def random_problem(r, L, s, p=1, seed=None, kind="symmetric", margin=1.0):
    """A_small safely away from the circulant eigenvalues (|pi| <= sum|alpha|).

    ``kind`` is "symmetric", "general", or "non-normal": a general matrix
    plus a strictly upper-triangular part as large as its diagonal in the
    2-norm (eigenvector condition numbers up to ~1e4, yet ||Y|| <= ||rhs||).
    """
    g = np.random.default_rng(seed)
    top = build_time_operator(s, L)
    shift = margin + np.abs(top.scheme.alphas).sum()
    A = 0.2 * g.standard_normal((r, r))
    if kind == "symmetric":
        A = (A + A.T) / 2
    elif kind == "non-normal" and r > 1:
        U = np.triu(g.standard_normal((r, r)), 1)
        A += (shift + 2.0) * U / np.linalg.norm(U, 2)
    A += (shift + 2.0) * np.eye(r)
    left = g.standard_normal((r, p + 1))
    right = g.standard_normal((L, p + 1))
    return ProjectedProblem(A_small=A, rhs_left=left, rhs_right=right, timeop=top)


def kron_residual(prob, Y):
    """Residual of the projected equation via the dense Kronecker form."""
    A, top = prob.A_small, prob.timeop
    L = top.ell
    big = np.kron(np.eye(L), A) - np.kron(top.sigma.toarray(), np.eye(A.shape[0]))
    rhs = prob.rhs_left @ prob.rhs_right.T
    return np.linalg.norm(big @ Y.ravel(order="F") - rhs.ravel(order="F")) \
        / max(np.linalg.norm(rhs), 1e-300)


class TestSequential:
    def test_scalar_recursion(self):
        top = build_time_operator(1, 3)
        e1 = np.array([[1.0], [0.0], [0.0]])
        prob = ProjectedProblem(np.array([[2.0]]), np.array([[1.0]]), e1, top)
        Y = inner_solve_sequential(prob)
        assert np.allclose(Y, [[0.5, 0.25, 0.125]])

    def test_zero_rhs(self):
        prob = random_problem(4, 10, 2, seed=0)
        prob.rhs_left = np.zeros_like(prob.rhs_left)
        assert np.allclose(inner_solve_sequential(prob), 0.0)

    def test_random_bdf3_against_kron_oracle(self):
        prob = random_problem(5, 40, 3, seed=4)
        Y = inner_solve_sequential(prob)
        assert kron_residual(prob, Y) <= 1e-12

    def test_singular_matrix_rejected(self):
        top = build_time_operator(1, 4)
        prob = ProjectedProblem(np.zeros((2, 2)), np.ones((2, 1)),
                                np.ones((4, 1)), top)
        with pytest.raises(SingularProjectedMatrix):
            inner_solve_sequential(prob)


class TestFftSmw:
    def test_scalar_consistency(self):
        top = build_time_operator(1, 4)
        e1 = np.zeros((4, 1))
        e1[0] = 1.0
        prob = ProjectedProblem(np.array([[2.0]]), np.array([[1.0]]), e1, top)
        Y = inner_solve_fft_smw(prob)
        assert np.allclose(Y, [[0.5, 0.25, 0.125, 0.0625]])

    def test_zero_rhs(self):
        prob = random_problem(4, 12, 2, seed=1)
        prob.rhs_left = np.zeros_like(prob.rhs_left)
        assert np.allclose(inner_solve_fft_smw(prob), 0.0)

    @pytest.mark.parametrize("s", range(1, 7))
    @pytest.mark.parametrize("L", [17, 100])
    def test_matches_sequential(self, s, L):
        prob = random_problem(6, L, s, seed=10 * s + L,
                              kind="symmetric" if L == 17 else "general")
        Y_seq = inner_solve_sequential(prob)
        Y_fft = inner_solve_fft_smw(prob)
        assert np.linalg.norm(Y_fft - Y_seq) <= 1e-10 * np.linalg.norm(Y_seq)

    @given(st.integers(1, 6), st.integers(1, 20), st.sampled_from([17, 33, 64]),
           st.integers(0, 2**31),
           st.sampled_from(["symmetric", "general", "non-normal"]))
    @settings(max_examples=40, deadline=None)
    def test_matches_sequential_property(self, s, r, L, seed, kind):
        prob = random_problem(r, L, s, p=min(r - 1, 2), seed=seed, kind=kind)
        Y_seq = inner_solve_sequential(prob)
        Y_fft = inner_solve_fft_smw(prob)
        assert np.linalg.norm(Y_fft - Y_seq) <= 1e-10 * np.linalg.norm(Y_seq)

    def test_solves_projected_equation(self):
        prob = random_problem(7, 32, 4, seed=3, kind="general")
        Y = inner_solve_fft_smw(prob)
        assert kron_residual(prob, Y) <= 1e-8

    @pytest.mark.parametrize("case", ["defective", "non-normal"])
    def test_accurate_without_diagonalization(self, case):
        # no eigenvector basis exists (Jordan-like), or its condition number
        # ||S||_F ||S^{-1}||_F is about 1e10; the unitary Schur factor
        # keeps the solve accurate in both
        if case == "defective":
            A = 5 * np.eye(3)
            A[0, 1] = 1.0
            A[1, 2] = 1.0
        else:
            g = np.random.default_rng(7)
            A = np.diag(4.0 + 0.1 * np.arange(6)) \
                + 30.0 * np.triu(g.standard_normal((6, 6)), 1)
        top = build_time_operator(1, 8)
        g = np.random.default_rng(8)
        prob = ProjectedProblem(A, g.standard_normal((len(A), 2)),
                                g.standard_normal((8, 2)), top)
        Y_seq = inner_solve_sequential(prob)
        Y_fft = inner_solve_fft_smw(prob)
        assert np.linalg.norm(Y_fft - Y_seq) <= 1e-12 * np.linalg.norm(Y_seq)

    def test_resonance_detected(self):
        # plant an eigenvalue exactly on the circulant eigenvalue 1
        top = build_time_operator(1, 8)
        A = np.diag([1.0, 3.0, 4.0])
        prob = ProjectedProblem(A, np.ones((3, 1)), np.ones((8, 1)), top)
        with pytest.raises(ResonantEigenvalue):
            inner_solve_fft_smw(prob)


class TestSmwStructure:
    """The dense N^T L^{-1} M equals the structured construction."""

    @pytest.mark.parametrize("s,r,L", [(1, 3, 8), (2, 4, 16), (3, 8, 32),
                                       (6, 5, 20)])
    def test_structured_matches_dense(self, s, r, L):
        g = np.random.default_rng(100 * s + r)
        top = build_time_operator(s, L)
        shift = 1.0 + np.abs(top.scheme.alphas).sum()
        A = (shift + 1) * np.eye(r) + 0.1 * g.standard_normal((r, r))
        lam = np.linalg.eigvals(A)
        pi = top.circ_eigs

        # dense construction: explicit L, M, N Kronecker factors
        Lbig = np.kron(np.eye(L), np.diag(lam)) - np.kron(np.diag(pi), np.eye(r))
        F = fft(np.eye(L), axis=0)
        Finv = ifft(np.eye(L), axis=0)
        M_mat = F @ top.corr_left
        N_mat = Finv @ top.corr_right @ top.corr_alpha.T
        Mbig = np.kron(M_mat, np.eye(r))
        Nbig = np.kron(N_mat, np.eye(r))
        dense = Nbig.T @ np.linalg.solve(Lbig, Mbig)

        # structured: s x s blocks of diagonals, H (N_q . M_h) on the diagonal
        H = 1.0 / (lam[:, None] - pi[None, :])
        structured = np.zeros((s * r, s * r), dtype=complex)
        for q in range(s):
            for h in range(s):
                diag = H @ (N_mat[:, q] * M_mat[:, h])
                structured[q * r:(q + 1) * r, h * r:(h + 1) * r] = np.diag(diag)
        assert np.abs(dense - structured).max() <= 1e-12 * max(1.0, np.abs(dense).max())

    def test_s1_correction_is_diagonal(self):
        r, L = 4, 12
        top = build_time_operator(1, L)
        A = 4 * np.eye(r) + 0.1 * rng.standard_normal((r, r))
        lam = np.linalg.eigvals(A)
        H = 1.0 / (lam[:, None] - top.circ_eigs[None, :])
        e1 = np.zeros(L)
        e1[0] = 1.0
        el = np.zeros(L)
        el[-1] = 1.0
        diag = H @ (ifft(el) * fft(e1))
        Lbig = np.kron(np.eye(L), np.diag(lam)) - np.kron(np.diag(top.circ_eigs), np.eye(r))
        Mbig = np.kron(fft(e1)[:, None], np.eye(r))
        Nbig = np.kron(ifft(el)[:, None], np.eye(r))
        dense = Nbig.T @ np.linalg.solve(Lbig, Mbig)
        assert np.abs(dense - np.diag(diag)).max() <= 1e-12
