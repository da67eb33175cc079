import os
import subprocess
import sys

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from hypothesis import given, settings
from hypothesis import strategies as st

import evosylv
from evosylv import kernels
from evosylv.discretization import assemble_space_operator
from evosylv.errors import SingularMatrix
from evosylv.kernels import (ReorderedLU, SparseAnalysis, circulant_eigenvalues,
                             dense_eig, fft, ifft, sparse_factorize, sparse_solve)
from evosylv.presets import get_preset

rng = np.random.default_rng(1234)


def interior_laplacian(n):
    """5-point Laplacian on the n x n interior of the unit square, and the
    1D eigenvalues mu whose pairwise sums mu_i + mu_j are its spectrum."""
    h = 1.0 / (n + 1)
    T = sp.diags([-np.ones(n - 1), 2 * np.ones(n), -np.ones(n - 1)], [-1, 0, 1]) / h**2
    I = sp.identity(n)
    mu = 4 / h**2 * np.sin(np.arange(1, n + 1) * np.pi * h / 2) ** 2
    return (sp.kron(T, I) + sp.kron(I, T)).tocsc(), mu


def schur_diagonal(A):
    """Check dense_eig's contract on A and return the diagonal of T: Q
    unitary, Q T Q^H = A, T upper triangular."""
    T, Q = dense_eig(A)
    k = len(A)
    assert np.linalg.norm(Q.conj().T @ Q - np.eye(k)) <= 1e-12
    assert np.linalg.norm(Q @ T @ Q.conj().T - A) <= 1e-12 * np.linalg.norm(A)
    assert np.array_equal(T, np.triu(T))
    return np.diag(T)


class TestDenseEig:
    def test_diagonal(self):
        lam = schur_diagonal(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(sorted(lam.real), [1, 2, 3])
        assert np.abs(lam.imag).max() < 1e-14

    def test_rotation_matrix(self):
        lam = schur_diagonal(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.allclose(sorted(lam.imag), [-1, 1])
        assert np.abs(lam.real).max() < 1e-14

    def test_reconstruction_residual(self):
        # small heat projection shape: identity plus tau * symmetric stencil
        T = rng.standard_normal((4, 4))
        T = T + T.T + 8 * np.eye(4)
        A = np.eye(4) + 0.05 * T
        lam = schur_diagonal(A)
        assert np.allclose(np.sort(lam.real), np.linalg.eigvalsh(A), rtol=0, atol=1e-12)

    def test_conjugate_pairs(self):
        lams = schur_diagonal(rng.standard_normal((6, 6)))
        assert np.allclose(sorted(lams.real), sorted(np.conj(lams).real))
        assert np.allclose(sorted(lams.imag), sorted(-lams.imag))

    def test_symmetric_real_eigenvalues(self):
        A = rng.standard_normal((8, 8))
        A = A + A.T
        lam = schur_diagonal(A)
        scale = np.abs(lam.real).max()
        assert np.abs(lam.imag).max() <= 1e-10 * scale
        assert np.allclose(np.sort(lam.real), np.linalg.eigvalsh(A),
                           rtol=0, atol=1e-12 * scale)

    def test_defective_matrix(self):
        # no eigenvector basis exists; the Schur form still does
        lam = schur_diagonal(np.array([[1.0, 1.0], [0.0, 1.0]]))
        assert np.allclose(lam, [1.0, 1.0])


class TestFft:
    def test_delta_transforms_to_constant(self):
        e1 = np.zeros(4)
        e1[0] = 1.0
        v = fft(e1)
        assert np.allclose(v, np.ones(4))

    def test_cyclic_shift_spectrum(self):
        # first column of the 4x4 cyclic down-shift is e_2
        col = np.zeros(4)
        col[1] = 1.0
        pi = circulant_eigenvalues(col)
        roots = np.exp(-2j * np.pi * np.arange(4) / 4)
        key = lambda z: (round(z.real, 9), round(z.imag, 9))
        assert sorted(map(key, pi)) == sorted(map(key, roots))

    def test_import_loads_no_scipy_fft(self):
        # the transforms are numpy.fft's: importing scipy.fft, and the
        # scipy.special it pulls in, would only lengthen every start-up
        code = ("import sys, evosylv; "
                "print(sorted({'scipy.fft', 'scipy.special'} & set(sys.modules)))")
        path = [os.path.dirname(os.path.dirname(evosylv.__file__)),
                os.environ.get("PYTHONPATH", "")]
        out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                             env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
                             check=True)
        assert out.stdout.strip() == "[]"

    def test_roundtrip(self):
        v = rng.standard_normal(12) + 1j * rng.standard_normal(12)
        assert np.linalg.norm(ifft(fft(v)) - v) < 1e-12 * np.linalg.norm(v)

    @given(st.integers(min_value=1, max_value=97), st.integers(0, 2**31))
    @settings(max_examples=30, deadline=None)
    def test_circulant_diagonalization_identity(self, ell, seed):
        # the contract: C x = ifft(fft(C e_1) * fft(x)) for any circulant,
        # any length (primes included)
        r = np.random.default_rng(seed)
        col = r.standard_normal(ell)
        C = np.empty((ell, ell))
        for k in range(ell):
            C[:, k] = np.roll(col, k)
        x = r.standard_normal(ell)
        lhs = C @ x
        rhs = ifft(circulant_eigenvalues(col) * fft(x))
        assert np.abs(rhs.imag).max() <= 1e-12 * max(1.0, np.abs(lhs).max())
        assert np.linalg.norm(lhs - rhs.real) <= 1e-12 * max(1.0, np.linalg.norm(x) * np.linalg.norm(col) * ell)


class TestSparse:
    def test_scaled_identity(self):
        X = sparse_solve(sparse_factorize(2.0 * sp.identity(5, format="csr")), np.eye(5))
        assert np.allclose(X, 0.5 * np.eye(5))

    def test_tridiagonal_residual(self):
        n = 16
        main = np.full(n, 2.0)
        off = np.full(n - 1, -1.0)
        A = sp.diags([off, main, off], [-1, 0, 1], format="csr")
        e1 = np.zeros(n)
        e1[0] = 1.0
        x = sparse_solve(sparse_factorize(A), e1)
        assert np.linalg.norm(A @ x - e1) < 1e-10 * np.linalg.norm(x) * 4

    def test_many_rhs_reuse(self):
        A = sp.random(30, 30, density=0.2, random_state=7) + 10 * sp.identity(30)
        fact = sparse_factorize(A)
        B = rng.standard_normal((30, 4))
        X = sparse_solve(fact, B)
        assert np.linalg.norm(A @ X - B) < 1e-10 * np.linalg.norm(X) * np.abs(A).sum()

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrix):
            sparse_factorize(sp.csr_matrix((2, 2)))
        with pytest.raises(SingularMatrix):
            sparse_factorize(sp.csr_matrix(np.array([[1.0, 1.0], [1.0, 1.0]])))
        with pytest.raises(SingularMatrix):
            sparse_factorize(sp.csr_matrix(np.array([[1.0, 2.0], [0.0, 0.0]])))

    def test_symmetric_matrix_gets_less_fill(self):
        L, _ = interior_laplacian(20)
        A = L + 30.0 * sp.identity(L.shape[0], format="csc")
        fact = sparse_factorize(A)
        plain = spla.splu(A)
        assert fact.L.nnz + fact.U.nnz < plain.L.nnz + plain.U.nnz
        b = np.random.default_rng(5).standard_normal(A.shape[0])
        x = sparse_solve(fact, b)
        assert np.linalg.norm(A @ x - b) <= 1e-12 * np.linalg.norm(b)

    def test_symmetric_indefinite_solves(self):
        # shift midway between two eigenvalues a quarter into the spectrum
        L, mu = interior_laplacian(20)
        lam = np.unique(np.round(np.add.outer(mu, mu).ravel(), 8))
        k = len(lam) // 4
        A = L - 0.5 * (lam[k] + lam[k + 1]) * sp.identity(L.shape[0], format="csc")
        b = np.random.default_rng(6).standard_normal(A.shape[0])
        x = sparse_solve(sparse_factorize(A), b)
        assert np.linalg.norm(A @ x - b) <= 1e-10 * np.linalg.norm(b)

    def test_nonsymmetric_keeps_default_ordering(self):
        spec = get_preset("example3", 16, 8, epsilon=0.1)
        A = assemble_space_operator(spec).interior().matrix
        assert (A != A.T).nnz > 0
        assert np.array_equal(sparse_factorize(A).perm_c, spla.splu(sp.csc_matrix(A)).perm_c)


def fill(fact):
    lu = getattr(fact, "lu", fact)
    return lu.L.nnz + lu.U.nnz


class TestSharedAnalysis:
    """One analysis, many shifts: each factorization must solve as well as,
    and (with the pivots of a definite shift) fill exactly like, a fresh
    factorization of the shifted matrix."""

    def check_shifts(self, analysis, shifts, same_fill=True):
        A = analysis.matrix
        I = sp.identity(A.shape[0], format="csc")
        b = np.random.default_rng(8).standard_normal((A.shape[0], 2))
        for shift in shifts:
            reused = analysis.order is not None
            fact = sparse_factorize(analysis, shift)
            assert isinstance(fact, ReorderedLU) == reused
            M = A - shift * I
            x = sparse_solve(fact, b)
            assert np.linalg.norm(M @ x - b) <= 1e-12 * np.linalg.norm(b)
            if same_fill:
                assert fill(fact) == fill(sparse_factorize(M))

    def test_heat_poles_and_an_indefinite_shift(self):
        L, mu = interior_laplacian(30)
        s_min, s_max = 2 * mu.min(), 2 * mu.max()
        analysis = SparseAnalysis(L)
        assert analysis.symmetric
        self.check_shifts(analysis, -np.geomspace(s_min, s_max, 5))
        # off-diagonal pivots of an indefinite shift are chosen among
        # equal-magnitude candidates by row number, which the reordering
        # changes, so only the solve is compared
        lam = np.unique(np.round(np.add.outer(mu, mu).ravel(), 8))
        k = len(lam) // 3
        self.check_shifts(analysis, [0.5 * (lam[k] + lam[k + 1])], same_fill=False)

    def test_nonsymmetric_example3_reuses_its_order(self):
        spec = get_preset("example3", 24, 8, epsilon=0.01)
        A = sp.csc_matrix(assemble_space_operator(spec).interior().matrix)
        s_max = abs(A).sum(axis=1).max()
        analysis = SparseAnalysis(A)
        assert not analysis.symmetric
        self.check_shifts(analysis, [0.0, -1.0, -0.01 * s_max, -s_max])
        assert np.array_equal(analysis.order, np.argsort(spla.splu(A).perm_c))

    @pytest.mark.parametrize("transpose", [False, True])
    def test_zero_row_after_reuse_is_singular(self, transpose, monkeypatch):
        # the boundary rows of the 1D heat operator Kbar hold only their
        # diagonal entry 1/(tau*beta). Shifted onto it, SuperLU reports a
        # singular factor but can corrupt the heap doing so (a segfault
        # later on), so the screen must reject the shift before splu runs.
        op = assemble_space_operator(get_preset("example1", 24, 8))
        A = op.matrix.T if transpose else op.matrix
        analysis = SparseAnalysis(A)
        sparse_factorize(analysis, -1.0)
        assert isinstance(sparse_factorize(analysis, 0.5 / op.tau_beta), ReorderedLU)

        def splu(*args, **kwargs):
            raise AssertionError("splu called on a matrix with a zero row or column")

        monkeypatch.setattr(kernels.spla, "splu", splu)
        with pytest.raises(SingularMatrix):
            sparse_factorize(analysis, 1.0 / op.tau_beta)
