import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from evosylv.errors import NonDiagonalizable, SingularMatrix
from evosylv.kernels import (circulant_eigenvalues, dense_eig, fft, ifft,
                             sparse_factorize, sparse_solve)

rng = np.random.default_rng(1234)


class TestDenseEig:
    def test_diagonal(self):
        ed = dense_eig(np.diag([1.0, 2.0, 3.0]))
        assert np.allclose(sorted(ed.lambdas.real), [1, 2, 3])
        assert np.abs(ed.lambdas.imag).max() < 1e-14
        assert np.allclose(np.abs(ed.S), np.eye(3))

    def test_rotation_matrix(self):
        ed = dense_eig(np.array([[0.0, -1.0], [1.0, 0.0]]))
        assert np.allclose(sorted(ed.lambdas.imag), [-1, 1])
        assert np.abs(ed.lambdas.real).max() < 1e-14

    def test_reconstruction_residual(self):
        # small heat projection shape: identity plus tau * symmetric stencil
        T = rng.standard_normal((4, 4))
        T = T + T.T + 8 * np.eye(4)
        A = np.eye(4) + 0.05 * T
        ed = dense_eig(A)
        res = np.linalg.norm(A @ ed.S - ed.S @ np.diag(ed.lambdas))
        assert res <= 1e-10 * np.linalg.norm(A)
        assert np.linalg.norm(ed.S @ ed.S_inv - np.eye(4)) <= 1e-8 * ed.cond_estimate

    def test_conjugate_pairs(self):
        A = rng.standard_normal((6, 6))
        ed = dense_eig(A)
        lams = ed.lambdas
        assert np.allclose(sorted(lams.real), sorted(np.conj(lams).real))
        assert np.allclose(sorted(lams.imag), sorted(-lams.imag))

    def test_symmetric_real_eigenvalues(self):
        A = rng.standard_normal((8, 8))
        A = A + A.T
        ed = dense_eig(A)
        scale = np.abs(ed.lambdas.real).max()
        assert np.abs(ed.lambdas.imag).max() <= 1e-10 * scale

    def test_nondiagonalizable_detected(self):
        jordan = np.array([[1.0, 1.0], [0.0, 1.0]])
        with pytest.raises(NonDiagonalizable):
            dense_eig(jordan, max_cond=1e12)


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
