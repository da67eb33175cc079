from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from evosylv.errors import TooFewSteps, UnsupportedOrder
from evosylv.kernels import fft, ifft
from evosylv.timeops import bdf_coefficients, build_time_operator

from helpers import alphas_exact, beta_exact

rng = np.random.default_rng(77)


def circulant_dense(top):
    """Dense circulant completion C_s of sigma, built column by column."""
    col = np.zeros(top.ell)
    col[1:top.scheme.s + 1] = top.scheme.alphas
    C = np.empty((top.ell, top.ell))
    for k in range(top.ell):
        C[:, k] = np.roll(col, k)
    return C


def test_bdf1():
    scheme = bdf_coefficients(1)
    assert scheme.beta == 1.0
    assert np.allclose(scheme.alphas, [1.0])


def test_bdf2():
    scheme = bdf_coefficients(2)
    assert beta_exact(scheme) == Fraction(2, 3)
    assert alphas_exact(scheme) == (Fraction(4, 3), Fraction(-1, 3))


def test_bdf6():
    scheme = bdf_coefficients(6)
    assert beta_exact(scheme) == Fraction(60, 147)
    expected = (360, -450, 400, -225, 72, -10)
    assert alphas_exact(scheme) == tuple(Fraction(a, 147) for a in expected)


@pytest.mark.parametrize("s", range(1, 7))
def test_bdf_consistency(s):
    # sum of the alphas is exactly one for every order
    assert sum(alphas_exact(bdf_coefficients(s))) == 1


@pytest.mark.parametrize("s", [0, 7, -1])
def test_unsupported_order(s):
    with pytest.raises(UnsupportedOrder):
        bdf_coefficients(s)


def test_shift_structure():
    top = build_time_operator(1, 3)
    assert np.allclose(top.sigma.T @ np.array([1.0, 2.0, 3.0]), [2.0, 3.0, 0.0])


def test_cyclic_shift_eigenvalues():
    top = build_time_operator(1, 4)
    roots = np.exp(-2j * np.pi * np.arange(4) / 4)
    key = lambda z: (round(z.real, 9), round(z.imag, 9))
    assert sorted(map(key, top.circ_eigs)) == sorted(map(key, roots))


def test_bdf2_circulant_reconstruction():
    top = build_time_operator(2, 6)
    a = top.scheme.alphas
    C = top.sigma.toarray() + top.corr_left @ top.corr_alpha @ top.corr_right.T
    first_col = np.zeros(6)
    first_col[1], first_col[2] = a[0], a[1]
    expected = np.empty((6, 6))
    for k in range(6):
        expected[:, k] = np.roll(first_col, k)
    assert np.allclose(C, expected)


def test_too_few_steps():
    with pytest.raises(TooFewSteps):
        build_time_operator(3, 3)


@pytest.mark.parametrize("s,ell", [(1, 8), (2, 12), (4, 17), (6, 25)])
def test_circulant_action_identity(s, ell):
    top = build_time_operator(s, ell)
    C = circulant_dense(top)
    x = rng.standard_normal(ell)
    y = ifft(top.circ_eigs * fft(x))
    assert np.abs(y.imag).max() <= 1e-12 * max(1.0, np.abs(y.real).max())
    assert np.linalg.norm(C @ x - y.real) <= 1e-12 * max(1.0, np.linalg.norm(x))


@given(st.integers(1, 6), st.integers(0, 40))
@settings(max_examples=25, deadline=None)
def test_correction_rank(s, extra):
    ell = 2 * s + 1 + extra
    top = build_time_operator(s, ell)
    diff = circulant_dense(top) - top.sigma.toarray()
    if ell > 2 * s:
        assert np.linalg.matrix_rank(diff, tol=1e-10) == s


def test_alpha_toeplitz_structure():
    top = build_time_operator(4, 12)
    A = top.corr_alpha
    a = top.scheme.alphas
    assert np.allclose(A, np.triu(A))
    for k in range(4):
        diag = np.diag(A, k)
        assert np.allclose(diag, a[3 - k])


def test_sigma_alphas_on_subdiagonals():
    top = build_time_operator(3, 9)
    S = top.sigma.toarray()
    a = top.scheme.alphas
    for j in range(1, 4):
        assert np.allclose(np.diag(S, -j), a[j - 1])
    assert np.allclose(np.triu(S), 0.0)
