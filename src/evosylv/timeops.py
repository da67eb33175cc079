"""Time-stepping operators: BDF coefficient tables and the lower-shift matrix.

The all-at-once system couples time steps through Sigma = sum_j alpha_j
Sigma_j, where Sigma_j has ones on the j-th subdiagonal. Sigma differs from a
circulant C_s only by a rank-s block in the upper-right corner; the circulant
eigenvalues (via FFT of its first column) drive the fast inner solver.
"""

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np
import scipy.sparse as sp

from .errors import TooFewSteps, UnsupportedOrder
from .kernels import circulant_eigenvalues

# Exact coefficient table for BDF orders 1..6; conversion to float happens
# once, in bdf_coefficients. Sign convention: u_k - sum_j alpha_j u_{k-j}
# = tau*beta*(f_k - K u_k), i.e. the alphas appear with positive sign on the
# right-hand side of the recursion.
_BDF_TABLE = {
    1: (Fraction(1), (Fraction(1),)),
    2: (Fraction(2, 3), (Fraction(4, 3), Fraction(-1, 3))),
    3: (Fraction(6, 11), (Fraction(18, 11), Fraction(-9, 11), Fraction(2, 11))),
    4: (Fraction(12, 25),
        (Fraction(48, 25), Fraction(-36, 25), Fraction(16, 25), Fraction(-3, 25))),
    5: (Fraction(60, 137),
        (Fraction(300, 137), Fraction(-300, 137), Fraction(200, 137),
         Fraction(-75, 137), Fraction(12, 137))),
    6: (Fraction(60, 147),
        (Fraction(360, 147), Fraction(-450, 147), Fraction(400, 147),
         Fraction(-225, 147), Fraction(72, 147), Fraction(-10, 147))),
}


@dataclass(frozen=True)
class BdfScheme:
    """Backward differentiation formula of order s."""

    s: int
    beta: float
    alphas: np.ndarray


def bdf_coefficients(s):
    """Coefficients (beta, alpha_1..alpha_s) of the order-s BDF, s in 1..6."""
    if s not in _BDF_TABLE:
        raise UnsupportedOrder(f"BDF order must be in 1..6, got {s}")
    beta, alphas = _BDF_TABLE[s]
    return BdfScheme(s=s, beta=float(beta),
                     alphas=np.array([float(a) for a in alphas]))


@dataclass
class TimeOperator:
    """The ell x ell time-coupling matrix and its circulant splitting.

    sigma = C_s - corr_left @ corr_alpha @ corr_right.T, where C_s is the
    circulant completion of sigma and the correction has rank s. circ_eigs
    holds fft(C_s e_1), the eigenvalues of C_s.
    """

    ell: int
    scheme: BdfScheme
    sigma: sp.csr_matrix
    circ_eigs: np.ndarray
    corr_left: np.ndarray = field(repr=False)
    corr_alpha: np.ndarray = field(repr=False)
    corr_right: np.ndarray = field(repr=False)


def _alpha_toeplitz(alphas):
    """Upper-triangular Toeplitz alpha_s with (i, q) entry alpha_{s-q+i}."""
    s = len(alphas)
    A = np.zeros((s, s))
    for i in range(s):
        for q in range(i, s):
            A[i, q] = alphas[s - 1 - q + i]
    return A


def build_time_operator(s, ell):
    """Assemble sigma = sum_j alpha_j Sigma_j and its circulant data."""
    scheme = bdf_coefficients(s)
    if ell <= s:
        raise TooFewSteps(f"need ell > s, got ell={ell}, s={s}")
    diags = [np.full(ell - j, scheme.alphas[j - 1]) for j in range(1, s + 1)]
    sigma = sp.diags(diags, offsets=[-j for j in range(1, s + 1)],
                     shape=(ell, ell), format="csr")
    col = np.zeros(ell)
    col[1:s + 1] = scheme.alphas
    circ_eigs = circulant_eigenvalues(col)
    corr_left = np.zeros((ell, s))
    corr_left[np.arange(s), np.arange(s)] = 1.0
    corr_right = np.zeros((ell, s))
    corr_right[np.arange(ell - s, ell), np.arange(s)] = 1.0
    return TimeOperator(ell=ell, scheme=scheme, sigma=sigma,
                        circ_eigs=circ_eigs, corr_left=corr_left,
                        corr_alpha=_alpha_toeplitz(scheme.alphas),
                        corr_right=corr_right)
