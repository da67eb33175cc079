"""Numerical primitives with fixed contracts.

Thin wrappers around LAPACK/SuperLU/numpy.fft that pin down the conventions
the rest of the package relies on:

* ``dense_eig``      complex Schur form A = Q T Q^H of a small (possibly
                     nonsymmetric) real matrix: Q unitary, T upper
                     triangular with the eigenvalues on its diagonal,
* ``fft`` / ``ifft`` transform pair satisfying the circulant diagonalization
                     identity C = F^{-1} diag(fft(C e_1)) F for any length,
* ``sparse_factorize`` / ``sparse_solve``  reusable sparse LU of A - shift*I;
                     the column ordering is chosen from the matrix's
                     symmetry (a symmetric matrix is ordered on A + A^T and
                     pivoted on the diagonal, which keeps its fill low),
* ``SparseAnalysis`` what those LUs share for one A and any shift: the
                     symmetry decision, the zero-row/column screen data and
                     the fill-reducing order of the first factorization.

The functions are pure, except that a ``SparseAnalysis`` learns its order
from the first factorization made through it.
"""

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import SingularMatrix

#: Largest matrix order accepted by dense_eig.
DENSE_EIG_BOUND = 4096


def dense_eig(A):
    """Complex Schur form A = Q T Q^H of a small dense real matrix.

    Returns ``(T, Q)``: T upper triangular with the eigenvalues of A on its
    diagonal, Q unitary. The real Schur form (LAPACK gees: Hessenberg
    reduction + shifted QR) is converted by ``rsf2csf``, which at order
    1728 is faster than a complex Schur or an ``eig`` + ``inv``. Q is
    unitary whatever A is, so no eigenvector conditioning needs guarding;
    the name is that of the eigendecomposition this replaced, under which
    the benchmark's tracing and its ``kernels.dense_eig_*`` metrics find it.
    """
    A = np.asarray(A, dtype=float)
    k = A.shape[0]
    if A.shape != (k, k):
        raise ValueError(f"expected square matrix, got {A.shape}")
    if k > DENSE_EIG_BOUND:
        raise ValueError(f"matrix order {k} exceeds dense eig bound {DENSE_EIG_BOUND}")
    return scipy.linalg.rsf2csf(*scipy.linalg.schur(A))


def fft(v, axis=-1):
    """Discrete Fourier transform, any length (mixed radix / Bluestein)."""
    return np.fft.fft(v, axis=axis)


def ifft(v, axis=-1):
    """Inverse of :func:`fft`."""
    return np.fft.ifft(v, axis=axis)


def circulant_eigenvalues(first_column):
    """Eigenvalues pi of the circulant with the given first column.

    The diagonalization identity reads C = F^{-1} diag(pi) F with
    pi = fft(C e_1); equivalently C x = ifft(pi * fft(x)).
    """
    return fft(np.asarray(first_column, dtype=float))


#: Diagonal pivot threshold for symmetric matrices: a diagonal pivot is kept
#: unless it is below this fraction of its column's largest entry, so
#: threshold pivoting still guards symmetric indefinite matrices.
SYMMETRIC_PIVOT_THRESH = 0.1

#: SuperLU supernode relaxation and panel size for every factorization.
#: Against SuperLU's defaults, a shifted 2D heat interior matrix (n=192)
#: factors about 14 % faster; the example3 interior operator (n=96) and
#: the 3D heat interior operator (n=32) factor no slower.
SUPERLU_RELAX = 20
SUPERLU_PANEL_SIZE = 10


class SparseAnalysis:
    """What every LU of A - shift*I shares, worked out once from A.

    * ``symmetric``: whether A equals its transpose (then so does every
      shifted matrix), which picks SuperLU's symmetric mode;
    * ``diagonal``, ``off_row``, ``off_col``: the diagonal and the absolute
      off-diagonal row and column sums, from which the zero-row/column
      screen of any shift costs O(n);
    * ``order``: the fill-reducing order, taken from the first
      factorization; later shifts factor the symmetrically permuted matrix
      in its natural order. Permuting rows along with columns keeps A's
      diagonal on the diagonal, so SuperLU still prefers it, and with
      diagonal pivots (any shift off the spectrum's side, such as a pole
      of the rational method) the fill is that of a fresh ordering. An
      off-diagonal pivot is picked among equal-magnitude candidates by row
      number, so there the fill may differ.
    """

    def __init__(self, A):
        A = sp.csc_matrix(A)
        if A.shape[0] != A.shape[1]:
            raise ValueError(f"expected square matrix, got {A.shape}")
        self.matrix = A
        self.symmetric = (A != A.T).nnz == 0
        self.diagonal = A.diagonal()
        off = abs(A - sp.diags(self.diagonal, format="csc"))
        self.off_row = np.asarray(off.sum(axis=1)).ravel()
        self.off_col = np.asarray(off.sum(axis=0)).ravel()
        self.order = None


class ReorderedLU:
    """LU of A[order][:, order]; ``solve`` solves with A itself."""

    def __init__(self, lu, order):
        self.lu, self.order = lu, order

    def solve(self, B):
        X = np.empty_like(B)
        X[self.order] = self.lu.solve(B[self.order])
        return X


def sparse_factorize(A, shift=0.0):
    """LU-factorize A - shift*I; the result is reusable.

    ``A`` is a sparse matrix or a :class:`SparseAnalysis` of one. A matrix
    is analysed afresh; an analysis passed for several shifts orders its
    matrix only once, and later factorizations skip the symmetry test and
    the ordering (they return a :class:`ReorderedLU`, the first one a
    SuperLU object).

    The ordering is chosen from the matrix itself. A matrix equal to its
    transpose is factored in SuperLU's symmetric mode: minimum degree on
    A + A^T with diagonal pivots preferred (Li, ACM TOMS 2005), which on 2D
    heat stencils gives about 40 % less fill than the default COLAMD
    ordering. A nonsymmetric matrix gets the default ``splu`` ordering.

    Raises SingularMatrix when the matrix is singular.
    """
    analysis = A if isinstance(A, SparseAnalysis) else SparseAnalysis(A)
    # SuperLU may crash instead of reporting singularity when a whole row or
    # column is zero, e.g. a shift equal to a boundary-row eigenvalue
    zero_diag = analysis.diagonal == shift
    if np.any(zero_diag & ((analysis.off_row == 0) | (analysis.off_col == 0))):
        raise SingularMatrix("matrix has a zero row or column")
    M = analysis.matrix
    if shift:
        M = M - shift * sp.identity(M.shape[0], format="csc")
    kwargs = dict(relax=SUPERLU_RELAX, panel_size=SUPERLU_PANEL_SIZE)
    if analysis.symmetric:
        kwargs.update(permc_spec="MMD_AT_PLUS_A",
                      diag_pivot_thresh=SYMMETRIC_PIVOT_THRESH,
                      options=dict(SymmetricMode=True))
    order = analysis.order
    if order is not None:
        M = M[order][:, order]
        kwargs["permc_spec"] = "NATURAL"
    try:
        lu = spla.splu(M, **kwargs)
    except RuntimeError as exc:
        raise SingularMatrix(str(exc)) from exc
    if order is not None:
        return ReorderedLU(lu, order)
    analysis.order = np.argsort(lu.perm_c)
    return lu


def sparse_solve(fact, B):
    """Solve A X = B using a factorization from :func:`sparse_factorize`."""
    B = np.asarray(B, dtype=float)
    squeeze = B.ndim == 1
    X = fact.solve(B if not squeeze else B[:, None])
    if not np.all(np.isfinite(X)):
        raise SingularMatrix("solve produced non-finite values")
    return X[:, 0] if squeeze else X
