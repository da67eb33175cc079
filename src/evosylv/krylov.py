"""Block extended and rational Arnoldi bases with deflation.

Both basis classes keep, alongside the orthonormal columns V:

* ``KV``      the cached products K @ V with K = op.matrix (drives the
              explicit projection T = V^T K V and the cheap residuals),
* ``T_full``  the explicit projection, grown incrementally.

The solvers build these bases for the operator of the interior unknowns,
so V has no boundary rows and the projected coefficient is I + tau*beta*T.
The projection and the residuals are formed from KV and T_full; no
orthogonalization coefficients are recorded.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import Breakdown, ShiftSingular, SingularMatrix, SingularOperator
from .kernels import SparseAnalysis, sparse_factorize, sparse_solve

DEFLATION_TOL = 1e-12


def _cgs2_append(V, cand, deftol):
    """Orthogonalize candidate columns against V (and each other) with two
    classical Gram-Schmidt passes; drop columns whose remainder falls below
    deftol times the candidate block norm.

    Returns (new columns, accepted column indices).
    """
    n = V.shape[0]
    scale = np.linalg.norm(cand)
    newcols, accepted = [], []
    for j in range(cand.shape[1]):
        c = cand[:, j].copy()
        for _ in range(2):
            if V.shape[1]:
                c -= V @ (V.T @ c)
            for q in newcols:
                c -= (q @ c) * q
        nrm = np.linalg.norm(c)
        if nrm > deftol * scale:
            newcols.append(c / nrm)
            accepted.append(j)
    Vnew = np.column_stack(newcols) if newcols else np.zeros((n, 0))
    return Vnew, accepted


class _ProjectionState:
    """Shared bookkeeping of V, KV and T_full."""

    def __init__(self, op, deftol):
        self.op = op
        self.deftol = deftol
        self.V = np.zeros((op.size, 0))
        self.KV = np.zeros((op.size, 0))
        self.T_full = np.zeros((0, 0))
        self.block_bounds = [0]

    @property
    def width(self):
        return self.block_bounds[-1]

    @property
    def n_blocks(self):
        return len(self.block_bounds) - 1

    def append_block(self, Vnew, KVnew=None):
        r0 = self.width
        if KVnew is None:
            KVnew = self.op.matrix @ Vnew
        r1 = r0 + Vnew.shape[1]
        T = np.zeros((r1, r1))
        T[:r0, :r0] = self.T_full
        T[:r0, r0:] = self.V.T @ KVnew
        T[r0:, :r0] = Vnew.T @ self.KV
        T[r0:, r0:] = Vnew.T @ KVnew
        self.T_full = T
        self.V = np.hstack([self.V, Vnew])
        self.KV = np.hstack([self.KV, KVnew])
        self.block_bounds.append(r1)

    def projections(self, m):
        """(T_m, coupling) for the first m blocks.

        The coupling is the next-block row slab of the projection,
        V_{m+1}^T K V_m; empty when block m+1 does not exist (invariant
        subspace after breakdown).
        """
        r = self.block_bounds[m]
        T_m = self.T_full[:r, :r]
        if m + 1 <= self.n_blocks:
            rn = self.block_bounds[m + 1]
            coupling = self.T_full[r:rn, :r]
        else:
            coupling = np.zeros((0, r))
        return T_m, coupling


class _Basis:
    """The orthonormal columns, their count and their blocks, read from the
    basis's ``state``."""

    @property
    def width(self):
        return self.state.width

    @property
    def n_blocks(self):
        return self.state.n_blocks

    @property
    def V(self):
        return self.state.V


class ExtendedKrylovBasis(_Basis):
    """Block basis of EK_m(K, B) = span[B, K^{-1}B, K B, ...].

    Each step multiplies the direct half of the previous block by K and
    the inverse half by K^{-1}, then orthogonalizes twice against the
    whole basis. Deflated directions shrink the corresponding half.
    """

    def __init__(self, op, B, deflation_tol=DEFLATION_TOL):
        self.state = _ProjectionState(op, deflation_tol)
        self.op = op
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        if np.linalg.norm(B) == 0.0:
            raise ValueError("starting block must be nonzero")
        try:
            Binv = op.solve(B)
        except SingularMatrix as exc:
            raise SingularOperator(str(exc)) from exc
        cand = np.hstack([B, Binv])
        Vnew, accepted = _cgs2_append(self.state.V, cand, deflation_tol)
        if Vnew.shape[1] == 0:
            raise Breakdown("starting block is zero")
        w = B.shape[1]
        self._splits = [sum(1 for j in accepted if j < w)]
        self.state.append_block(Vnew)

    def projections(self, m):
        return self.state.projections(m)

    def step(self):
        """Append block m+1; raises Breakdown when nothing new survives."""
        st = self.state
        lo, hi = st.block_bounds[-2], st.block_bounds[-1]
        ndir = self._splits[-1]
        parts = []
        if ndir > 0:
            parts.append(st.KV[:, lo:lo + ndir])  # K @ direct half, cached
        if hi - lo - ndir > 0:
            parts.append(self.op.solve(st.V[:, lo + ndir:hi]))
        if not parts:
            raise Breakdown("previous block is empty")
        n_dir_cand = parts[0].shape[1] if ndir > 0 else 0
        cand = np.hstack(parts)
        Vnew, accepted = _cgs2_append(st.V, cand, st.deftol)
        if Vnew.shape[1] == 0:
            raise Breakdown("new block entirely deflated: invariant subspace")
        self._splits.append(sum(1 for j in accepted if j < n_dir_cand))
        st.append_block(Vnew)


class RationalKrylovBasis(_Basis):
    """Block rational Krylov basis: each step applies (K - xi I)^{-1} to the
    previous block and orthogonalizes twice against the whole basis.

    ``analysis`` is the one :class:`SparseAnalysis` of K that every pole's
    factorization of K - xi I reuses."""

    def __init__(self, op, B, deflation_tol=DEFLATION_TOL):
        self.state = _ProjectionState(op, deflation_tol)
        self.analysis = SparseAnalysis(op.matrix)
        B = np.asarray(B, dtype=float)
        if B.ndim == 1:
            B = B[:, None]
        if np.linalg.norm(B) == 0.0:
            raise ValueError("starting block must be nonzero")
        Vnew, _ = _cgs2_append(self.state.V, B, deflation_tol)
        if Vnew.shape[1] == 0:
            raise Breakdown("starting block is zero")
        self.state.append_block(Vnew)

    def projections(self, m):
        return self.state.projections(m)

    def step(self, shift):
        """Append (K - shift I)^{-1} (last block), orthonormalized."""
        st = self.state
        lo, hi = st.block_bounds[-2], st.block_bounds[-1]
        try:
            fact = sparse_factorize(self.analysis, shift)
            cand = sparse_solve(fact, st.V[:, lo:hi])
        except SingularMatrix as exc:
            raise ShiftSingular(f"shift {shift} hits the spectrum") from exc
        Vnew, _ = _cgs2_append(st.V, cand, st.deftol)
        if Vnew.shape[1] == 0:
            raise Breakdown("new block entirely deflated: invariant subspace")
        st.append_block(Vnew)


# --- adaptive shifts ---------------------------------------------------------


@dataclass
class ShiftState:
    """Spectral interval estimates plus the shift/Ritz history."""

    s_min: float
    s_max: float
    used_shifts: list = field(default_factory=list)
    ritz_values: np.ndarray = None


def spectral_bounds(op, seed=0, iterations=12, analysis=None):
    """[s_min, s_max] for the real parts of the spectrum of K.

    A Kronecker sum (``op.factors`` set, d = 1 included) has the sums of
    its factors' eigenvalues as eigenvalues, so the interval is exact and
    costs d small dense eigenvalue problems: ``eigvalsh`` for symmetric
    factors, the real parts of ``eig`` for nonsymmetric ones. Otherwise the
    upper end comes from Gershgorin rows of the assembled matrix and the
    lower end from a few inverse power iterations (Rayleigh quotient, real
    part) with an LU of K made through ``analysis`` when one is given; that
    LU is dropped on return.
    """
    if op.factors is not None:
        lo = s_max = 0.0
        for F in op.factors:
            F = F.toarray()
            mu = np.linalg.eigvalsh(F) if np.array_equal(F, F.T) else np.linalg.eigvals(F).real
            lo += mu.min()
            s_max += mu.max()
    else:
        A = op.matrix.tocsr()
        diag = A.diagonal()
        absrow = np.asarray(np.abs(A).sum(axis=1)).ravel()
        s_max = float(np.max(diag + (absrow - np.abs(diag))))
        fact = sparse_factorize(op.matrix if analysis is None else analysis)
        rng = np.random.default_rng(seed)
        v = rng.standard_normal(A.shape[0])
        v /= np.linalg.norm(v)
        for _ in range(iterations):
            w = sparse_solve(fact, v)
            v = w / np.linalg.norm(w)
        lo = v @ (A @ v)
    s_min = max(abs(float(lo)), 1e-12 * s_max)
    s_min = min(s_min, 0.5 * s_max)
    return s_min, float(s_max)


def next_shift(state, grid_points=1000):
    """Greedy adaptive shift: maximize prod|x - xi_used| / prod|x - ritz|
    over log-spaced candidates on the mirrored spectral interval
    [-s_max, -s_min]; the first shift is -s_min.

    The poles sit on the far side of the spectrum because the time-coupling
    matrix is nilpotent: the solution columns are inverse powers of the full
    coefficient matrix, i.e. resolvents of K at negative points, and
    in-spectrum poles stall the method.

    The candidates are log-spaced because the pole function varies on a
    log scale: a linear grid spaces its points (s_max - s_min)/grid_points
    apart, which for 2D heat at n=192 leaves (s_min, 15 s_min) without a
    candidate, exactly where the low end of the spectrum needs poles.
    """
    if not state.used_shifts:
        return -state.s_min
    xs = -np.geomspace(state.s_min, state.s_max, grid_points)
    with np.errstate(divide="ignore"):
        logf = np.zeros_like(xs)
        for xi in state.used_shifts:
            logf += np.log(np.abs(xs - xi))
        if state.ritz_values is not None and len(state.ritz_values):
            for th in state.ritz_values:
                logf -= np.log(np.abs(xs - th))
    for xi in state.used_shifts:
        logf[np.isclose(xs, xi, rtol=0, atol=1e-14 * max(1.0, abs(xi)))] = -np.inf
    return float(xs[int(np.argmax(logf))])
