"""Block extended and rational Arnoldi bases with deflation.

Both basis classes keep, in their ``state``, the orthonormal columns V in
panels, the explicit projection T_full = V^T K V, grown incrementally, and
the last block with its image under K (EKSM's next direct half). No K V is
cached: the new row block of T_full, V_new^T (K V_old), applies K to the
old basis panel by panel. The solvers build these bases for the operator
of the interior unknowns, so V has no boundary rows and the projected
coefficient is I + tau*beta*T. No orthogonalization coefficients are
recorded.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import Breakdown, ShiftSingular, SingularMatrix, SingularOperator
from .kernels import SparseAnalysis, sparse_factorize, sparse_solve

DEFLATION_TOL = 1e-12

#: Columns per storage panel of a basis.
PANEL_WIDTH = 16


def _cgs2_append(st, cand, deftol):
    """Orthogonalize candidate columns against the basis of ``st`` (and each
    other) with two classical Gram-Schmidt passes; drop columns whose
    remainder falls below deftol times the candidate block norm.

    Returns (new columns, accepted column indices).
    """
    scale = np.linalg.norm(cand)
    newcols, accepted = [], []
    for j in range(cand.shape[1]):
        c = cand[:, j].copy()
        for _ in range(2):
            if st.width:
                c -= st.v_dot(st.vt_dot(c, st.width))
            for q in newcols:
                c -= (q @ c) * q
        nrm = np.linalg.norm(c)
        if nrm > deftol * scale:
            newcols.append(c / nrm)
            accepted.append(j)
    Vnew = np.column_stack(newcols) if newcols else np.zeros((len(cand), 0))
    return Vnew, accepted


class _ProjectionState:
    """V in C-ordered panels of PANEL_WIDTH columns, T_full, and the last
    block with its image under K. A new block fills the last panel or opens
    the next one, so V grows without a copy; K applies to whole panels."""

    def __init__(self, op, deftol):
        self.op, self.deftol = op, deftol
        self.panels, self.block_bounds, self.T_full = [], [0], np.zeros((0, 0))

    @property
    def width(self):
        return self.block_bounds[-1]

    @property
    def n_blocks(self):
        return len(self.block_bounds) - 1

    def chunks(self, hi):
        """V[:, :hi] as a list of panel views."""
        return [P[:, :hi - lo] for lo, P in zip(range(0, hi, PANEL_WIDTH), self.panels)]

    def vt_dot(self, X, hi):
        """V[:, :hi]^T X."""
        return np.concatenate([P.T @ X for P in self.chunks(hi)])

    def v_dot(self, Y):
        """V[:, :r] Y with r = Y.shape[0]."""
        return sum(P @ Y[lo:lo + PANEL_WIDTH]
                   for lo, P in zip(range(0, len(Y), PANEL_WIDTH), self.chunks(len(Y))))

    def kv_rows(self, W, hi):
        """W^T (K V[:, :hi]); K takes whole panels, as a slice would be copied."""
        return np.hstack([W.T @ (self.op.matrix @ P)
                          for P in self.panels[:-(-hi // PANEL_WIDTH)]])[:, :hi]

    def append_block(self, Vnew):
        r0, k = self.width, Vnew.shape[1]
        KVnew = self.op.matrix @ Vnew
        T = np.zeros((r0 + k, r0 + k))
        T[:r0, :r0] = self.T_full
        if r0:
            T[:r0, r0:] = self.vt_dot(KVnew, r0)
            T[r0:, :r0] = self.kv_rows(Vnew, r0)
        T[r0:, r0:] = Vnew.T @ KVnew
        for j in range(k):
            p, c = divmod(r0 + j, PANEL_WIDTH)
            if p == len(self.panels):
                self.panels.append(np.zeros((len(Vnew), PANEL_WIDTH)))
            self.panels[p][:, c] = Vnew[:, j]
        self.T_full, self.last, self.K_last = T, Vnew, KVnew
        self.block_bounds.append(r0 + k)

    def projections(self, m):
        """(T_m, coupling) for the first m blocks.

        The coupling is the next-block row slab of the projection,
        V_{m+1}^T K V_m; empty when block m+1 does not exist (invariant
        subspace after breakdown).
        """
        r = self.block_bounds[m]
        rn = self.block_bounds[min(m + 1, self.n_blocks)]
        return self.T_full[:r, :r], self.T_full[r:rn, :r]


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
        """All columns as one array (a copy)."""
        return np.hstack(self.state.panels)[:, :self.width]


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
        Vnew, accepted = _cgs2_append(self.state, np.hstack([B, Binv]), deflation_tol)
        if Vnew.shape[1] == 0:
            raise Breakdown("starting block is zero")
        self._splits = [sum(1 for j in accepted if j < B.shape[1])]
        self.state.append_block(Vnew)

    def projections(self, m):
        return self.state.projections(m)

    def step(self):
        """Append block m+1; raises Breakdown when nothing new survives."""
        st, ndir = self.state, self._splits[-1]
        parts = [st.K_last[:, :ndir]]
        if st.last.shape[1] > ndir:
            parts.append(self.op.solve(st.last[:, ndir:]))
        Vnew, accepted = _cgs2_append(st, np.hstack(parts), st.deftol)
        if Vnew.shape[1] == 0:
            raise Breakdown("new block entirely deflated: invariant subspace")
        self._splits.append(sum(1 for j in accepted if j < ndir))
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
        Vnew, _ = _cgs2_append(self.state, B, deflation_tol)
        if Vnew.shape[1] == 0:
            raise Breakdown("starting block is zero")
        self.state.append_block(Vnew)

    def projections(self, m):
        return self.state.projections(m)

    def step(self, shift):
        """Append (K - shift I)^{-1} (last block), orthonormalized."""
        st = self.state
        try:
            fact = sparse_factorize(self.analysis, shift)
            cand = sparse_solve(fact, st.last)
        except SingularMatrix as exc:
            raise ShiftSingular(f"shift {shift} hits the spectrum") from exc
        Vnew, _ = _cgs2_append(st, cand, st.deftol)
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
