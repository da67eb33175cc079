"""Outer projection solvers and the fast inner solves.

The outer methods share one loop. It splits off the Dirichlet boundary
block, which ``assemble_rhs`` assembles from the sampled boundary data,
and works on the interior unknowns only: grow a Krylov basis of the
interior operator K_II, project onto it, solve the small equation in time,
and check a cheap residual-norm formula, which is exact because the Krylov
space of K_II gives an exact Arnoldi relation for I + tau*beta*K_II. The
boundary block is added back to the factored solution at the end. The
solvers differ only in the projection: extended (solve_eksm) or rational
(solve_rksm) Krylov on the whole interior, or one extended basis per
dimension (solve_eksm_separable). The inner projected equation

    (I + tau*beta*T_m) Y - Y sigma^T = rhs_left rhs_right^T

is solved through the circulant splitting of sigma: FFT diagonalizes the
circulant, the complex Schur form of the small coefficient matrix makes the
equation upper triangular, and each row, solved from the bottom up, absorbs
the rank-s corner correction with the Sherman-Morrison-Woodbury identity.
A unitary Schur factor needs no eigenvector-conditioning guard; the s x s
SMW systems of the rows are not checked for conditioning either. Only a
projected order above DENSE_EIG_BOUND takes the column-by-column recursion (one LU, ell
triangular solves), which also serves as the test oracle.
"""

import time
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp

from .discretization import (SpaceOperator, eliminate_boundary,
                             has_boundary_rows, kron_vectors)
from .errors import (IndexOutOfRange, NotSeparable, ResonantEigenvalue,
                     ShiftSingular, SingularProjectedMatrix)
from .kernels import DENSE_EIG_BOUND, dense_eig, fft, ifft
from .krylov import (Breakdown, ExtendedKrylovBasis, RationalKrylovBasis,
                     ShiftState, next_shift, spectral_bounds)

@dataclass
class ProjectedProblem:
    """Reduced Sylvester equation data: A_small Y - Y sigma^T = L R^T."""

    A_small: np.ndarray
    rhs_left: np.ndarray
    rhs_right: np.ndarray
    timeop: object


def inner_solve_sequential(prob):
    """Column recursion: one LU of A_small, then ell small solves.

    y_k = A^{-1} (rhs_k + sum_{j=1}^{min(s, k-1)} alpha_j y_{k-j}).
    """
    A = np.asarray(prob.A_small, dtype=float)
    r = A.shape[0]
    L = prob.rhs_right.shape[0]
    if r == 0:
        return np.zeros((0, L))
    scheme = prob.timeop.scheme
    s, alphas = scheme.s, scheme.alphas
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", scipy.linalg.LinAlgWarning)
        lu, piv = scipy.linalg.lu_factor(A)
    if np.abs(np.diag(lu)).min() == 0.0:
        raise SingularProjectedMatrix("projected coefficient matrix is singular")
    B = prob.rhs_left @ prob.rhs_right.T
    Y = np.empty((r, L))
    for k in range(L):
        b = B[:, k].copy()
        for j in range(1, min(s, k) + 1):
            b += alphas[j - 1] * Y[:, k - j]
        Y[:, k] = scipy.linalg.lu_solve((lu, piv), b)
    return Y


class SmwCache:
    """Transform data reusable across iterations of one outer solve.

    M = F[e_1..e_s], N = F^{-T}[e_{l-s+1}..e_l] alpha_s^T, plus the
    transformed right factor; all fixed once ell, s and rhs_right are known.
    """

    def __init__(self, timeop, rhs_right):
        self.FRT = fft(np.asarray(rhs_right, dtype=float), axis=0).T
        self.M = fft(timeop.corr_left, axis=0)
        self.N = ifft(timeop.corr_right, axis=0) @ timeop.corr_alpha.T
        self.NM = self.N[:, :, None] * self.M[:, None, :]


def inner_solve_fft_smw(prob, cache=None):
    """Solve the projected equation via complex Schur + FFT + SMW.

    With A_small = Q T Q^H and X = Q^H Y F^T (F the DFT), the equation reads
    T X - X diag(pi) + X N M^T = Q^H rhs_left (F rhs_right)^T. Row i, for
    all Fourier modes at once, is (T_ii - pi) x_i + (x_i N) M^T = g_i -
    sum_{j>i} T_ij x_j: a diagonal plus a rank-s corner, solved with one
    s x s SMW system per row. No loop over the ell columns. Raises
    ResonantEigenvalue when an eigenvalue of A_small meets a circulant
    eigenvalue, and SingularProjectedMatrix when a row's SMW system is
    singular (by the determinant lemma, only when A_small is).
    """
    timeop = prob.timeop
    A = np.asarray(prob.A_small, dtype=float)
    r = A.shape[0]
    L = prob.rhs_right.shape[0]
    if r == 0:
        return np.zeros((0, L))
    if cache is None:
        cache = SmwCache(timeop, prob.rhs_right)
    T, Q = dense_eig(A)
    lam = np.diag(T)
    pi = timeop.circ_eigs
    diff = lam[:, None] - pi[None, :]
    scale = max(np.abs(lam).max(), np.abs(pi).max(), 1.0)
    if np.abs(diff).min() < 1e-14 * scale:
        raise ResonantEigenvalue(
            "an eigenvalue of A_small collides with a circulant eigenvalue")
    H = 1.0 / diff
    Cb = np.tensordot(H, cache.NM, axes=(1, 0))        # (r, s, s)
    try:
        C_inv = np.linalg.inv(np.eye(timeop.scheme.s) + Cb)
    except np.linalg.LinAlgError as exc:
        raise SingularProjectedMatrix(f"SMW correction is singular: {exc}") from exc
    X = (Q.conj().T @ prob.rhs_left) @ cache.FRT
    _back_substitute(T, X, H, C_inv, cache, 0, r)
    X = ifft(X, axis=1)
    return Q.real @ X.real - Q.imag @ X.imag       # Y = Q X is real


def _back_substitute(T, X, H, C_inv, cache, lo, hi):
    """Overwrite rows lo..hi-1 of X with the solution of the triangular rows.

    Rows below hi are already solved and subtracted. The lower half is
    solved first and enters the upper half in one GEMM; blocks of at most
    8 rows go row by row, since their GEMMs are too small to pay off.
    """
    if hi - lo > 8:
        mid = (lo + hi) // 2
        _back_substitute(T, X, H, C_inv, cache, mid, hi)
        X[lo:mid] -= T[lo:mid, mid:hi] @ X[mid:hi]
        _back_substitute(T, X, H, C_inv, cache, lo, mid)
        return
    for i in range(hi - 1, lo - 1, -1):
        x = X[i]                                        # a view, updated in place
        x -= T[i, i + 1:hi] @ X[i + 1:hi]
        x *= H[i]
        x -= H[i] * (cache.M @ (C_inv[i] @ (x @ cache.N)))


def solve_projected(prob, cache):
    """FFT+SMW up to order DENSE_EIG_BOUND, the column recursion above it;
    returns the solution and the name of the path taken."""
    if prob.A_small.shape[0] > DENSE_EIG_BOUND:
        return inner_solve_sequential(prob), "sequential"
    return inner_solve_fft_smw(prob, cache=cache), "fft_smw"


# --- factored solutions and reports -------------------------------------------


@dataclass
class FactoredSolution:
    """U = (kron of bases) @ Y, never materialized unless asked."""

    layout: str       # 'full' | 'tensor2d' | 'tensor3d'
    bases: list
    Y: np.ndarray

    @property
    def ell(self):
        return self.Y.shape[1]


@dataclass
class SolveReport:
    iterations: int
    residual_history: list
    delta: float
    converged: bool
    basis_dims: list
    memory_units: int
    wall_time: float
    inner_solver: str


def extract_snapshot(sol, k):
    """Time slice k (1-based) of the approximate solution, factored form.

    Column k of Y, reshaped to one axis per basis (first axis fastest), is
    multiplied by each basis along its own axis.
    """
    L = sol.Y.shape[1]
    if not 1 <= k <= L:
        raise IndexOutOfRange(f"snapshot index {k} outside 1..{L}")
    T = sol.Y[:, k - 1].reshape([V.shape[1] for V in sol.bases], order="F")
    for i, V in enumerate(sol.bases):
        T = np.moveaxis(np.tensordot(V, T, axes=(1, i)), 0, i)
    return T.ravel(order="F")


def materialize(sol):
    """Dense n^d x ell solution matrix (desk-scale helper)."""
    return kron_vectors(sol.bases) @ sol.Y


def eksm_memory_units(m, width, nd, L):
    """Storage in vector units: 2(m+1)(p+1)(n^d + ell)."""
    return 2 * (m + 1) * width * (nd + L)


def rksm_memory_units(m, width, nd, L):
    """Storage in vector units: (m+1)(p+1)(n^d + ell)."""
    return (m + 1) * width * (nd + L)


def eksm_separable_memory_units(m, widths, n, L):
    """Tensorized storage: 2(m+1) sum_i p_i n + 2^d (m+1)^d prod_i p_i ell."""
    d = len(widths)
    prod = 1
    for w in widths:
        prod *= w
    return 2 * (m + 1) * sum(widths) * n + (2 ** d) * (m + 1) ** d * prod * L


def _layout(n_bases):
    return "full" if n_bases == 1 else f"tensor{n_bases}d"


def _outer_loop(op, rhs, timeop, start, tensor, memory_units, tol, m_max,
                history):
    """The loop every outer solver shares; only the projection differs.

    ``eliminate_boundary`` splits off the boundary block ``rhs.boundary``
    once; the loop then solves the interior equation. ``start(op_I,
    rhs_I)`` builds the projection, once the interior right-hand side is
    known to be nonzero.
    A projection offers ``grow()`` (False on breakdown or when every
    dimension is frozen), ``reduced(m)`` returning (A_small, rhs_left) and
    setting ``r``, ``residual(Y)`` (absolute norm) and ``bases()``, its
    current bases. ``tensor`` marks one basis per dimension. The interior
    residual equals the residual of the full-grid equation at the padded
    solution, and the residuals stay relative to delta, the norm of the
    full-grid right-hand side, so ``tol`` keeps its meaning. After a
    breakdown the basis spans an invariant subspace and the residual
    vanishes (lucky termination).
    """
    t0 = time.perf_counter()
    L = timeop.ell
    if tensor and (rhs.boundary is not None or has_boundary_rows(op, rhs)):
        raise NotSeparable("the tensorized path needs data that vanish on the boundary")
    op_I, rhs_I, boundary = eliminate_boundary(op, rhs)
    delta = rhs.initial_norm()
    if rhs_I.initial_norm() == 0.0:
        bases = [np.zeros((op_I.n, 0))] * op.d if tensor else [np.zeros((op_I.size, 0))]
        Y = np.zeros((0, L))
        m, res_hist, converged, used_inner = 1, [0.0], True, {"fft_smw"}
    else:
        projection = start(op_I, rhs_I)
        cache = SmwCache(timeop, rhs_I.right)
        res_hist, used_inner = [], set()
        grown = True
        for m in range(1, m_max + 1):
            grown = grown and projection.grow()
            A_small, rhs_left = projection.reduced(m)
            prob = ProjectedProblem(A_small=A_small, rhs_left=rhs_left,
                                    rhs_right=rhs_I.right, timeop=timeop)
            Y, used = solve_projected(prob, cache)
            used_inner.add(used)
            rel = projection.residual(Y) / delta if grown else 0.0
            res_hist.append(rel)
            if history is not None:
                history.append({"m": m, "r": projection.r, "Y": Y.copy(),
                                "rel_residual": rel})
            converged = bool(rel <= tol)
            if converged or not grown:
                break
        bases = projection.bases()
    sol = _padded_solution(op, bases, Y, boundary)
    rep = SolveReport(iterations=m, residual_history=res_hist, delta=delta,
                      converged=converged,
                      basis_dims=[V.shape[1] for V in bases],
                      memory_units=memory_units(m),
                      wall_time=time.perf_counter() - t0,
                      inner_solver="fft_smw" if used_inner == {"fft_smw"} else "sequential")
    return sol, rep


def _padded_solution(op, bases, Y, boundary):
    """The factored solution on the full grid.

    One basis per dimension gets zero endpoint rows (the boundary block is
    zero there). A single basis becomes [V scattered to the interior rows |
    G1 scattered to the boundary rows], and Y becomes [Y; G2^T].
    """
    if len(bases) > 1:
        pad = (op.n - bases[0].shape[0]) // 2
        return FactoredSolution(_layout(len(bases)),
                                [np.pad(V, ((pad, pad), (0, 0))) for V in bases], Y)
    G1, G2 = boundary if boundary is not None else \
        (np.zeros((len(op.boundary_indices), 0)), np.zeros((Y.shape[1], 0)))
    r = bases[0].shape[1]
    full = np.zeros((op.size, r + G1.shape[1]))
    full[op.interior_indices(), :r] = bases[0]
    full[op.boundary_indices, r:] = G1
    return FactoredSolution("full", [full], np.vstack([Y, G2.T]))


# --- full-space projections ------------------------------------------------------


class _FullSpaceProjection:
    """Galerkin projection onto one basis of the whole interior space. The
    projected right-hand side grows by V_new^T @ rhs.left for each new
    block."""

    def __init__(self, op, rhs, basis):
        self.op, self.rhs, self.basis = op, rhs, basis
        self.rhs_left = basis.V.T @ rhs.left

    def grow(self):
        r_before = self.basis.width
        try:
            self._step()
        except Breakdown:
            return False
        self.rhs_left = np.vstack([self.rhs_left,
                                   self.basis.V[:, r_before:].T @ self.rhs.left])
        return True

    def reduced(self, m):
        T_m, self.coupling = self.basis.projections(min(m, self.basis.n_blocks))
        self.r = T_m.shape[0]
        return np.eye(self.r) + self.op.tau_beta * T_m, self.rhs_left[:self.r]

    def bases(self):
        return [self.basis.V[:, :self.r]]


class _ExtendedProjection(_FullSpaceProjection):
    """Extended Krylov: the residual is tau*beta ||E_{m+1}^T Tbar_m Y_m||_F."""

    def __init__(self, op, rhs):
        super().__init__(op, rhs, ExtendedKrylovBasis(op, rhs.left))

    def _step(self):
        self.basis.step()

    def residual(self, Y):
        return self.op.tau_beta * np.linalg.norm(self.coupling @ Y)


class _RationalProjection(_FullSpaceProjection):
    """Rational Krylov with adaptive real shifts.

    One sparse factorization of (K_II - xi I) per step, all through the
    basis's one analysis of K_II. The residual norm comes from the start
    block's image under K, at O(n r p) cost (see ``residual``).
    """

    def __init__(self, op, rhs, seed):
        super().__init__(op, rhs, RationalKrylovBasis(op, rhs.left))
        s_min, s_max = spectral_bounds(op, seed=seed, analysis=self.basis.analysis)
        self.shifts = ShiftState(s_min=s_min, s_max=s_max)

    def _step(self):
        basis, state = self.basis, self.shifts
        r = basis.width
        state.ritz_values = np.linalg.eigvals(basis.state.T_full[:r, :r])
        xi = next_shift(state)
        for _ in range(4):
            try:
                basis.step(xi)
                break
            except ShiftSingular:
                xi = xi * (1.0 + 1e-6) + 1e-12 * state.s_max
        else:
            raise ShiftSingular(f"could not place shift near {xi}")
        state.used_shifts.append(xi)

    def residual(self, Y):
        """tau*beta ||C Y||_F, built from the cached KV and T_full.

        By the Galerkin condition the residual of the projected equation is
        tau*beta W Y with W = K V_r - V_r T_r = (I - V_r V_r^T) K V_r. Every
        step applies (K - xi I)^{-1} with a finite pole xi to the previous
        block, and K (K - xi I)^{-1} = I + xi (K - xi I)^{-1}, so K V lies
        in range(V) + range(K V_1), V_1 being the p columns of the start
        block (Ruhe, BIT 1994), whatever deflated. W therefore has rank at
        most p and the range of (I - V_r V_r^T) K V_1. With Q an orthonormal
        basis of that range, ||W Y||_F = ||C Y||_F for C = Q^T W.
        """
        st, r = self.basis.state, Y.shape[0]
        p = st.block_bounds[1]
        V, KV, T = st.V[:, :r], st.KV[:, :r], st.T_full[:r, :r]
        Q = np.linalg.qr(KV[:, :p] - V @ T[:, :p])[0]
        C = Q.T @ KV - (Q.T @ V) @ T
        return self.op.tau_beta * np.linalg.norm(C @ Y)


# --- tensorized extended projection ----------------------------------------------


def _one_dim_operator(factor, n, tau_beta):
    return SpaceOperator(d=1, n=n, matrix=sp.csr_matrix(factor),
                         tau_beta=tau_beta, factors=[sp.csr_matrix(factor)])


class _TensorizedProjection:
    """One extended Krylov basis per dimension of a Kronecker-sum operator.

    The reduced coefficient is the Kronecker sum of the small per-dimension
    projections; the residual combines one coupling term per dimension
    (squares add, the cross terms vanish by orthogonality). A dimension whose
    basis breaks down is frozen while the others keep growing.
    """

    def __init__(self, op, rhs):
        self.tb = op.tau_beta
        self.groups = groups = _factor_groups(rhs.separable, op.d, op.n)
        self.dim_bases = [
            ExtendedKrylovBasis(_one_dim_operator(op.factors[i], op.n, self.tb),
                                np.hstack([g[i] for g in groups]))
            for i in range(op.d)]
        self.frozen = [False] * op.d

    def grow(self):
        for i, basis in enumerate(self.dim_bases):
            if not self.frozen[i]:
                try:
                    basis.step()
                except Breakdown:
                    self.frozen[i] = True
        return not all(self.frozen)

    def reduced(self, m):
        projs = [b.projections(min(m, b.n_blocks)) for b in self.dim_bases]
        self.r = [T.shape[0] for T, _ in projs]
        self.couplings = [C for _, C in projs]
        eyes = [np.eye(r) for r in self.r]
        A_small = np.eye(int(np.prod(self.r)))
        for i, (T, _) in enumerate(projs):
            mats = list(eyes)
            mats[i] = T
            A_small = A_small + self.tb * kron_vectors(mats)
        rhs_left = np.hstack([
            kron_vectors([V.T @ f for V, f in zip(self.bases(), g)])
            for g in self.groups])
        return A_small, rhs_left

    def residual(self, Y):
        d = len(self.dim_bases)
        Yt = Y.reshape(tuple(reversed(self.r)) + (Y.shape[1],))
        sq = 0.0
        for i, C in enumerate(self.couplings):
            if C.shape[0]:
                contracted = np.tensordot(C, Yt, axes=(1, d - 1 - i))
                sq += float((contracted ** 2).sum())
        return self.tb * np.sqrt(sq)

    def bases(self):
        return [b.V[:, :r] for b, r in zip(self.dim_bases, self.r)]


# --- the outer solvers -----------------------------------------------------------


def solve_eksm(op, rhs, timeop, tol=1e-6, m_max=60, history=None):
    """Left-projection extended Krylov solve of the all-at-once equation.

    Stops when tau*beta ||E_{m+1}^T Tbar_m Y_m||_F <= delta * tol; on an
    invariant-subspace breakdown the coupling block is empty and the
    residual vanishes (lucky termination).
    """
    return _outer_loop(op, rhs, timeop, _ExtendedProjection, False,
                       lambda m: eksm_memory_units(m, rhs.width, op.size, timeop.ell),
                       tol, m_max, history)


def solve_eksm_separable(op, rhs, timeop, tol=1e-6, m_max=60, history=None):
    """Tensorized extended Krylov solve: one 1D subspace per dimension.

    Requires a pure Kronecker-sum operator and separable right-hand-side
    factors that vanish on the boundary.
    """
    if op.factors is None:
        raise NotSeparable("space operator is not a Kronecker sum")
    if rhs.separable is None:
        raise NotSeparable("right-hand side carries no separable factors")
    d, n = op.d, op.n
    if d < 2:
        raise NotSeparable("tensorized path needs d >= 2")
    widths = [sum(g[i].shape[1] for g in _factor_groups(rhs.separable, d, n))
              for i in range(d)]
    return _outer_loop(op, rhs, timeop, _TensorizedProjection, True,
                       lambda m: eksm_separable_memory_units(m, widths, n, timeop.ell),
                       tol, m_max, history)


def _factor_groups(separable, d, n):
    """Per group, the d spatial factors as n-row column blocks."""
    return [[np.asarray(g[0][i], dtype=float).reshape(n, -1) for i in range(d)]
            for g in separable]


def solve_rksm(op, rhs, timeop, tol=1e-6, m_max=60, history=None, seed=0):
    """Rational Krylov solve with adaptive real shifts; ``seed`` drives the
    estimate of the spectral interval the shifts are chosen from."""
    return _outer_loop(op, rhs, timeop,
                       lambda op_I, rhs_I: _RationalProjection(op_I, rhs_I, seed),
                       False, lambda m: rksm_memory_units(m, rhs.width, op.size, timeop.ell),
                       tol, m_max, history)
