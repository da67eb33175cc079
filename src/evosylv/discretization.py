"""Grids, finite-difference operators, and factored right-hand sides.

Conventions (pinned by tests):

* Nodes include the endpoints; unknowns are ordered with the *first* spatial
  coordinate fastest, so the linear index of (i1, .., id) is
  i1 + n*i2 + n^2*i3 (0-based).
* A per-dimension list of matrices/vectors [A1, .., Ad] combines as
  kron(Ad, .., A1); with the ordering above, A1 then acts along the first
  coordinate.
* The modified 1D stiffness has boundary rows (1/(tau*beta)) e_j^T, so that
  (I - P + tau*beta*Kbar) acts as the identity on boundary rows (d = 1), or
  as the identity plus couplings confined to the boundary faces (Kronecker
  sums, d >= 2). The right-hand side assembly reads those extra couplings
  directly off the assembled matrix, so boundary data are reproduced exactly
  for every dimension and BDF order. These boundary rows and
  ``boundary_defect`` serve the full-grid right-hand side and the oracles
  only.
* Dirichlet data win: the boundary rows of the initial values u_0 ..
  u_{s-1} are g(t_j) (zero without g), so the boundary block of the
  solution is the sampled g, U_B = g(t_k) at every step. ``assemble_rhs``
  assembles it as a factor ``LowRankRhs.boundary``; nothing solves for it.
  The solvers call ``eliminate_boundary``, which leaves the interior
  unknowns with (I + tau*beta*K_II) U_I - U_I Sigma^T = F_I -
  tau*beta*K_IB U_B, the same discrete system with the Dirichlet values
  moved to the right-hand side.
* The source part of the right-hand side stays factored. Without an
  interior source f only the boundary rows can be nonzero, so only they are
  sampled; with f every row is. Samples are taken SOURCE_CHUNK time steps
  at a time and each chunk is folded into the running factor by a truncated
  SVD of tolerance SOURCE_TOL/sqrt(number of chunks), which keeps the whole
  factor within SOURCE_TOL ||F||_F of the source F. No array of size
  n^d x ell is formed, and a problem without f and g samples nothing.
"""

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from .errors import (MissingInitialValues, NonSeparableWind, TooFewSteps,
                     UnsupportedDimension)
from .kernels import sparse_factorize, sparse_solve
from .timeops import BdfScheme


@dataclass(frozen=True)
class Grid:
    """Uniform space-time mesh.

    n nodes per direction (endpoints included), ell time steps on [0, T]
    with tau = T/ell; the spatial step h = (b-a)/(n-1) must agree across
    directions.
    """

    d: int
    n: int
    domain: tuple
    T: float
    ell: int

    def __post_init__(self):
        if self.d not in (1, 2, 3):
            raise UnsupportedDimension(f"d must be 1, 2 or 3, got {self.d}")
        if self.n < 3:
            raise ValueError(f"need n >= 3, got {self.n}")
        if self.ell < 1:
            raise ValueError(f"need ell >= 1, got {self.ell}")
        if len(self.domain) != self.d:
            raise ValueError("domain must give one interval per dimension")
        hs = [(b - a) / (self.n - 1) for a, b in self.domain]
        if any(h <= 0 for h in hs):
            raise ValueError("empty spatial interval")
        if max(hs) - min(hs) > 1e-12 * max(hs):
            raise ValueError("uniform mesh requires equal h in all directions")

    @property
    def h(self):
        a, b = self.domain[0]
        return (b - a) / (self.n - 1)

    @property
    def tau(self):
        return self.T / self.ell

    def axes(self):
        return [np.linspace(a, b, self.n) for a, b in self.domain]

    def times(self):
        """Time nodes t_1..t_ell (t_0 = 0 excluded)."""
        return self.tau * np.arange(1, self.ell + 1)


# --- node ordering helpers ---------------------------------------------------


def kron_vectors(factors):
    """kron(v_d, .., v_1) for per-dimension column blocks [v_1, .., v_d]."""
    def as_cols(v):
        v = np.asarray(v, dtype=float)
        return v[:, None] if v.ndim == 1 else v

    out = as_cols(factors[-1])
    for fac in reversed(factors[:-1]):
        out = np.kron(out, as_cols(fac))
    return out


def kron_matrices(mats):
    """Sparse kron(A_d, .., A_1) for per-dimension operators [A_1, .., A_d]."""
    out = sp.csr_matrix(mats[-1])
    for A in reversed(mats[:-1]):
        out = sp.kron(out, A, format="csr")
    return out


def kron_sum(factors, n):
    """Kronecker sum: sum_i I x .. x A_i x .. x I with A_i on dimension i."""
    d = len(factors)
    total = None
    for i, A in enumerate(factors):
        mats = [sp.identity(n, format="csr")] * d
        mats[i] = sp.csr_matrix(A)
        term = kron_matrices(mats)
        total = term if total is None else total + term
    return total.tocsr()


def sample_space_function(grid, fn):
    """Evaluate fn(x1, .., xd) on the grid, flattened first-coordinate-fastest."""
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    vals = np.asarray(fn(*mesh), dtype=float)
    vals = np.broadcast_to(vals, mesh[0].shape)
    return np.ravel(vals, order="F").copy()


def boundary_index_set(n, d):
    """Sorted linear indices of nodes with some coordinate on the boundary."""
    on_bnd = np.zeros((n,) * d, dtype=bool)
    for axis in range(d):
        sl = [slice(None)] * d
        sl[axis] = 0
        on_bnd[tuple(sl)] = True
        sl[axis] = n - 1
        on_bnd[tuple(sl)] = True
    return np.flatnonzero(np.ravel(on_bnd, order="F"))


def boundary_coordinates(grid):
    """Coordinate arrays (one per dimension) of the boundary nodes."""
    mesh = np.meshgrid(*grid.axes(), indexing="ij")
    idx = boundary_index_set(grid.n, grid.d)
    return [np.ravel(m, order="F")[idx] for m in mesh]


# --- 1D operators ------------------------------------------------------------


def laplacian_1d(n, h):
    """Negative 1D Laplacian, interior rows (-1, 2, -1)/h^2, boundary rows zero."""
    if n < 3 or h <= 0:
        raise ValueError("need n >= 3 and h > 0")
    main = np.full(n, 2.0 / h**2)
    off = np.full(n - 1, -1.0 / h**2)
    K = sp.diags([off, main, off], [-1, 0, 1], format="lil")
    K[0, :] = 0.0
    K[n - 1, :] = 0.0
    return K.tocsr()


def first_derivative_1d(n, h):
    """Centered 1D first derivative, interior rows (-1, 0, 1)/(2h), boundary rows zero."""
    if n < 3 or h <= 0:
        raise ValueError("need n >= 3 and h > 0")
    off = np.full(n - 1, 1.0 / (2 * h))
    B = sp.diags([-off, off], [-1, 1], format="lil")
    B[0, :] = 0.0
    B[n - 1, :] = 0.0
    return B.tocsr()


def modify_for_boundary(K_interior_rows, tau_beta):
    """Replace boundary rows with (1/(tau*beta)) e_j^T.

    The input carries the interior-row stencil (boundary rows zero); the
    output Kbar satisfies P (I - P + tau*beta*Kbar) = P exactly.
    """
    if tau_beta <= 0:
        raise ValueError("tau_beta must be positive")
    K = sp.lil_matrix(K_interior_rows)
    n = K.shape[0]
    K[0, :] = 0.0
    K[0, 0] = 1.0 / tau_beta
    K[n - 1, :] = 0.0
    K[n - 1, n - 1] = 1.0 / tau_beta
    return K.tocsr()


# --- problem description -----------------------------------------------------


@dataclass
class ProblemSpec:
    """A concrete evolutionary problem: equation, data, grid and BDF order.

    wind[i][j] is the factor of the i-th convection component along
    dimension j (the component is the product over j). wind_aligned marks
    the special case w_i = w_i(x_i), for which the operator is a pure
    Kronecker sum.
    """

    kind: str
    grid: Grid
    scheme: BdfScheme
    epsilon: float = 1.0
    wind: list = None
    wind_aligned: bool = False
    u0: object = None
    u0_separable: tuple = None
    f: object = None
    f_separable: tuple = None
    g: object = None
    extra_initial_values: object = None
    analytic: object = None
    name: str = "custom"

    def __post_init__(self):
        if self.kind not in ("heat", "convection-diffusion"):
            raise ValueError(f"unknown kind {self.kind!r}")
        if self.kind == "convection-diffusion":
            if self.epsilon <= 0:
                raise ValueError("viscosity must be positive")
            if self.wind is not None:
                d = self.grid.d
                if len(self.wind) != d or any(len(c) != d for c in self.wind):
                    raise NonSeparableWind(
                        "wind needs d components with d separable factors each")

    @property
    def tau_beta(self):
        return self.grid.tau * self.scheme.beta


# --- assembled space operator ------------------------------------------------


@dataclass
class SpaceOperator:
    """Boundary-modified stiffness Kbar_d with its structure metadata.

    factors holds the per-dimension 1D operators when (and only when) matrix
    equals their Kronecker sum; the tensorized solver requires it. An
    operator without boundary indices, such as ``interior()``, has no
    Dirichlet rows: its a_full is I + tau*beta*matrix.
    """

    d: int
    n: int
    matrix: sp.csr_matrix
    tau_beta: float
    boundary_indices: np.ndarray = field(
        default_factory=lambda: np.zeros(0, dtype=int))
    factors: list = None
    _lu: object = field(default=None, repr=False)
    _a_full_lu: object = field(default=None, repr=False)
    _interior: object = field(default=None, repr=False)

    @property
    def size(self):
        return self.n ** self.d

    def interior_indices(self):
        """Sorted linear indices of the nodes that are not boundary nodes."""
        return np.setdiff1d(np.arange(self.size), self.boundary_indices)

    def interior(self):
        """The operator of the interior unknowns, Kbar[I][:, I] on n - 2
        nodes per direction; cached, and the operator itself when it has
        no boundary. With the first coordinate fastest, the interior nodes
        keep the ordering of an (n-2)^d grid, so a Kronecker sum restricts
        factor by factor."""
        if not len(self.boundary_indices):
            return self
        if self._interior is None:
            keep = self.interior_indices()
            factors = None if self.factors is None else \
                [sp.csr_matrix(F)[1:-1, 1:-1] for F in self.factors]
            self._interior = SpaceOperator(
                d=self.d, n=self.n - 2, matrix=self.matrix[keep][:, keep].tocsr(),
                tau_beta=self.tau_beta, factors=factors)
        return self._interior

    def a_full(self):
        """(I - P) + tau*beta*Kbar, the actual Sylvester coefficient matrix."""
        interior = np.ones(self.size)
        interior[self.boundary_indices] = 0.0
        return (sp.diags(interior) + self.tau_beta * self.matrix).tocsr()

    def boundary_defect(self):
        """Rows of a_full at boundary indices, minus the identity rows.

        For d = 1 (and for operators with replaced boundary rows) this is
        zero; for Kronecker sums it carries the face-internal couplings that
        the right-hand side must compensate. Its columns always lie in the
        boundary index set.
        """
        A = self.a_full()
        rows = A[self.boundary_indices, :].tolil()
        for r, j in enumerate(self.boundary_indices):
            rows[r, j] -= 1.0
        return rows.tocsr()

    def solve(self, B):
        """Kbar^{-1} B with a cached factorization."""
        if self._lu is None:
            self._lu = sparse_factorize(self.matrix)
        return sparse_solve(self._lu, B)

    def solve_full(self, B):
        """a_full^{-1} B with a cached factorization (time stepping)."""
        if self._a_full_lu is None:
            self._a_full_lu = sparse_factorize(self.a_full())
        return sparse_solve(self._a_full_lu, B)


def _diag_samples(grid, fn, dim):
    return sp.diags(fn(grid.axes()[dim]))


def _wind_kron_term(grid, factors_1d, deriv_dim):
    """kron term for one wind component: diagonals everywhere, (Phi B1) on deriv_dim."""
    n, h, d = grid.n, grid.h, grid.d
    B = first_derivative_1d(n, h)
    mats = []
    for j in range(d):
        D = _diag_samples(grid, factors_1d[j], j)
        mats.append(D @ B if j == deriv_dim else D)
    return kron_matrices(mats)


def assemble_space_operator(spec):
    """Build Kbar_d for a ProblemSpec.

    Heat: Kronecker sum of d copies of the modified 1D stiffness. Aligned
    convection (w_i depends on x_i only): Kronecker sum of per-dimension
    modified convection-diffusion operators. Generic separable wind: the
    Kronecker-structured sum with boundary rows replaced by 1/(tau*beta)
    e_j^T, so the full coefficient matrix acts exactly as the identity there.
    """
    grid = spec.grid
    d, n, h = grid.d, grid.n, grid.h
    if d not in (1, 2, 3):
        raise UnsupportedDimension(f"d must be 1, 2 or 3, got {d}")
    tb = spec.tau_beta
    bnd = boundary_index_set(n, d)
    K_int = laplacian_1d(n, h)

    if spec.kind == "heat":
        K1 = modify_for_boundary(K_int, tb)
        return SpaceOperator(d=d, n=n, matrix=kron_sum([K1] * d, n),
                             boundary_indices=bnd, tau_beta=tb,
                             factors=[K1] * d)

    if spec.wind is None:
        raise NonSeparableWind("convection-diffusion requires a wind field")
    eps = spec.epsilon
    B_int = first_derivative_1d(n, h)

    if d == 1:
        phi = spec.wind[0][0]
        K1cd = modify_for_boundary(eps * K_int + _diag_samples(grid, phi, 0) @ B_int, tb)
        return SpaceOperator(d=d, n=n, matrix=K1cd, boundary_indices=bnd,
                             tau_beta=tb, factors=[K1cd])

    if spec.wind_aligned:
        factors = []
        for i in range(d):
            phi = spec.wind[i][i]
            factors.append(modify_for_boundary(
                eps * K_int + _diag_samples(grid, phi, i) @ B_int, tb))
        return SpaceOperator(d=d, n=n, matrix=kron_sum(factors, n),
                             boundary_indices=bnd, tau_beta=tb, factors=factors)

    # generic separable wind: modified diffusion factors keep the boundary
    # rows 1/(tau*beta) e_j^T per direction; the wind terms only touch
    # boundary rows within a face (interior-row B1). The resulting boundary
    # defect stays confined to boundary columns, which assemble_rhs
    # compensates exactly.
    K1 = modify_for_boundary(eps * K_int, tb)
    M = kron_sum([K1] * d, n)
    for i in range(d):
        M = M + _wind_kron_term(grid, spec.wind[i], i)
    return SpaceOperator(d=d, n=n, matrix=M.tocsr(), boundary_indices=bnd,
                         tau_beta=tb, factors=None)


# --- right-hand side ---------------------------------------------------------


@dataclass
class LowRankRhs:
    """Factored right-hand side left @ right.T of the Sylvester equation.

    Columns come in groups: s initial-value columns paired with e_1..e_s,
    then the source columns F1 paired with tau*beta*F2. ``separable``, when
    present, lists (per-dimension spatial factors, matching right columns)
    for each group, and their Kronecker products reproduce ``left``.
    ``boundary``, when present, holds factors (G1, G2) of the boundary
    block U_B = G1 G2^T of the solution (rows: the boundary nodes); it is
    None when U_B = 0.
    """

    left: np.ndarray
    right: np.ndarray
    separable: list = None
    boundary: tuple = None

    @property
    def width(self):
        return self.left.shape[1]

    def dense(self):
        return self.left @ self.right.T

    def initial_norm(self):
        """delta = ||left @ right.T||_F via trace((L^T L)(R^T R))."""
        g = (self.left.T @ self.left) @ (self.right.T @ self.right)
        return float(np.sqrt(max(np.trace(g), 0.0)))


#: Time steps per chunk when ``_source_factor`` streams the source columns.
SOURCE_CHUNK = 64
#: Relative Frobenius tolerance of the compressed source factor.
SOURCE_TOL = 1e-12


def compress_snapshots(F, tol):
    """Truncated SVD: minimal-rank F1 F2^T with ||F - F1 F2^T||_F <= tol ||F||_F."""
    F = np.asarray(F, dtype=float)
    if not np.all(np.isfinite(F)):
        raise ValueError("snapshot matrix must be finite")
    normF = np.linalg.norm(F)
    if normF == 0.0:
        return np.zeros((F.shape[0], 0)), np.zeros((F.shape[1], 0))
    U, svals, Vt = np.linalg.svd(F, full_matrices=False)
    tails = np.sqrt(np.cumsum(svals[::-1] ** 2))[::-1]
    # tails[m] = Frobenius error of keeping only the first m singular triplets
    rank = len(svals)
    for m in range(len(svals) + 1):
        err = tails[m] if m < len(svals) else 0.0
        if err <= tol * normF:
            rank = m
            break
    return U[:, :rank] * svals[:rank], Vt[:rank, :].T


def _sample_u0(spec):
    grid = spec.grid
    if spec.u0 is None:
        return np.zeros(grid.n ** grid.d)
    if isinstance(spec.u0, np.ndarray):
        return np.asarray(spec.u0, dtype=float)
    return sample_space_function(grid, spec.u0)


def _sample_at(fn, coords, t):
    """fn(*coords, t) as a float array of the coordinates' shape."""
    return np.broadcast_to(np.asarray(fn(*coords, t), dtype=float), coords[0].shape)


def _initial_value_list(spec, op):
    """u_0 .. u_{s-1} as grid vectors; extras sampled from the analytic
    solution when not supplied explicitly. Dirichlet data win: the boundary
    rows of u_j are g(t_j), or zero without g."""
    s, tau = spec.scheme.s, spec.grid.tau
    us = [_sample_u0(spec)]
    extras = spec.extra_initial_values
    if s > 1 and extras is not None:
        if len(extras) != s - 1:
            raise MissingInitialValues(
                f"order {s} needs {s - 1} extra initial values, got {len(extras)}")
        us += [np.asarray(u, dtype=float) for u in extras]
    elif s > 1:
        if spec.analytic is None:
            raise MissingInitialValues(
                f"BDF order {s} requires {s - 1} extra initial values")
        for k in range(1, s):
            us.append(sample_space_function(
                spec.grid, lambda *x, _t=k * tau: spec.analytic(*x, _t)))
    us = [u.copy() for u in us]
    g_coords = None if spec.g is None else boundary_coordinates(spec.grid)
    for j, u in enumerate(us):
        u[op.boundary_indices] = \
            0.0 if spec.g is None else _sample_at(spec.g, g_coords, tau * j)
    return us


def _vanishes_on_boundary(vals):
    """True when a sampled 1D factor is zero at both endpoints, up to 1e-13
    of its largest entry."""
    vals = np.asarray(vals, dtype=float)
    scale = np.abs(vals).max()
    return scale == 0 or np.abs(vals[[0, -1]]).max() <= 1e-13 * scale


def _f_separable_usable(spec):
    """Separable source path applies when g contributes nothing and the
    spatial factors vanish on the boundary (so no boundary correction is
    needed)."""
    if spec.f_separable is None or spec.g is not None:
        return False
    spatial, _ = spec.f_separable
    return all(_vanishes_on_boundary(fn(spec.grid.axes()[dim]))
               for dim, fn in enumerate(spatial))


def assemble_rhs(spec, op):
    """Factored right-hand side [init cols, F1][e_1..e_s, tau*beta*F2]^T.

    The system has L = ell - s + 1 columns for time steps t_s .. t_ell; the s
    initial-value columns fold u_0 .. u_{s-1} into the first s columns; the
    boundary rows of u_j are g(t_j), or zero without g. Boundary rows of the
    source part carry the Dirichlet data in the full-grid form:
    (g(t_k) - sum_i alpha_i g(t_{k-i}))/(tau*beta) plus the compensation for
    whatever the assembled boundary rows do beyond the identity, so the
    boundary rows of the full-grid solution are g(t_k). The same samples of
    g give the boundary block U_B of ``LowRankRhs.boundary``.

    A separable source that vanishes on the boundary enters through its
    spatial and temporal factors. Any other source is streamed by
    ``_source_factor``: SOURCE_CHUNK time steps at a time, on the boundary
    rows only when there is no interior f, folded into a factor that keeps
    ||F - F1 F2^T||_F <= SOURCE_TOL ||F||_F. Nothing of size n^d x L is
    formed.
    """
    grid, scheme = spec.grid, spec.scheme
    s, ell, tb = scheme.s, grid.ell, spec.tau_beta
    L = ell - s + 1
    if L <= s:
        raise TooFewSteps(f"need ell >= 2s, got ell={ell}, s={s}")
    alphas = scheme.alphas
    tau = grid.tau

    us = _initial_value_list(spec, op)
    init_left = np.empty((op.size, s))
    for q in range(s):
        c = np.zeros(op.size)
        for i in range(q + 1, s + 1):
            c += alphas[i - 1] * us[s + q - i]
        init_left[:, q] = c
    init_right = np.zeros((L, s))
    init_right[np.arange(s), np.arange(s)] = 1.0

    pieces_left, pieces_right = [], []
    separable = boundary = None
    if np.linalg.norm(init_left) > 0:
        pieces_left.append(init_left)
        pieces_right.append(init_right)

    if _f_separable_usable(spec):
        spatial, temporal = spec.f_separable
        facs = [np.asarray(fn(grid.axes()[dim]), dtype=float).reshape(grid.n, -1)
                for dim, fn in enumerate(spatial)]
        F1 = kron_vectors(facs)
        tk = tau * np.arange(s, ell + 1)
        F2 = np.asarray(temporal(tk), dtype=float).reshape(L, -1)
        if F2.shape[1] != F1.shape[1]:
            F2 = np.tile(F2, (1, F1.shape[1]))
        pieces_left.append(F1)
        pieces_right.append(tb * F2)
    else:
        source = _source_factor(spec, op, L)
        if source is not None:
            pieces_left.append(source.left)
            pieces_right.append(source.right)
            boundary = source.boundary

    if not any(piece.shape[1] for piece in pieces_left):
        pieces_left = [np.zeros((op.size, 1))]
        pieces_right = [np.zeros((L, 1))]
    left = np.hstack(pieces_left)
    right = np.hstack(pieces_right)

    if s == 1:
        separable = _separable_groups(spec, op, left, right, L, tb)
    return LowRankRhs(left=left, right=right, separable=separable, boundary=boundary)


def _source_factor(spec, op, L):
    """The source columns and the boundary block, or None without f and g.

    Returns a LowRankRhs: left @ right.T (possibly of width zero) are the
    source columns times tau*beta, and ``boundary`` is U_B. Column q belongs
    to step k = s + q: f(t_k) on the interior rows and the Dirichlet term of
    ``assemble_rhs`` on the boundary rows. Each chunk is folded into the
    running factor by ``_fold``.

    The same samples of g give U_B = G1 G2^T with G1 = [g(t_{s-1}), dU] and
    G2 = [1, cumsum(dW)]: the increments D = g(t_k) - g(t_{k-1}) are folded
    into dU dW^T and summed back up in the right factor. The fold keeps
    ||D - dU dW^T||_F <= SOURCE_TOL ||D||_F; the cumsum multiplies that
    error by the L x L lower-triangular matrix of ones, whose 2-norm is
    1/(2 sin(pi/(4L+2))) ~ 2L/pi, about what the BDF recursion does to an
    error in the full-grid boundary rows. A time-constant g has no
    increments and folds nothing.
    """
    if spec.f is None and spec.g is None:
        return None
    grid, scheme = spec.grid, spec.scheme
    s, alphas, tau, tb = scheme.s, scheme.alphas, grid.tau, spec.tau_beta
    bnd = op.boundary_indices
    if spec.f is None:
        at_bnd = slice(None)
        coords = g_coords = boundary_coordinates(grid)
    else:
        at_bnd = bnd
        mesh = np.meshgrid(*grid.axes(), indexing="ij")
        coords = [np.ravel(m, order="F") for m in mesh]
        g_coords = [c[bnd] for c in coords]
    rows = len(coords[0])
    if spec.g is not None:
        defect = op.boundary_defect()[:, bnd]

    starts = range(0, L, SOURCE_CHUNK)
    tol = SOURCE_TOL / np.sqrt(len(starts))
    U, W = np.zeros((rows, 0)), np.zeros((0, 0))
    dU, dW = np.zeros((len(bnd), 0)), np.zeros((0, 0))
    for q0 in starts:
        steps = np.arange(s + q0, s + min(q0 + SOURCE_CHUNK, L))
        C = np.zeros((rows, len(steps)))
        if spec.f is not None:
            for j, k in enumerate(steps):
                C[:, j] = _sample_at(spec.f, coords, tau * k)
            C[bnd] = 0.0
        if spec.g is not None:
            # g at steps[0] - s .. steps[-1]: column j + s is step steps[j]
            G = np.column_stack([_sample_at(spec.g, g_coords, tau * k)
                                 for k in range(steps[0] - s, steps[-1] + 1)])
            if q0 == 0:
                g_start = G[:, s - 1]
            now = G[:, s:]
            tele = now.copy()
            for i in range(1, s + 1):
                tele -= alphas[i - 1] * G[:, s - i:s - i + len(steps)]
            C[at_bnd] = (tele + defect @ now) / tb
            dU, dW = _fold(dU, dW, np.diff(G[:, s - 1:]), tol)
        U, W = _fold(U, W, C, tol)
    boundary = None
    if spec.g is not None:
        G1 = np.column_stack([g_start, dU])
        G2 = np.column_stack([np.ones(L), np.cumsum(dW, axis=0)])
        nonzero = G1.any(axis=0)
        if nonzero.any():
            boundary = (G1[:, nonzero], G2[:, nonzero])
    if spec.f is None:
        left = np.zeros((op.size, U.shape[1]))
        left[bnd] = U
        U = left
    return LowRankRhs(U, tb * W, boundary=boundary)


def _fold(U, W, C, tol):
    """Fold the column block C into the factor U W^T of the blocks before it.

    Returns (U', W') with U' W'^T = compress_snapshots([U, C], tol) applied
    to [U W^T, C]. W keeps orthonormal columns, so the errors of successive
    folds are Frobenius-orthogonal: with tol = SOURCE_TOL/sqrt(folds) they
    add up to at most SOURCE_TOL times the norm of all the blocks.
    """
    r = U.shape[1]
    U, Wn = compress_snapshots(np.hstack([U, C]), tol)
    return U, np.vstack([W @ Wn[:r], Wn[r:]])


def has_boundary_rows(op, rhs):
    """True when the boundary rows of left @ right.T exceed SOURCE_TOL of
    the whole right-hand side."""
    rows = LowRankRhs(rhs.left[op.boundary_indices], rhs.right)
    return rows.initial_norm() > SOURCE_TOL * rhs.initial_norm()


def eliminate_boundary(op, rhs):
    """Split the all-at-once equation into its boundary and interior blocks.

    Returns (op.interior(), interior right-hand side, boundary factors). The
    boundary block U_B = G1 G2^T is ``rhs.boundary``, assembled from g by
    ``assemble_rhs``; nothing is solved for it. The interior unknowns solve
    (I + tau*beta*K_II) U_I - U_I Sigma^T = F_I - tau*beta*K_IB U_B, whose
    right-hand side [left_I, -tau*beta*K_IB G1] [right, G2]^T is
    recompressed: QR of each factor, then ``compress_snapshots`` of the
    small core with SOURCE_TOL. Without a boundary block the interior rows
    of ``left`` are kept as they are, with the separable groups restricted
    to the interior nodes; a right-hand side that has boundary rows but no
    block raises ValueError.
    """
    op_I = op.interior()
    bnd = op.boundary_indices
    if not len(bnd):
        return op_I, rhs, None
    keep = op.interior_indices()
    left_I = rhs.left[keep]
    if rhs.boundary is None:
        if has_boundary_rows(op, rhs):
            raise ValueError("the right-hand side has boundary rows but no boundary "
                             "block; build it with assemble_rhs")
        separable = None if rhs.separable is None else \
            [([f[1:-1] for f in facs], cols) for facs, cols in rhs.separable]
        return op_I, LowRankRhs(left_I, rhs.right, separable), None
    G1, G2 = rhs.boundary
    coupling = -op.tau_beta * (op.matrix[keep][:, bnd] @ G1)
    Q1, R1 = np.linalg.qr(np.hstack([left_I, coupling]))
    Q2, R2 = np.linalg.qr(np.hstack([rhs.right, G2]))
    C1, C2 = compress_snapshots(R1 @ R2.T, SOURCE_TOL)
    return op_I, LowRankRhs(Q1 @ C1, Q2 @ C2), rhs.boundary


def _separable_groups(spec, op, left, right, L, tb):
    """Per-dimension factor groups reproducing ``left`` when available."""
    if op.factors is None and spec.grid.d > 1:
        return None
    groups = []
    col = 0
    u0_vec = _sample_u0(spec)
    if np.linalg.norm(u0_vec) > 0:
        if spec.u0_separable is None:
            return None
        facs = [np.asarray(fn(spec.grid.axes()[dim]), dtype=float)[:, None]
                for dim, fn in enumerate(spec.u0_separable)]
        if np.linalg.norm(kron_vectors(facs)[:, 0] - u0_vec) > 1e-12 * np.linalg.norm(u0_vec):
            return None
        # the tensorized solver has no boundary block to add back
        if not all(_vanishes_on_boundary(f) for f in facs):
            return None
        groups.append((facs, right[:, col:col + 1]))
        col += 1
    if col < left.shape[1]:
        if not _f_separable_usable(spec):
            return None
        spatial, _ = spec.f_separable
        facs = [np.asarray(fn(spec.grid.axes()[dim]), dtype=float).reshape(spec.grid.n, -1)
                for dim, fn in enumerate(spatial)]
        width = kron_vectors(facs).shape[1]
        groups.append((facs, right[:, col:col + width]))
        col += width
    if col != left.shape[1]:
        return None
    return groups
