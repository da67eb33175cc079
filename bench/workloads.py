"""The benchmark's workloads: three solves that each load a different layer.

All use BDF1 and tol = 1e-6. Each workload names the preset, grid, solver
and the number of leading time steps the oracle checks (``prefix``).
BENCHMARK.json lists the first two; heat3d_tensor runs only when named
(``--workload heat3d_tensor`` or ``all``), since its 3D oracle LU and its
samples do not fit the per-run time that the listed workloads need to
give steady medians.
"""

from dataclasses import dataclass

BDF_ORDER = 1
TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    preset: str
    n: int
    ell: int
    solver: str
    prefix: int
    epsilon: float = None


WORKLOADS = {w.name: w for w in (
    # 19 shifted splu calls take most of the solve; the inner solve (R=19)
    # and the set-up are small, so an inner-solve or assembly change should
    # not move it.
    Workload("heat2d_rational",
             "2D heat, rational Krylov: the solve is dominated by one sparse "
             "LU per adaptive shift",
             preset="example2", n=192, ell=2048, solver="solve_rksm",
             prefix=64),
    # compress_snapshots (dense n^2 x ell SVD) dominates a long set-up, and
    # the non-normal projected matrix sends a share of the FFT+SMW inner
    # solves to the sequential fallback. Not a Kronecker sum, so a
    # fast-diagonalization change should not move it.
    Workload("convdiff2d_lowvisc",
             "2D convection-diffusion, eps=0.01, extended Krylov: dense RHS "
             "compression in set-up and inner-solve fallbacks",
             preset="example3", n=96, ell=2048, solver="solve_eksm",
             prefix=64, epsilon=0.01),
    # Three tiny 1D bases, but the inner solve eigendecomposes the dense
    # 1728 x 1728 Kronecker-sum projection.
    Workload("heat3d_tensor",
             "3D heat, tensorized extended Krylov: the dense eigendecomposition "
             "of the 1728 x 1728 projected matrix dominates",
             preset="example2_1", n=32, ell=1024,
             solver="solve_eksm_separable", prefix=16),
)}
