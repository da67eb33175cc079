"""Exception hierarchy for evosylv.

Custom classes (rather than bare ValueError) so callers can distinguish
numerical breakdowns, which often have a defined recovery path, from plain
usage errors.
"""


class EvosylvError(Exception):
    """Base class for all evosylv errors."""


# --- kernels ---------------------------------------------------------------

class SingularMatrix(EvosylvError):
    """A sparse factorization or solve hit an (exactly) singular matrix."""


# --- discretization --------------------------------------------------------

class UnsupportedDimension(EvosylvError):
    """Space dimension outside {1, 2, 3}."""


class NonSeparableWind(EvosylvError):
    """Convection field lacks the per-dimension separable structure."""


class MissingInitialValues(EvosylvError):
    """BDF order s > 1 requested but the s-1 extra initial values are absent."""


# --- timeops ---------------------------------------------------------------

class UnsupportedOrder(EvosylvError):
    """BDF order outside 1..6 (higher orders are unstable)."""


class TooFewSteps(EvosylvError):
    """Number of time steps too small for the requested BDF order."""


# --- krylov ----------------------------------------------------------------

class SingularOperator(EvosylvError):
    """Space operator could not be factorized during basis construction."""


class Breakdown(EvosylvError):
    """New Krylov block is entirely linearly dependent (invariant subspace)."""


class ShiftSingular(EvosylvError):
    """Rational Krylov shift coincides with an eigenvalue of the operator."""


# --- solver ----------------------------------------------------------------

class SingularProjectedMatrix(EvosylvError):
    """Projected coefficient matrix is singular."""


class ResonantEigenvalue(EvosylvError):
    """An eigenvalue of the projected matrix collides with a circulant eigenvalue."""


class NoConvergence(EvosylvError):
    """Outer iteration hit m_max before the residual dropped below tolerance."""


class NotSeparable(EvosylvError):
    """Tensorized solve requested but data or operator are not separable."""


class TooLarge(EvosylvError):
    """Problem exceeds the desk-scale bound of a dense oracle."""


class IndexOutOfRange(EvosylvError):
    """Snapshot index outside 1..ell."""


class ConfigError(EvosylvError):
    """Invalid run configuration."""
