"""Shorthand constructors of grids and problems for the tests."""

from evosylv.discretization import Grid, ProblemSpec
from evosylv.timeops import _BDF_TABLE, bdf_coefficients


def square_grid(d, n, ell, length=1.0, T=1.0, origin=0.0):
    """Grid on (origin, origin+length)^d."""
    return Grid(d=d, n=n, domain=tuple((origin, origin + length) for _ in range(d)),
                T=T, ell=ell)


def problem_spec(kind, grid, s=1, **kwargs):
    """ProblemSpec with the BDF scheme of order s."""
    return ProblemSpec(kind=kind, grid=grid, scheme=bdf_coefficients(s), **kwargs)


def beta_exact(scheme):
    """beta of a BDF scheme as a Fraction."""
    return _BDF_TABLE[scheme.s][0]


def alphas_exact(scheme):
    """alpha_1..alpha_s of a BDF scheme as Fractions."""
    return _BDF_TABLE[scheme.s][1]
