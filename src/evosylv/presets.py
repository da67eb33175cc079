"""Benchmark problem presets example1..example4.

example1   1D heat on (0, pi), u0 = sin(x), closed-form solution sin(x) e^{-t}
example2   2D heat on (0, 1)^2, separable polynomial initial condition
example2_1 3D heat on (-1, 1)^3, zero u0, separable space-time source
example3   2D convection-diffusion, recirculating wind, hot left wall
example4   3D convection-diffusion, aligned wind, u0 from the steady solve
"""

import numpy as np

from .discretization import Grid, ProblemSpec, assemble_space_operator
from .errors import ConfigError
from .timeops import bdf_coefficients

PRESET_NAMES = ("example1", "example2", "example2_1", "example3", "example4")


def _example1(n, ell, s):
    grid = Grid(d=1, n=n, domain=((0.0, np.pi),), T=1.0, ell=ell)
    return ProblemSpec(
        kind="heat", grid=grid, scheme=bdf_coefficients(s),
        u0=np.sin, u0_separable=(np.sin,),
        analytic=lambda x, t: np.sin(x) * np.exp(-t),
        name="example1")


def _example2(n, ell, s):
    grid = Grid(d=2, n=n, domain=((0.0, 1.0), (0.0, 1.0)), T=1.0, ell=ell)
    poly = lambda x: x * (x - 1.0)
    return ProblemSpec(
        kind="heat", grid=grid, scheme=bdf_coefficients(s),
        u0=lambda x, y: poly(x) * poly(y), u0_separable=(poly, poly),
        name="example2")


def _example2_1(n, ell, s):
    grid = Grid(d=3, n=n, domain=((-1.0, 1.0),) * 3, T=2.0, ell=ell)
    bump = lambda x: (1.0 - x**2) * np.exp(x)
    temporal = lambda t: 1.0 + np.sin(np.pi * t / 2.0)
    return ProblemSpec(
        kind="heat", grid=grid, scheme=bdf_coefficients(s),
        f=lambda x, y, z, t: temporal(t) * bump(x) * bump(y) * bump(z),
        f_separable=((bump, bump, bump), temporal),
        name="example2_1")


def _example3(n, ell, s, epsilon):
    grid = Grid(d=2, n=n, domain=((0.0, 1.0), (0.0, 1.0)), T=1.0, ell=ell)
    one = lambda v: np.ones_like(v)
    # w = (2y(1-x^2), -2x(1-y^2)): separable but not aligned
    wind = [(lambda x: 1.0 - x**2, lambda y: 2.0 * y),
            (lambda x: -2.0 * x, lambda y: 1.0 - y**2)]
    hot_wall = lambda x, y: np.where(x == 0.0, 1.0, 0.0)
    return ProblemSpec(
        kind="convection-diffusion", grid=grid, scheme=bdf_coefficients(s),
        epsilon=epsilon, wind=wind, wind_aligned=False,
        u0=hot_wall, g=lambda x, y, t: hot_wall(x, y),
        name="example3")


def _steady_state(spec):
    """u with -eps*Lap(u) + w.grad(u) = 1 inside and u = 0 on the boundary:
    one sparse solve with the interior operator K_II."""
    op = assemble_space_operator(spec)
    u = np.zeros(op.size)
    u[op.interior_indices()] = op.interior().solve(np.ones(op.interior().size))
    return u


def _example4(n, ell, s, epsilon):
    grid = Grid(d=3, n=n, domain=((0.0, 1.0),) * 3, T=1.0, ell=ell)
    one = lambda v: np.ones_like(v)
    wind = [(lambda x: x * np.sin(x), one, one),
            (one, lambda y: y * np.cos(y), one),
            (one, one, lambda z: np.exp(z**2 - 1.0))]
    spec = ProblemSpec(
        kind="convection-diffusion", grid=grid, scheme=bdf_coefficients(s),
        epsilon=epsilon, wind=wind, wind_aligned=True, name="example4")
    spec.u0 = _steady_state(spec)
    return spec


def get_preset(name, n, ell, s=1, epsilon=None):
    """Instantiate a named benchmark problem on an n^d x ell grid."""
    if name == "example1":
        return _example1(n, ell, s)
    if name == "example2":
        return _example2(n, ell, s)
    if name == "example2_1":
        return _example2_1(n, ell, s)
    if name == "example3":
        return _example3(n, ell, s, 1.0 if epsilon is None else epsilon)
    if name == "example4":
        return _example4(n, ell, s, 1.0 if epsilon is None else epsilon)
    raise ConfigError(f"unknown preset {name!r}; choose from {PRESET_NAMES}")
