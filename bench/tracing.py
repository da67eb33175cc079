"""Spans around the calls into evosylv's layers, recorded from outside.

``instrument(tracer)`` replaces each public layer function by a wrapper that
records a span, at every name where evosylv looks the function up: solver
and krylov import ``sparse_factorize``, ``dense_eig`` and friends by name,
so patching ``evosylv.kernels`` alone would miss those calls. Methods are
wrapped on their classes. Everything is restored on exit.

Spans are kept in memory as (name, start, end, parent, size, error) records;
``layer_totals`` turns them into total time, self time, call and error
counts per span name.
"""

import functools
import sys
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from time import perf_counter


@dataclass
class Span:
    name: str
    start: float
    parent: int
    end: float = None
    size: int = None
    error: str = None


class Tracer:
    """In-memory span recorder for a single thread of calls."""

    def __init__(self):
        self.spans = []
        self._stack = []

    def begin(self, name, size=None):
        parent = self._stack[-1] if self._stack else None
        self.spans.append(Span(name, perf_counter(), parent, size=size))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def end(self, index, error=None):
        span = self.spans[index]
        span.end = perf_counter()
        span.error = error
        popped = self._stack.pop()
        if popped != index:
            raise RuntimeError(f"span {span.name!r} closed out of order")

    @contextmanager
    def span(self, name, size=None):
        index = self.begin(name, size)
        try:
            yield
        except BaseException as exc:
            self.end(index, error=type(exc).__name__)
            raise
        self.end(index)


def _traced(tracer, name, fn, size=None):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with tracer.span(name, None if size is None else size(args)):
            return fn(*args, **kwargs)
    return traced


def _order(args):
    return len(args[0])


def _projected_order(args):
    return args[0].A_small.shape[0]


def _targets():
    from evosylv import (discretization, kernels, krylov, presets, solver,
                         timeops)
    functions = [
        ("presets.get_preset", presets, "get_preset", None),
        ("discretization.assemble_space_operator", discretization,
         "assemble_space_operator", None),
        ("discretization.assemble_rhs", discretization, "assemble_rhs", None),
        ("discretization.compress_snapshots", discretization,
         "compress_snapshots", None),
        ("timeops.build_time_operator", timeops, "build_time_operator", None),
        ("kernels.sparse_factorize", kernels, "sparse_factorize", None),
        ("kernels.sparse_solve", kernels, "sparse_solve", None),
        ("kernels.dense_eig", kernels, "dense_eig", _order),
        ("kernels.fft", kernels, "fft", None),
        ("kernels.fft", kernels, "ifft", None),
        ("krylov.spectral_bounds", krylov, "spectral_bounds", None),
        ("krylov.next_shift", krylov, "next_shift", None),
        ("solver.inner_fft_smw", solver, "inner_solve_fft_smw", _projected_order),
        ("solver.inner_sequential", solver, "inner_solve_sequential",
         _projected_order),
    ]
    methods = [("discretization.operator_solve", discretization.SpaceOperator, "solve")]
    for cls in (krylov.ExtendedKrylovBasis, krylov.RationalKrylovBasis):
        methods += [("krylov.init", cls, "__init__"),
                    ("krylov.step", cls, "step"),
                    ("krylov.projections", cls, "projections")]
    return functions, methods


@contextmanager
def instrument(tracer):
    """Record spans into ``tracer`` for every layer call made inside."""
    functions, methods = _targets()
    modules = [m for key, m in list(sys.modules.items())
               if key == "evosylv" or key.startswith("evosylv.")]
    patches = []
    try:
        for name, owner, attr, size in functions:
            original = getattr(owner, attr)
            wrapper = _traced(tracer, name, original, size)
            for module in modules:
                bound = [key for key, value in vars(module).items() if value is original]
                for key in bound:
                    patches.append((module, key, original))
                    setattr(module, key, wrapper)
        for name, cls, attr in methods:
            original = vars(cls)[attr]
            patches.append((cls, attr, original))
            setattr(cls, attr, _traced(tracer, name, original))
        yield tracer
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


@dataclass
class Totals:
    seconds: float = 0.0
    self_seconds: float = 0.0
    calls: int = 0
    errors: int = 0
    max_size: int = 0


def layer_totals(spans):
    """Per span name: total and self time, calls, raised errors and the
    largest recorded size.

    Self time is a span's duration minus the time its direct children cover;
    children never overlap because calls nest on one thread.
    """
    covered = defaultdict(float)
    for s in spans:
        if s.parent is not None:
            covered[s.parent] += s.end - s.start
    totals = defaultdict(Totals)
    for i, s in enumerate(spans):
        t = totals[s.name]
        t.seconds += s.end - s.start
        t.self_seconds += s.end - s.start - covered[i]
        t.calls += 1
        t.errors += s.error is not None
        t.max_size = max(t.max_size, s.size or 0)
    return dict(totals)
