"""Closed-loop measurement of one workload: set up, solve, verify, report.

One client, one solve at a time: the next sample starts only after the
previous one has finished and been verified. Each sample runs in a fresh
process (``child.py sample``), as one CLI call would, so that its peak
resident memory is its own and no sample inherits another's heap. Set-up
and solve call the library in the same order as ``evosylv.cli.run``.

Every sample is verified outside the timed region. Because Sigma is lower
triangular, the first K columns of U solve the system truncated to K steps,
so the oracle ``timestep_solve`` on the K-step problem gives an affordable
reference for the first K snapshots. It runs once per invocation, in a
process of its own (``child.py reference``).
"""

import io
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
import tracemalloc
from contextlib import nullcontext
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np
import scipy

from evosylv import discretization, presets, solver, timeops
from evosylv.discretization import LowRankRhs
from evosylv.oracles import timestep_solve

import tracing
from workloads import BDF_ORDER, TOL

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"

#: Samples per run at least, however long they take.
MIN_SAMPLES = 2
#: A sample whose set-up is cheap repeats the set-up alone this many times
#: after its solve, when that fits in SETUP_EXTRA_BUDGET_S.
SETUP_REPEATS = 10
SETUP_EXTRA_BUDGET_S = 1.0
#: Relative error allowed on the checked prefix.
PREFIX_GATE = 100 * TOL
#: Time allowed for one sample or reference process.
CHILD_TIMEOUT_S = 150

END_TO_END_UNITS = {
    "time_to_solution_s": "s",
    "setup_s": "s",
    "solve_s": "s",
    "peak_rss_mib": "MiB",
    "iterations": "count",
    "verified_frac": "ratio",
}

# name: (span name, field of tracing.Totals, unit)
SPAN_METRICS = {
    "presets.get_preset_s": ("presets.get_preset", "seconds", "s"),
    "discretization.assemble_space_operator_s":
        ("discretization.assemble_space_operator", "seconds", "s"),
    "discretization.assemble_rhs_s": ("discretization.assemble_rhs", "seconds", "s"),
    "discretization.compress_snapshots_s":
        ("discretization.compress_snapshots", "seconds", "s"),
    "discretization.compress_snapshots_calls":
        ("discretization.compress_snapshots", "calls", "count"),
    "discretization.operator_solve_s": ("discretization.operator_solve", "seconds", "s"),
    "discretization.operator_solve_calls":
        ("discretization.operator_solve", "calls", "count"),
    "timeops.build_time_operator_s": ("timeops.build_time_operator", "seconds", "s"),
    "kernels.sparse_factorize_s": ("kernels.sparse_factorize", "seconds", "s"),
    "kernels.sparse_factorize_calls": ("kernels.sparse_factorize", "calls", "count"),
    "kernels.sparse_solve_s": ("kernels.sparse_solve", "seconds", "s"),
    "kernels.sparse_solve_calls": ("kernels.sparse_solve", "calls", "count"),
    "kernels.dense_eig_s": ("kernels.dense_eig", "seconds", "s"),
    "kernels.dense_eig_calls": ("kernels.dense_eig", "calls", "count"),
    "kernels.dense_eig_max_order": ("kernels.dense_eig", "max_size", "count"),
    "kernels.fft_s": ("kernels.fft", "seconds", "s"),
    "kernels.fft_calls": ("kernels.fft", "calls", "count"),
    "krylov.init_s": ("krylov.init", "self_seconds", "s"),
    "krylov.step_s": ("krylov.step", "self_seconds", "s"),
    "krylov.step_calls": ("krylov.step", "calls", "count"),
    "krylov.projections_s": ("krylov.projections", "seconds", "s"),
    "krylov.spectral_bounds_s": ("krylov.spectral_bounds", "seconds", "s"),
    "krylov.next_shift_s": ("krylov.next_shift", "seconds", "s"),
    "solver.inner_fft_smw_s": ("solver.inner_fft_smw", "seconds", "s"),
    "solver.inner_fft_smw_calls": ("solver.inner_fft_smw", "calls", "count"),
    "solver.inner_fft_smw_fallbacks": ("solver.inner_fft_smw", "errors", "count"),
    "solver.inner_sequential_s": ("solver.inner_sequential", "seconds", "s"),
    "solver.inner_sequential_calls": ("solver.inner_sequential", "calls", "count"),
    "solver.outer_self_s": ("solver.solve", "self_seconds", "s"),
}

PER_LAYER_UNITS = {name: unit for name, (_, _, unit) in SPAN_METRICS.items()}
PER_LAYER_UNITS.update({
    "discretization.rhs_width": "count",
    "krylov.basis_dim": "count",
    "solver.inner_fft_smw_success_ratio": "ratio",
    "solver.inner_max_order": "count",
    "solver.memory_units": "count",
    "solver.final_residual": "ratio",
    "oracles.reference_s": "s",
    "oracles.check_s": "s",
    "oracles.prefix_error": "ratio",
    "setup.peak_alloc_mib": "MiB",
    "solve.peak_alloc_mib": "MiB",
    "trace.overhead_frac": "ratio",
})


@dataclass
class Sample:
    """One set-up plus solve, with its verification."""

    mode: str = "plain"
    wall_s: float = 0.0
    setup_s: float = None
    solve_s: float = None
    extra_setup_s: list = field(default_factory=list)
    peak_rss_mib: float = None
    setup_alloc_mib: float = None
    solve_alloc_mib: float = None
    iterations: int = None
    converged: bool = None
    final_residual: float = None
    basis_dim: int = None
    memory_units: int = None
    rhs_width: int = None
    prefix_error: float = None
    check_s: float = None
    verified: bool = False
    error: str = None
    layers: dict = None

    @property
    def time_to_solution_s(self):
        return self.setup_s + self.solve_s


# --- inside a sample process ---------------------------------------------------


def set_up(w):
    """Preset, space operator, right-hand side and time operator."""
    spec = presets.get_preset(w.preset, w.n, w.ell, s=BDF_ORDER, epsilon=w.epsilon)
    op = discretization.assemble_space_operator(spec)
    rhs = discretization.assemble_rhs(spec, op)
    timeop = timeops.build_time_operator(BDF_ORDER, w.ell - BDF_ORDER + 1)
    return op, rhs, timeop


def solve(w, op, rhs, timeop, seed):
    """The workload's solver; ``seed`` is the only random input (RKSM)."""
    kwargs = {"seed": seed} if w.solver == "solve_rksm" else {}
    return getattr(solver, w.solver)(op, rhs, timeop, tol=TOL, **kwargs)


def prefix_snapshots(sol, K):
    """The first K columns of U = (kron of bases) Y, as an n^d x K matrix.

    Equal to stacking ``extract_snapshot(sol, k)`` for k = 1..K, but with
    mode products: the library's 3D path contracts all four factors in one
    unoptimized einsum, about half a second per snapshot at n = 32.
    """
    Y = sol.Y[:, :K]
    if sol.layout == "full":
        return sol.bases[0] @ Y
    d = len(sol.bases)
    rs = [V.shape[1] for V in sol.bases]
    inner, outer = "abc"[:d], "ijk"[:d]
    subscripts = ",".join(o + i for o, i in zip(outer, inner)) \
        + f",{inner}q->{outer}q"
    U = np.einsum(subscripts, *sol.bases, Y.reshape(rs + [K], order="F"),
                  optimize=True)
    return U.reshape(-1, K, order="F")


def measure(w, seed, mode, want_rhs=False):
    """One sample in this process.

    ``mode`` is "plain" (timed), "traced" (spans around every layer call) or
    "alloc" (tracemalloc peaks of set-up and solve). Returns a dict with the
    Sample, the first ``w.prefix`` snapshots, the spans when traced, and
    with ``want_rhs`` the right-hand-side factors the reference needs.
    """
    s = Sample(mode=mode)
    out = {"sample": s, "prefix": None, "rhs": None, "spans": None}
    tracer = tracing.Tracer() if mode == "traced" else None
    span = tracer.span if tracer else (lambda name: nullcontext())
    if mode == "alloc":
        tracemalloc.start()
    t0 = time.perf_counter()
    try:
        with tracing.instrument(tracer) if tracer else nullcontext(), span("sample"):
            with span("setup"):
                op, rhs, timeop = set_up(w)
            t1 = time.perf_counter()
            if mode == "alloc":
                s.setup_alloc_mib = tracemalloc.get_traced_memory()[1] / 2**20
                base = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
            with span("solver.solve"):
                sol, rep = solve(w, op, rhs, timeop, seed)
            t2 = time.perf_counter()
            if mode == "alloc":
                s.solve_alloc_mib = (tracemalloc.get_traced_memory()[1] - base) / 2**20
    except Exception:  # a failed sample is recorded, the run goes on
        s.error = traceback.format_exc()
        return out
    finally:
        s.wall_s = time.perf_counter() - t0
        if mode == "alloc":
            tracemalloc.stop()
        if tracer:
            out["spans"] = tracer.spans
    s.setup_s, s.solve_s = t1 - t0, t2 - t1
    s.peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    s.iterations = rep.iterations
    s.converged = rep.converged
    s.final_residual = rep.residual_history[-1]
    s.basis_dim = sum(rep.basis_dims)
    s.memory_units = rep.memory_units
    s.rhs_width = rhs.width
    t3 = time.perf_counter()
    out["prefix"] = prefix_snapshots(sol, w.prefix)
    s.check_s = time.perf_counter() - t3
    if want_rhs:
        out["rhs"] = (rhs.left, rhs.right[:w.prefix])
    del op, rhs, timeop, sol, rep
    if mode == "plain" and s.setup_s * SETUP_REPEATS < SETUP_EXTRA_BUDGET_S:
        for _ in range(SETUP_REPEATS):
            t4 = time.perf_counter()
            set_up(w)
            s.extra_setup_s.append(time.perf_counter() - t4)
    return out


def sample_child(argv, stdout):
    """Body of a sample process: workload JSON, seed, mode and want-rhs flag
    in ``argv``; an npz with the sample and its arrays out."""
    from workloads import Workload
    w = Workload(**json.loads(argv[0]))
    out = measure(w, int(argv[1]), argv[2], want_rhs=argv[3] == "1")
    arrays = {"sample": np.array(json.dumps(asdict(out["sample"])))}
    if out["prefix"] is not None:
        arrays["prefix"] = out["prefix"]
    if out["rhs"] is not None:
        arrays["left"], arrays["right"] = out["rhs"]
    if out["spans"] is not None:
        arrays["spans"] = np.array(json.dumps([asdict(sp) for sp in out["spans"]]))
    buf = io.BytesIO()
    np.savez(buf, **arrays)
    stdout.write(buf.getvalue())


def reference_child(argv, stdin, stdout):
    """Body of the reference process: workload JSON in ``argv``, rhs factors
    in, oracle prefix out."""
    from workloads import Workload
    w = Workload(**json.loads(argv[0]))
    with np.load(io.BytesIO(stdin.read())) as data:
        left, right = data["left"], data["right"]
    spec = presets.get_preset(w.preset, w.n, w.ell, s=BDF_ORDER, epsilon=w.epsilon)
    op = discretization.assemble_space_operator(spec)
    t0 = time.perf_counter()
    U = timestep_solve(op, LowRankRhs(left, right),
                       timeops.build_time_operator(BDF_ORDER, w.prefix)).U
    seconds = time.perf_counter() - t0
    buf = io.BytesIO()
    np.savez(buf, U=U, seconds=seconds)
    stdout.write(buf.getvalue())


# --- in the benchmark process ---------------------------------------------------


def run_sample_in_child(w, seed, mode, want_rhs=False):
    """``measure`` in a fresh process; same result shape."""
    cmd = [sys.executable, str(HERE / "child.py"), "sample", json.dumps(asdict(w)),
           str(seed), mode, "1" if want_rhs else "0"]
    out = {"sample": Sample(mode=mode), "prefix": None, "rhs": None, "spans": None}
    try:
        proc = subprocess.run(cmd, capture_output=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        out["sample"].error = f"sample process timed out after {CHILD_TIMEOUT_S} s"
        return out
    if proc.returncode != 0:
        out["sample"].error = (f"sample process exited with {proc.returncode}:\n"
                               + proc.stderr.decode(errors="replace")[-4000:])
        return out
    with np.load(io.BytesIO(proc.stdout)) as data:
        out["sample"] = Sample(**json.loads(str(data["sample"])))
        if "prefix" in data:
            out["prefix"] = data["prefix"]
        if "left" in data:
            out["rhs"] = (data["left"], data["right"])
        if "spans" in data:
            out["spans"] = [tracing.Span(**sp) for sp in json.loads(str(data["spans"]))]
    return out


def reference_prefix(w, left, right):
    """First ``w.prefix`` snapshots from the time-stepping oracle, computed
    in a child process. Returns (U, oracle seconds)."""
    buf = io.BytesIO()
    np.savez(buf, left=left, right=right)
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), "reference", json.dumps(asdict(w))],
        input=buf.getvalue(), capture_output=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError("reference process failed:\n" + proc.stderr.decode())
    with np.load(io.BytesIO(proc.stdout)) as data:
        return data["U"], float(data["seconds"])


def layer_metrics(spans, s):
    """Per-layer metrics of one traced sample."""
    totals = tracing.layer_totals(spans)
    out = {name: getattr(totals.get(span, tracing.Totals()), attr)
           for name, (span, attr, _) in SPAN_METRICS.items()}
    smw = totals.get("solver.inner_fft_smw", tracing.Totals())
    seq = totals.get("solver.inner_sequential", tracing.Totals())
    out["solver.inner_fft_smw_success_ratio"] = \
        (smw.calls - smw.errors) / smw.calls if smw.calls else 0.0
    out["solver.inner_max_order"] = max(smw.max_size, seq.max_size)
    out["discretization.rhs_width"] = s.rhs_width
    out["krylov.basis_dim"] = s.basis_dim
    out["solver.memory_units"] = s.memory_units
    out["solver.final_residual"] = s.final_residual
    out["oracles.check_s"] = s.check_s
    out["oracles.prefix_error"] = s.prefix_error
    return out


class Bench:
    """Runs the samples of one workload and keeps the oracle reference.

    ``run_sample`` is ``run_sample_in_child`` or, in tests, ``measure``.
    """

    def __init__(self, w, seed, run_sample=run_sample_in_child):
        self.w = w
        self.seed = seed
        self.run_sample = run_sample
        self.ref = None
        self.reference_s = None
        self.samples = []
        self.spans = []

    def sample(self, mode="plain"):
        """Take and verify one sample."""
        out = self.run_sample(self.w, self.seed, mode, want_rhs=self.ref is None)
        s = out["sample"]
        self.samples.append(s)
        if out["spans"] is not None:
            self.spans.append(out["spans"])
        if s.error is not None:
            return s
        if self.ref is None:
            self.ref, self.reference_s = reference_prefix(self.w, *out["rhs"])
        t0 = time.perf_counter()
        s.prefix_error = float(np.linalg.norm(out["prefix"] - self.ref)
                               / np.linalg.norm(self.ref))
        s.check_s += time.perf_counter() - t0
        s.verified = bool(s.converged and s.final_residual <= TOL
                          and s.prefix_error <= PREFIX_GATE)
        if out["spans"] is not None:
            s.layers = layer_metrics(out["spans"], s)
        return s

    def loop(self, seconds, min_samples, mode="plain"):
        """Closed loop: take at least ``min_samples`` samples, and more while
        another one of average length would end less than half a sample
        past ``seconds`` of set-up and solve time, so that a run overshoots
        by half a sample at most. Process start, verification and the
        reference are not counted."""
        done = []
        while len(done) < min_samples or \
                sum(s.wall_s for s in done) * (1 + 0.5 / len(done)) < seconds:
            done.append(self.sample(mode))
        return done


def _median(values):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else None


def end_to_end(bench, seconds):
    """Timed samples; medians over samples, verified fraction over all."""
    samples = bench.loop(seconds, MIN_SAMPLES)
    done = [s for s in samples if s.error is None]
    setups = [t for s in done for t in [s.setup_s] + s.extra_setup_s]
    values = {
        "time_to_solution_s": _median(s.time_to_solution_s for s in done),
        "setup_s": _median(setups),
        "solve_s": _median(s.solve_s for s in done),
        "peak_rss_mib": _median(s.peak_rss_mib for s in done),
        "iterations": _median(s.iterations for s in done),
        "verified_frac": sum(s.verified for s in samples) / len(samples),
    }
    counts = {name: len(done) for name in values}
    counts["setup_s"] = len(setups)
    counts["verified_frac"] = len(samples)
    return values, counts


def per_layer(bench, seconds):
    """Untraced samples, traced samples and one tracemalloc sample; the
    per-layer metrics are medians over the traced ones."""
    plain = [s for s in bench.loop(seconds / 2, 1) if s.error is None]
    traced = [s for s in bench.loop(seconds / 2, 1, "traced") if s.error is None]
    alloc = bench.sample("alloc")
    values = {name: _median(s.layers[name] for s in traced)
              for name in PER_LAYER_UNITS if traced and name in traced[0].layers}
    values["oracles.reference_s"] = bench.reference_s
    values["setup.peak_alloc_mib"] = alloc.setup_alloc_mib
    values["solve.peak_alloc_mib"] = alloc.solve_alloc_mib
    if plain and traced:
        values["trace.overhead_frac"] = (
            _median(s.time_to_solution_s for s in traced)
            / _median(s.time_to_solution_s for s in plain) - 1.0)
    counts = {name: len(traced) for name in values}
    counts.update({"oracles.reference_s": 1, "setup.peak_alloc_mib": 1,
                   "solve.peak_alloc_mib": 1})
    return {k: v for k, v in values.items() if v is not None}, counts


def environment():
    """Versions, CPU and thread settings a result depends on."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "machine": platform.machine(),
        "git_commit": _git_commit(),
    }


def _git_commit():
    """Commit of the checkout, or None when it is not a git work tree."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def run(w, seed, seconds, trace, run_sample=run_sample_in_child):
    """Measure one workload; returns the result record."""
    bench = Bench(w, seed, run_sample)
    if trace:
        values, counts = per_layer(bench, seconds)
        units = PER_LAYER_UNITS
    else:
        values, counts = end_to_end(bench, seconds)
        units = END_TO_END_UNITS
    failed = sum(not s.verified for s in bench.samples)
    return {
        "workload": asdict(w),
        "seed": seed,
        "seconds": seconds,
        "trace": int(trace),
        "tol": TOL,
        "prefix_gate": PREFIX_GATE,
        "environment": environment(),
        "samples": [asdict(s) for s in bench.samples],
        "attempted": len(bench.samples),
        "failed": failed,
        "correct": failed == 0 and all(name in values for name in units),
        "metrics": {name: {"value": values.get(name), "unit": unit,
                           "samples": counts.get(name, 0)}
                    for name, unit in units.items()},
        "spans": [[asdict(sp) for sp in spans] for spans in bench.spans],
    }


def write_result(record):
    """Store the full record under bench/results; spans go to a JSONL file,
    one line per span, tagged with the traced sample's number."""
    RESULTS.mkdir(exist_ok=True)
    stem = f"{record['workload']['name']}-seed{record['seed']}-trace{record['trace']}"
    spans = record.pop("spans")
    if spans:
        with open(RESULTS / f"{stem}-spans.jsonl", "w") as fh:
            for number, sample_spans in enumerate(spans, 1):
                for sp in sample_spans:
                    fh.write(json.dumps({"sample": number, **sp}) + "\n")
    with open(RESULTS / f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    return RESULTS / f"{stem}.json"


def summary_line(record):
    """The last stdout line: correct, attempted, failed and the metrics."""
    return json.dumps({
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {name: {"value": m["value"], "unit": m["unit"]}
                    for name, m in record["metrics"].items()},
    })


def table(record):
    """Human-readable metric lines with units and sample counts."""
    w = record["workload"]
    lines = [f"{w['name']}: {w['preset']} n={w['n']} ell={w['ell']} {w['solver']} "
             f"seed={record['seed']} trace={record['trace']} "
             f"attempted={record['attempted']} failed={record['failed']}"]
    for name, m in record["metrics"].items():
        value = "-" if m["value"] is None else f"{m['value']:.6g}"
        lines.append(f"  {name:42s} {value:>12s} {m['unit']:6s} n={m['samples']}")
    if not record["trace"]:
        failed_frac = record["failed"] / record["attempted"]
        lines.append(f"  {'failed_frac':42s} {failed_frac:12.6g} {'ratio':6s} "
                     f"n={record['attempted']}")
    return "\n".join(lines)
