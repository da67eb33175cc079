"""Command-line driver: presets, sweeps, and CSV reports.

Examples
--------
Solve the 2D heat benchmark with the tensorized extended Krylov method::

    evosylv --preset example2 --n 64 --ell 1024 --tol 1e-6 --out run.csv

Reproduce the space-convergence study (order-2 slope) on example1::

    evosylv --preset example1 --sweep space --s 2 --ell 1024 --out sweep.csv

Configuration can also come from a flat key=value file via --config;
explicit flags override file entries. EVOSYLV_LOG=DEBUG raises verbosity.
"""

import argparse
import logging
import os
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, fields, replace

import numpy as np

from .discretization import assemble_rhs, assemble_space_operator, sample_space_function
from .errors import ConfigError, EvosylvError, NoConvergence
from .oracles import dense_kron_solve, timestep_solve
from .presets import PRESET_NAMES, get_preset
from .solver import materialize, solve_eksm, solve_eksm_separable, solve_rksm
from .timeops import build_time_operator

logger = logging.getLogger("evosylv")

CSV_HEADER = ("preset,d,n,ell,s,method,inner,iterations,final_residual,"
              "wall_time_s,memory_units,error_vs_oracle,error_vs_analytic")

#: Skip the oracle comparison above this many solution entries.
ORACLE_ENTRY_LIMIT = 2 ** 23

METHODS = ("eksm", "rksm", "timestep-oracle", "dense-oracle")
SEPARABLE_MODES = ("auto", "on", "off")

SPACE_SWEEP_POINTS = (33, 65, 129, 257)
TIME_SWEEP_POINTS = (8, 16, 32, 64)


@dataclass
class RunConfig:
    preset: str = "example1"
    n: int = 65
    ell: int = 64
    s: int = 1
    method: str = "eksm"
    separable: str = "auto"
    tol: float = 1e-6
    m_max: int = 60
    epsilon: float = None
    output_path: str = None
    seed: int = 0

    def validate(self):
        if self.preset not in PRESET_NAMES:
            raise ConfigError(f"unknown preset {self.preset!r}")
        if self.method not in METHODS:
            raise ConfigError(f"method must be one of {METHODS}")
        if self.separable not in SEPARABLE_MODES:
            raise ConfigError(f"separable must be one of {SEPARABLE_MODES}")
        if self.tol <= 0 or self.m_max < 1:
            raise ConfigError("need tol > 0 and m_max >= 1")


@dataclass
class RunRecord:
    preset: str
    d: int
    n: int
    ell: int
    s: int
    method: str
    inner: str
    iterations: int
    final_residual: float
    wall_time_s: float
    memory_units: int
    error_vs_oracle: float
    error_vs_analytic: float
    # config echo, not part of the CSV schema
    tol: float = None
    m_max: int = None
    epsilon: float = None
    separable: str = None
    seed: int = None
    tensorized: bool = False

    def csv_row(self):
        def num(v, fmt="{:.6e}"):
            return "" if v is None else fmt.format(v)

        return ",".join([
            self.preset, str(self.d), str(self.n), str(self.ell), str(self.s),
            self.method, self.inner, str(self.iterations),
            num(self.final_residual), num(self.wall_time_s),
            str(self.memory_units), num(self.error_vs_oracle),
            num(self.error_vs_analytic),
        ])


def _relative_error(U, U_ref):
    denom = np.linalg.norm(U_ref)
    if denom == 0.0:
        return float(np.linalg.norm(U))
    return float(np.linalg.norm(U - U_ref) / denom)


def run(config):
    """Execute one configuration and produce a RunRecord."""
    config.validate()
    spec = get_preset(config.preset, config.n, config.ell, s=config.s,
                      epsilon=config.epsilon)
    op = assemble_space_operator(spec)
    rhs = assemble_rhs(spec, op)
    L = config.ell - config.s + 1
    timeop = build_time_operator(config.s, L)

    record = dict(preset=config.preset, d=spec.grid.d, n=config.n,
                  ell=config.ell, s=config.s, method=config.method,
                  inner="fft_smw", error_vs_oracle=None,
                  error_vs_analytic=None, tol=config.tol, m_max=config.m_max,
                  epsilon=config.epsilon, separable=config.separable,
                  seed=config.seed)

    if config.method in ("timestep-oracle", "dense-oracle"):
        solver = timestep_solve if config.method == "timestep-oracle" else dense_kron_solve
        t0 = time.perf_counter()
        oracle = solver(op, rhs, timeop)
        wall = time.perf_counter() - t0
        U = oracle.U
        record.update(iterations=L, final_residual=None, wall_time_s=wall,
                      memory_units=op.size * L)
    else:
        if config.method == "eksm":
            use_sep = rhs.separable is not None and op.factors is not None \
                and spec.grid.d >= 2
            if config.separable == "on" and not use_sep:
                raise ConfigError("separable=on but data or operator are not separable")
            if config.separable == "off":
                use_sep = False
            record["tensorized"] = use_sep
            solve = solve_eksm_separable if use_sep else solve_eksm
            sol, rep = solve(op, rhs, timeop, tol=config.tol, m_max=config.m_max)
        else:
            if config.separable == "on":
                raise ConfigError("the rational method has no tensorized variant here")
            sol, rep = solve_rksm(op, rhs, timeop, tol=config.tol,
                                  m_max=config.m_max, seed=config.seed)
        record.update(iterations=rep.iterations,
                      final_residual=rep.residual_history[-1],
                      wall_time_s=rep.wall_time, memory_units=rep.memory_units,
                      inner=rep.inner_solver)
        if not rep.converged:
            rec = RunRecord(**record)
            raise NoConvergence(
                f"no convergence in {rep.iterations} iterations "
                f"(residual {record['final_residual']:.3e}); row: {rec.csv_row()}")
        U = None
        if op.size * L <= ORACLE_ENTRY_LIMIT:
            U = materialize(sol)
            record["error_vs_oracle"] = _relative_error(
                U, timestep_solve(op, rhs, timeop).U)

    if spec.analytic is not None and U is not None:
        times = spec.grid.tau * np.arange(config.s, config.ell + 1)
        U_exact = np.column_stack([
            sample_space_function(spec.grid, lambda *x, _t=t: spec.analytic(*x, _t))
            for t in times])
        record["error_vs_analytic"] = _relative_error(U, U_exact)
    return RunRecord(**record)


def convergence_study(base_config, sweep, points=None, jobs=1):
    """Refinement sweep on example1; returns (records, pairs, slope).

    ``pairs`` holds (h, error) for the space sweep and (tau, error) for the
    time sweep; the slope is the least-squares log-log fit. jobs > 1 runs
    sweep points concurrently with deterministic aggregation order.
    """
    if base_config.preset != "example1":
        raise ConfigError("convergence studies need the analytic example1 preset")
    if sweep not in ("space", "time"):
        raise ConfigError("sweep must be 'space' or 'time'")
    if points is None:
        points = SPACE_SWEEP_POINTS if sweep == "space" else TIME_SWEEP_POINTS
    configs = [replace(base_config, n=p) if sweep == "space"
               else replace(base_config, ell=p) for p in points]
    if jobs > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            recs = list(pool.map(run, configs))
    else:
        recs = [run(cfg) for cfg in configs]
    records, pairs = [], []
    for p, rec in zip(points, recs):
        if rec.error_vs_analytic is None:
            raise ConfigError("sweep point too large for the analytic comparison")
        x = np.pi / (p - 1) if sweep == "space" else 1.0 / p
        records.append(rec)
        pairs.append((x, rec.error_vs_analytic))
        logger.info("sweep %s point %s: error %.3e", sweep, p, rec.error_vs_analytic)
    xs = np.log([p[0] for p in pairs])
    ys = np.log([p[1] for p in pairs])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return records, pairs, slope


def emit_report(records, path):
    """Write the CSV (fixed header, rows sorted by preset, n, ell) and
    return a human-readable summary string."""
    if not records:
        raise ConfigError("emit_report needs at least one record")
    rows = sorted(records, key=lambda r: (r.preset, r.n, r.ell))
    lines = [CSV_HEADER] + [r.csv_row() for r in rows]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    summary = []
    for r in rows:
        if r.method == "eksm" and r.tensorized:
            formula = f"2(m+1)*sum p_i*n + 2^d(m+1)^d*prod p_i*ell = {r.memory_units}"
        elif r.method == "eksm":
            formula = f"2(m+1)(p+1)(n^d+ell) = {r.memory_units}"
        elif r.method == "rksm":
            formula = f"(m+1)(p+1)(n^d+ell) = {r.memory_units}"
        else:
            formula = f"{r.memory_units} stored entries"
        eps = "" if r.epsilon is None else f" eps={r.epsilon:g}"
        summary.append(
            f"{r.preset} n={r.n} ell={r.ell} s={r.s}{eps} {r.method}: "
            f"{r.iterations} it, residual "
            f"{'-' if r.final_residual is None else format(r.final_residual, '.3e')}, "
            f"memory {formula} vector units")
    return "\n".join(summary)


def emit_plot_data(pairs, path):
    """Two-column refinement,error file for external plotting."""
    with open(path, "w") as fh:
        fh.write("refinement,error\n")
        for x, e in pairs:
            fh.write(f"{x:.12e},{e:.12e}\n")


def _parse_config_file(path):
    values = {}
    with open(path) as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"bad config line: {raw.rstrip()}")
            key, val = (part.strip() for part in line.split("=", 1))
            values[key] = val
    return values


_FIELD_TYPES = {f.name: f.type for f in fields(RunConfig)}


def _coerce(name, value):
    if name in ("n", "ell", "s", "m_max", "seed"):
        return int(value)
    if name in ("tol", "epsilon"):
        return float(value)
    return value


def build_parser():
    ap = argparse.ArgumentParser(prog="evosylv", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--config", help="flat key=value config file")
    ap.add_argument("--preset")
    ap.add_argument("--n", type=int)
    ap.add_argument("--ell", type=int)
    ap.add_argument("--s", type=int)
    ap.add_argument("--method", choices=METHODS)
    ap.add_argument("--separable", choices=SEPARABLE_MODES)
    ap.add_argument("--tol", type=float)
    ap.add_argument("--mmax", type=int, dest="m_max")
    ap.add_argument("--epsilon", type=float)
    ap.add_argument("--out", dest="output_path")
    ap.add_argument("--seed", type=int)
    ap.add_argument("--sweep", choices=("space", "time"),
                    help="run a convergence study instead of a single solve")
    ap.add_argument("--points", help="comma-separated sweep points")
    ap.add_argument("--jobs", type=int, default=1,
                    help="parallel sweep points (deterministic order)")
    return ap


def _config_from_args(args):
    values = {}
    if args.config:
        for key, val in _parse_config_file(args.config).items():
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _coerce(key, val)
    for name in _FIELD_TYPES:
        arg = getattr(args, name, None)
        if arg is not None:
            values[name] = arg
    return RunConfig(**values)


def main(argv=None):
    level = os.environ.get("EVOSYLV_LOG", "WARNING").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING),
                        format="%(name)s %(levelname)s %(message)s")
    args = build_parser().parse_args(argv)
    try:
        config = _config_from_args(args)
        if args.sweep:
            points = None
            if args.points:
                points = [int(p) for p in args.points.split(",")]
            records, pairs, slope = convergence_study(config, args.sweep, points,
                                                      jobs=args.jobs)
            print(f"log-log slope ({args.sweep} sweep): {slope:.3f}")
            if config.output_path:
                print(emit_report(records, config.output_path))
                emit_plot_data(pairs, config.output_path + ".plotdata.csv")
            else:
                for x, e in pairs:
                    print(f"{x:.6e} {e:.6e}")
        elif args.jobs > 1:
            raise ConfigError("--jobs applies to sweeps only")
        else:
            record = run(config)
            if config.output_path:
                print(emit_report([record], config.output_path))
            else:
                print(CSV_HEADER)
                print(record.csv_row())
    except NoConvergence as exc:
        print(f"no convergence: {exc}", file=sys.stderr)
        return 3
    except EvosylvError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
