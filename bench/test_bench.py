"""Smoke test of the benchmark itself, at tiny n and ell.

Run from the repository root:  python3 -m pytest -q bench/test_bench.py
"""

import json
import sys
from dataclasses import replace

import numpy as np
import pytest

import bootstrap

sys.path.insert(0, str(bootstrap.SRC))

import harness  # noqa: E402
import tracing  # noqa: E402
from evosylv import kernels, krylov, solver  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

TINY = {
    "heat2d_rational": dict(n=12, ell=32, prefix=8),
    "convdiff2d_lowvisc": dict(n=12, ell=32, prefix=8),
    "heat3d_tensor": dict(n=8, ell=16, prefix=4),
}
SPEC = json.loads((bootstrap.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return replace(WORKLOADS[name], **TINY[name])


@pytest.mark.parametrize("name", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_with_its_unit(name, trace):
    record = harness.run(tiny(name), seed=1, seconds=0, trace=trace)
    line = json.loads(harness.summary_line(record))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] and line["failed"] == 0 and line["attempted"] >= 1
    declared = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {k: v["unit"] for k, v in line["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in line["metrics"].values())
    for metric in line["metrics"]:
        assert metric in harness.table(record)


def test_corrupted_solution_fails_verification(monkeypatch):
    w = tiny("heat2d_rational")
    clean = harness.run(w, seed=1, seconds=0, trace=0, run_sample=harness.measure)
    original = solver.solve_rksm

    def perturbed(*args, **kwargs):
        sol, rep = original(*args, **kwargs)
        sol.Y = sol.Y * (1.0 + 1e-3)
        return sol, rep

    monkeypatch.setattr(solver, "solve_rksm", perturbed)
    record = harness.run(w, seed=1, seconds=0, trace=0, run_sample=harness.measure)
    assert clean["failed"] == 0
    assert record["failed"] == record["attempted"] > 0
    assert not record["correct"]
    assert record["metrics"]["verified_frac"]["value"] == 0.0
    assert all(s["prefix_error"] > harness.PREFIX_GATE for s in record["samples"])
    assert "failed_frac" in harness.table(record)


def test_a_raising_solve_counts_as_failed(monkeypatch):
    def broken(*args, **kwargs):
        raise np.linalg.LinAlgError("injected")

    monkeypatch.setattr(solver, "solve_eksm", broken)
    record = harness.run(tiny("convdiff2d_lowvisc"), seed=1, seconds=0, trace=0,
                         run_sample=harness.measure)
    assert record["failed"] == record["attempted"] == harness.MIN_SAMPLES
    assert "injected" in record["samples"][0]["error"]
    assert not record["correct"]


@pytest.mark.parametrize("name", sorted(TINY))
def test_prefix_snapshots_match_extract_snapshot(name):
    w = tiny(name)
    op, rhs, timeop = harness.set_up(w)
    sol, _ = harness.solve(w, op, rhs, timeop, seed=1)
    expected = np.column_stack([solver.extract_snapshot(sol, k)
                                for k in range(1, w.prefix + 1)])
    np.testing.assert_allclose(harness.prefix_snapshots(sol, w.prefix), expected,
                               rtol=1e-12, atol=1e-14 * np.abs(expected).max())


def test_span_tree_nests():
    w = tiny("convdiff2d_lowvisc")
    spans = harness.measure(w, 1, "traced")["spans"]
    assert spans[0].name == "sample" and spans[0].parent is None
    by_name = {}
    for i, s in enumerate(spans):
        by_name.setdefault(s.name, []).append(i)
        assert s.end is not None and s.start <= s.end
        if s.parent is not None:
            p = spans[s.parent]
            assert s.parent < i and p.start <= s.start and s.end <= p.end
    # a span that starts while another is open is nested inside it
    def ancestors(j):
        while spans[j].parent is not None:
            j = spans[j].parent
            yield j
    for i, s in enumerate(spans):
        for j in range(i + 1, len(spans)):
            if spans[j].start >= s.end:
                break
            assert i in set(ancestors(j))
    parent_name = lambda i: spans[spans[i].parent].name  # noqa: E731
    assert {parent_name(i) for i in by_name["presets.get_preset"]} == {"setup"}
    assert {parent_name(i) for i in by_name["krylov.step"]} == {"solver.solve"}
    assert {parent_name(i) for i in by_name["kernels.dense_eig"]} == \
        {"solver.inner_fft_smw"}
    assert {parent_name(i) for i in by_name["kernels.sparse_solve"]} == \
        {"discretization.operator_solve"}
    totals = tracing.layer_totals(spans)
    root = spans[0].end - spans[0].start
    assert sum(t.self_seconds for t in totals.values()) == pytest.approx(root, rel=1e-9)
    # the patches are undone on exit
    for fn in (solver.dense_eig, kernels.sparse_factorize, krylov.sparse_factorize,
               krylov.RationalKrylovBasis.step):
        assert not hasattr(fn, "__wrapped__")


def test_fallbacks_are_counted_from_raised_exceptions():
    tracer = tracing.Tracer()
    with pytest.raises(ValueError):
        with tracer.span("solver.inner_fft_smw"):
            raise ValueError("declined")
    with tracer.span("solver.inner_fft_smw"):
        pass
    totals = tracing.layer_totals(tracer.spans)["solver.inner_fft_smw"]
    assert (totals.calls, totals.errors) == (2, 1)
