"""Space-time solve benchmark for evosylv.

Run from the repository root:

    python3 bench/run.py --workload heat2d_rational --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run. The last stdout line is one JSON object
with the keys correct, attempted, failed and metrics; the full record,
with per-sample figures, the environment and (traced) the spans, is written
under bench/results/. ``--workload all`` runs every workload in its own
process, one after the other, since peak memory is a per-process figure.
"""

import argparse
import json
import subprocess
import sys

import bootstrap


def parse(argv):
    from workloads import WORKLOADS
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS) + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def run_all(args):
    """Each workload in a child process; prints their tables and one
    combined JSON line. Fails only when a workload's process fails."""
    from workloads import WORKLOADS
    status = 0
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace)],
            stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode != 0 or not lines:
            combined["correct"] = False
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None):
    args = parse(argv)
    if args.workload == "all":
        return run_all(args)
    import harness
    from workloads import WORKLOADS
    record = harness.run(WORKLOADS[args.workload], args.seed, args.seconds, args.trace)
    path = harness.write_result(record)
    print(harness.table(record))
    print(f"  full record: {path.relative_to(bootstrap.ROOT)}")
    print(harness.summary_line(record), flush=True)
    return 0


if __name__ == "__main__":
    bootstrap.prepare()
    sys.exit(main())
