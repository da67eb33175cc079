"""Child processes of the benchmark, started by ``harness``.

    child.py sample <workload JSON> <seed> <mode> <want rhs: 0|1>
        One set-up plus solve (mode plain, traced or alloc). Writes an npz
        with the sample record and its arrays to stdout.
    child.py reference <workload JSON>
        Reads the right-hand-side factors as an npz on stdin and writes the
        time-stepping oracle's first snapshots and its time to stdout.
"""

import sys

import bootstrap

if __name__ == "__main__":
    bootstrap.prepare()
    import harness

    if sys.argv[1] == "sample":
        harness.sample_child(sys.argv[2:], sys.stdout.buffer)
    elif sys.argv[1] == "reference":
        harness.reference_child(sys.argv[2:], sys.stdin.buffer, sys.stdout.buffer)
    else:
        sys.exit(f"child.py: unknown command {sys.argv[1]!r}")
