"""Process preparation shared by the benchmark's entry points.

Must run before numpy is imported: OpenBLAS reads its thread count once,
when the library loads.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def prepare():
    """Cap BLAS threads at the usable CPU count and put the checkout's
    ``src`` first on the import path.

    Exits with a non-zero status when the checkout holds no evosylv
    sources, so the benchmark never measures an installed copy.
    """
    if not (SRC / "evosylv" / "__init__.py").is_file():
        sys.exit(f"bench: no evosylv sources under {SRC}")
    cap = str(len(os.sched_getaffinity(0)))
    for var in BLAS_THREAD_VARS:
        os.environ[var] = cap
    sys.path.insert(0, str(SRC))
