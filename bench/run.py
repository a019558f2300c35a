"""Benchmark entry point.

    python3 bench/run.py --workload closed_1q --seed 0 --seconds 16 --trace 0

Pins the thread counts before numpy is first imported, then hands over
to harness.main.  The last line of standard output is one JSON object
with the result; the lines before it are the human-readable report.
Exits with code 2 when the checkout holds no holonomy_lab sources.
"""

import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Sweep workers times BLAS threads stays within the CPUs this process may use.
BLAS_THREADS = 1
SWEEP_THREADS = 2


def pin_threads() -> None:
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)
    os.environ["HOLONOMY_LAB_THREADS"] = str(max(1, min(SWEEP_THREADS, nproc // BLAS_THREADS)))


if __name__ == "__main__":
    if not (ROOT / "src" / "holonomy_lab" / "__init__.py").is_file():
        print(f"no holonomy_lab sources under {ROOT / 'src'}", file=sys.stderr)
        sys.exit(2)
    pin_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import harness
    sys.exit(harness.main(sys.argv[1:]))
