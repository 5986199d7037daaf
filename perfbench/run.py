"""Benchmark of the gjbd solvers.

    python3 perfbench/run.py --workload sweep-small --seed 0 --seconds 10 --trace 0

Runs one workload (or all three with ``--workload all``) as a closed loop
with one caller for ``--seconds``, checks every output, prints a table and,
as the last line, one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``: the end-to-end metrics, or with ``--trace 1`` the per-layer
ones. gjbd is imported from ``src/`` of the checkout this file sits in.
"""

import os
import sys
import time
from pathlib import Path

_START = time.perf_counter()

# BLAS reads its thread count when it is loaded, so the pin must precede
# the first numpy import
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

_HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(_HERE.parent / "src"), str(_HERE)]

try:
    import bench_core
except ImportError as exc:
    print(f"error: cannot import the benchmark or gjbd: {exc}", file=sys.stderr)
    sys.exit(2)

if __name__ == "__main__":
    sys.exit(bench_core.main(sys.argv[1:], time.perf_counter() - _START))
