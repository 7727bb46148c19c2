"""One set-up of a workload in a fresh interpreter; prints its seconds.

Set-up is importing the library and building the workload's models,
catalogs and grids.  run.py starts this script several times and reports the
median, so that work moved into set-up shows in ``setup_s``.

    python3 perfbench/probe.py <workload> <seed>
"""

import time

T0 = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from workloads import WORKLOADS  # noqa: E402

if __name__ == "__main__":
    workload = WORKLOADS[sys.argv[1]](int(sys.argv[2]))
    workload.setup()
    print(repr(time.perf_counter() - T0))
