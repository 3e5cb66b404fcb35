"""Time one cold set-up of a workload in this fresh interpreter.

    python3 perfbench/coldsetup.py campus-day 1

Prints the seconds from this interpreter's start to the point where
the workload's first timed call would begin: the set-up ``run.py``
measures for itself, taken again cold.  ``run.py`` runs this between
its iterations and reports the median of these and its own set-up as
``setup_s``.
"""

import time

STARTED = time.perf_counter()

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench.run import set_up  # noqa: E402
from perfbench.tracing import Probes  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402


def main(name: str, seed: int) -> int:
    workload = WORKLOADS[name](seed, Probes(), ROOT / ".perfbench_tmp")
    try:
        state = set_up(workload)
        seconds = time.perf_counter() - STARTED
        workload.release(state)
    finally:
        workload.close()
        workload.probes.uninstall()
    print(seconds)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], int(sys.argv[2])))
