"""Time one fresh-process set-up of a workload: package import plus input generation.

    python3 bench/probe_setup.py WORKLOAD SEED SECONDS

Prints the seconds from the start of this script to the inputs being ready.
``run.py`` starts it several times and reports the median as ``setup_s``.
"""

import time

_T0 = time.perf_counter()

import shutil
import sys
import tempfile
from pathlib import Path

import workloads


def main() -> None:
    name, seed, seconds = sys.argv[1], int(sys.argv[2]), int(sys.argv[3])
    workloads.WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"setup-{name}-", dir=workloads.WORK))
    try:
        workloads.make(name, seed, seconds, workdir)
        print(time.perf_counter() - _T0)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main()
