"""One set-up of a benchmark run, timed from outside by ``run.py``.

A fresh interpreter imports ``qesmag.cli``, writes the configs of the
workload's warm-up op and runs it, so that work moved into import time or
into the first call shows in ``setup_s``.  It then times the calibration
workload in this same process and prints its duration, which ``run.py``
uses to scale the set-up time to reference seconds, and the time the
calibration took, which ``run.py`` leaves out of the set-up time.
"""

from __future__ import annotations

import argparse
import shutil
import statistics
import sys
import time
from pathlib import Path

import run


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--dir", required=True)
    args = parser.parse_args()
    cli = run._import_package()
    import workloads
    runner = run.Runner(cli, workloads, Path(args.dir))
    op = workloads.make_op(args.workload, args.seed, 0, warmup=True)
    try:
        calls = runner.prepare(op, "setup")
        rcs = runner.execute(calls)
    finally:
        shutil.rmtree(args.dir, ignore_errors=True)
    t0 = time.perf_counter()
    run.calibrate()  # the first call also loads what the calibration uses
    cal = statistics.median(run.calibrate() for _ in range(3))
    print(cal, time.perf_counter() - t0)
    return 0 if all(rc == 0 for rc in rcs) else 1


if __name__ == "__main__":
    sys.exit(main())
