"""Benchmark of the ``qes`` command line, end to end and layer by layer.

Run from the root of a checkout:

    python3 bench/run.py --workload solve_fieldhunt --seed 1 --seconds 25 --trace 0

One client runs a closed loop in this process: each op calls
``qesmag.cli.main`` on freshly generated configs, with ``--out`` in a scratch
directory so the atomic-write path runs too, and starts only when the
previous op has returned.  Configs are written and outputs checked outside
the timed region.  The package is imported from ``src/`` of the checkout;
without it the benchmark exits with code 2 and prints no result.

``--trace 0`` measures for ``--seconds`` seconds of op time and reports the
end-to-end metrics.  Op times are given in reference seconds: each op's
wall time is scaled by CAL_REF_S over the duration of a fixed calibration
workload timed in this process just before the op.  On a shared machine the
speed of the processor drifts by tens of percent within minutes, and the
calibration drifts with it, so the scaled times stay comparable between
runs.  The raw wall times are in the run details.  ``setup_s`` is the
median over fresh interpreters, each scaled by a calibration it times itself,
since another process may run at another speed.  ``op_tail_s`` is the highest
order statistic with ten ops beyond it; the details record its percentile.

``--trace 1`` runs the first TRACED_OPS ops of the seed twice each, once
traced and once not, and reports per-layer calls, total and self times, the
derived counters and the tracing overhead.  It ignores ``--seconds``: a fixed
op count makes the traced counts repeat exactly for a seed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
records the environment and run details, which are also written to
``.bench_results/``.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
RESULTS = ROOT / ".bench_results"

CAL_REF_S = 0.04
SETUP_PROBES = 3
TAIL_BEYOND = 10
TRACED_OPS = 20
PROBE_TIMEOUT_S = 120.0


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_package():
    if not (SRC / "qesmag" / "__init__.py").is_file():
        _fail(f"no qesmag package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import qesmag
    import qesmag.cli
    if Path(qesmag.__file__).resolve().parent != SRC / "qesmag":
        _fail(f"imported qesmag from {qesmag.__file__}, not from {SRC}")
    return qesmag.cli


# ---------------------------------------------------------------------------
# Environment


def _blas_threads() -> dict[str, int]:
    """Thread count of every OpenBLAS library loaded in this process."""
    try:
        with open("/proc/self/maps") as fh:
            libs = sorted({ln.split()[-1] for ln in fh if "openblas" in ln})
    except OSError:
        return {}
    out = {}
    for path in libs:
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for sym in ("scipy_openblas_get_num_threads64_",
                    "scipy_openblas_get_num_threads",
                    "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = int(fn())
                break
    return out


def environment() -> dict:
    import numpy
    import scipy
    return {"nproc": os.cpu_count(),
            "cpus_allowed": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "blas_threads": _blas_threads(),
            "loadavg": list(os.getloadavg())}


# ---------------------------------------------------------------------------
# Ops


class Runner:
    """Writes an op's configs, runs its commands and checks their outputs."""

    def __init__(self, cli, workloads, workdir: Path) -> None:
        self.cli = cli
        self.wl = workloads
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)

    def prepare(self, op, tag: str) -> list[tuple[list[str], str]]:
        import yaml
        calls = []
        for k, step in enumerate(op.steps):
            stem = self.workdir / f"{tag}-{op.index}-{k}"
            cfg_path, out_path = f"{stem}.yaml", f"{stem}.{step.command}.csv"
            with open(cfg_path, "w") as fh:
                yaml.safe_dump(step.config, fh)
            calls.append(([step.command, "--config", cfg_path,
                           "--out", out_path], out_path))
        return calls

    def execute(self, calls) -> list[int]:
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            return [self.cli.main(argv) for argv, _ in calls]

    def check(self, op, calls, rcs):
        out = self.wl.Outcome()
        for step, (_, path), rc in zip(op.steps, calls, rcs):
            try:
                self.wl.check_step(step, rc, path, out)
            except (OSError, ValueError, KeyError) as exc:
                out.fail(f"{step.command}: unreadable output: {exc!r}")
        return out

    def output_bytes(self, calls) -> int:
        return sum(os.path.getsize(p) for _, p in calls if os.path.exists(p))

    def clean(self, calls) -> None:
        for argv, path in calls:
            for p in (argv[2], path):
                if os.path.exists(p):
                    os.unlink(p)


def calibrate() -> float:
    """Seconds taken by fixed work of the three kinds the ops do: interpreter
    loops, small numpy eigenproblems, and a large tridiagonal eigensolve plus
    a vectorized scalar function.  The kinds speed up and slow down by
    different amounts as the machine drifts, so one alone tracks the ops
    less well.  It runs no qesmag code, so no change to the package alters
    it."""
    import numpy as np
    from scipy.linalg import eigh_tridiagonal
    block = np.arange(25.0).reshape(5, 5) / 7.0
    diag, off = np.linspace(1.0, 2.0, 4096), np.full(4095, -0.3)
    rho = np.linspace(0.1, 3.0, 3000)
    t0 = time.perf_counter()
    acc, x, counts = Fraction(0), 0.0, {}
    for i in range(1, 4000):
        acc += Fraction(i % 7, i % 5 + 1)
        x += (i * 0.5) ** 0.5
        counts[i % 97] = counts.get(i % 97, 0) + 1
    for i in range(300):
        np.linalg.eigvals(block + i)
    eigh_tridiagonal(diag, off, eigvals_only=True, select="i",
                     select_range=(0, 5))
    np.vectorize(lambda r: 1.0 / r + r * r, otypes=[float])(rho)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int,
                  workdir: Path) -> list[tuple[float, float]]:
    """(wall time, calibration time) of fresh interpreters that import,
    write the warm-up op's configs and run it; the calibration is timed in
    the probe's own process, and its duration is left out of the wall time."""
    samples = []
    cmd = [sys.executable, str(BENCH / "setup_probe.py"), "--workload",
           workload, "--seed", str(seed), "--dir", str(workdir / "probe")]
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=PROBE_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode != 0:
            _fail(f"setup probe failed ({proc.returncode}): "
                  f"{proc.stderr.strip()[-500:]}")
        cal, cal_spent = (float(v) for v in proc.stdout.split()[-2:])
        samples.append((elapsed - cal_spent, cal))
    return samples


def tail(times: list[float]) -> tuple[float, float]:
    """Highest order statistic with TAIL_BEYOND samples above it, and its
    percentile; the maximum when there are too few samples."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def warm_up(runner: Runner, workload: str, seed: int) -> None:
    """Run the warm-up op untimed, so lazy imports finish before timing."""
    calls = runner.prepare(runner.wl.make_op(workload, seed, 0, warmup=True),
                           "warm")
    runner.execute(calls)
    runner.clean(calls)


def run_untraced(runner: Runner, workload: str, seed: int,
                 seconds: float) -> dict:
    wl = runner.wl
    setup = measure_setup(workload, seed, runner.workdir)
    warm_up(runner, workload, seed)

    times, cal, levels, failures, keys = [], [], 0, [], set()
    repeats = 0
    busy = 0.0
    index = 0
    while busy < seconds:
        op = wl.make_op(workload, seed, index)
        key = wl.input_key(op)
        repeats += key in keys
        keys.add(key)
        calls = runner.prepare(op, "op")
        cal.append(calibrate())
        t0 = time.perf_counter()
        rcs = runner.execute(calls)
        elapsed = time.perf_counter() - t0
        outcome = runner.check(op, calls, rcs)
        runner.clean(calls)
        busy += elapsed
        times.append(elapsed)
        levels += outcome.levels
        if outcome.error is not None:
            failures.append(f"op {index}: {outcome.error}")
        index += 1

    scaled = [t * CAL_REF_S / c for t, c in zip(times, cal)]
    tail_s, tail_pct = tail(scaled)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail_s, "s"),
        "levels_per_s": (levels / sum(scaled), "1/s"),
        "peak_rss_mb": (peak_kb / 1024.0, "MB"),
        "setup_s": (statistics.median(t * CAL_REF_S / c for t, c in setup),
                    "s"),
    }
    details = {"ops": len(times), "levels": levels, "busy_s": busy,
               "wall_op_p50_s": statistics.median(times),
               "wall_op_tail_s": tail(times)[0],
               "calibration_s": statistics.median(cal),
               "tail_percentile": tail_pct,
               "setup_wall_and_calibration_s": setup,
               "repeated_input_share": repeats / len(times),
               "ops_failed_frac": len(failures) / len(times)}
    return {"attempted": len(times), "failures": failures,
            "metrics": metrics, "details": details}


def run_traced(runner: Runner, workload: str, seed: int, result_stem: Path):
    from spans import Tracer
    wl = runner.wl
    warm_up(runner, workload, seed)

    tracer = Tracer()
    tracer.install()
    times = {"traced": [], "plain": []}
    failures = []
    out_bytes, max_gap = 0, 0.0
    try:
        for index in range(TRACED_OPS):
            op = wl.make_op(workload, seed, index)
            calls = {mode: runner.prepare(op, mode) for mode in times}
            rcs = {}
            # alternate which run goes first, so warm caches favour neither
            order = ("traced", "plain") if index % 2 == 0 else \
                ("plain", "traced")
            for mode in order:
                t0 = time.perf_counter()
                if mode == "traced":
                    rcs[mode] = tracer.run_op(index, runner.execute,
                                              calls[mode])
                else:
                    rcs[mode] = runner.execute(calls[mode])
                times[mode].append(time.perf_counter() - t0)
            traced = runner.check(op, calls["traced"], rcs["traced"])
            plain = runner.check(op, calls["plain"], rcs["plain"])
            out_bytes += runner.output_bytes(calls["traced"])
            max_gap = max(max_gap, traced.max_rel_gap)
            for mode_calls in calls.values():
                runner.clean(mode_calls)
            error = traced.error or plain.error
            if error is not None:
                failures.append(f"op {index}: {error}")
    finally:
        tracer.uninstall()

    p50 = {mode: statistics.median(t) for mode, t in times.items()}
    metrics = tracer.layer_metrics()
    metrics["oracle.max_rel_gap"] = (max_gap, "ratio")
    metrics["cli.output_bytes"] = (out_bytes, "bytes")
    metrics["trace.overhead_frac"] = (p50["traced"] / p50["plain"] - 1.0,
                                      "ratio")
    spans_path = f"{result_stem}.spans.npz"
    tracer.save(spans_path)
    details = {"ops": TRACED_OPS, "spans": len(tracer.start),
               "spans_file": os.path.relpath(spans_path, ROOT),
               "op_p50_s": p50}
    return {"attempted": TRACED_OPS, "failures": failures, "metrics": metrics,
            "details": details}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_package()
    import workloads
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        _fail("--seconds must be positive")

    env_before = environment()
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    runner = Runner(cli, workloads, workdir)
    try:
        if args.trace:
            run = run_traced(runner, args.workload, args.seed, stem)
        else:
            run = run_untraced(runner, args.workload, args.seed,
                               args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = len(run["failures"])
    result = {"correct": failed == 0, "attempted": run["attempted"],
              "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in run["metrics"].items()}}
    record = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "environment": env_before,
              "loadavg_after": list(os.getloadavg()),
              "details": run["details"], "failures": run["failures"][:20],
              "result": result}
    with open(f"{stem}.json", "w") as fh:
        json.dump(record, fh, indent=1)
    print(json.dumps({k: v for k, v in record.items() if k != "result"}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
