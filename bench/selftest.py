"""Tests of the benchmark itself; kept out of the package's test run.

    python3 -m pytest -q bench/selftest.py

One op of each workload must pass its checks, and outputs perturbed by
1e-6 relative (a root, a field or an energy) or missing a root must be
flagged as a failed op.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))

import run  # noqa: E402

cli = run._import_package()

import workloads  # noqa: E402
from qesmag import spectra  # noqa: E402
from spans import Tracer  # noqa: E402

SEED = 7
PERTURB = 1.0 + 1e-6


def run_op(tmp_path, workload, index):
    runner = run.Runner(cli, workloads, tmp_path)
    op = workloads.make_op(workload, SEED, index)
    calls = runner.prepare(op, "t")
    return runner.check(op, calls, runner.execute(calls))


@pytest.mark.parametrize("workload,index", [
    ("solve_fieldhunt", 0), ("solve_fieldhunt", 3),
    ("verify_oracle", 0), ("verify_oracle", 1), ("scan_export", 0)])
def test_one_op_runs_clean(tmp_path, workload, index):
    outcome = run_op(tmp_path, workload, index)
    assert outcome.error is None
    assert outcome.levels > 0


def test_ops_are_seeded_and_distinct():
    for workload in workloads.WORKLOADS:
        first = workloads.make_op(workload, SEED, 5)
        assert workloads.make_op(workload, SEED, 5) == first
        keys = {workloads.input_key(workloads.make_op(workload, SEED, i))
                for i in range(20)}
        keys.add(workloads.input_key(
            workloads.make_op(workload, SEED, 0, warmup=True)))
        assert len(keys) == 21


def _scale_roots(factor, drop_last=False):
    original = spectra.solve_quantized_field_I

    def perturbed(*args, **kwargs):
        result = original(*args, **kwargs)
        roots = tuple(replace(r, omega=r.omega * factor) for r in result.roots)
        if drop_last and roots:
            roots = roots[:-1]
        return replace(result, roots=roots)

    return perturbed


@pytest.mark.parametrize("index", [0, 2])  # Coulomb limit, then k1 > 0
def test_perturbed_root_fails_the_op(tmp_path, monkeypatch, index):
    monkeypatch.setattr(spectra, "solve_quantized_field_I",
                        _scale_roots(PERTURB))
    assert run_op(tmp_path, "solve_fieldhunt", index).error is not None


def test_missing_coulomb_root_fails_the_op(tmp_path, monkeypatch):
    monkeypatch.setattr(spectra, "solve_quantized_field_I",
                        _scale_roots(1.0, drop_last=True))
    error = run_op(tmp_path, "solve_fieldhunt", 0).error
    assert error is not None and "closed form" in error


def test_perturbed_field_fails_the_op(tmp_path, monkeypatch):
    original = spectra.solve_quantized_field_II
    monkeypatch.setattr(
        spectra, "solve_quantized_field_II",
        lambda *a, **k: [w * PERTURB for w in original(*a, **k)])
    assert run_op(tmp_path, "scan_export", 0).error is not None


@pytest.mark.parametrize("workload,index", [
    ("solve_fieldhunt", 2), ("verify_oracle", 0), ("scan_export", 1)])
def test_perturbed_energy_fails_the_op(tmp_path, monkeypatch, workload,
                                       index):
    original = spectra.relative_energy
    monkeypatch.setattr(spectra, "relative_energy",
                        lambda *a, **k: original(*a, **k) * PERTURB)
    assert run_op(tmp_path, workload, index).error is not None


def test_traced_counts_repeat(tmp_path):
    runner = run.Runner(cli, workloads, tmp_path)
    op = workloads.make_op("solve_fieldhunt", SEED, 2)
    counts = []
    for _ in range(2):
        tracer = Tracer()
        tracer.install()
        try:
            calls = runner.prepare(op, "t")
            tracer.run_op(0, runner.execute, calls)
        finally:
            tracer.uninstall()
        metrics = tracer.layer_metrics()
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if unit == "count"})
    assert counts[0] == counts[1]
    assert counts[0]["spectra.residual_evals"] > 0
    assert counts[0]["spectra.roots_found"] > 0
    assert spectra.solve_quantized_field_I.__module__ == "qesmag.spectra"
    assert not hasattr(spectra.solve_quantized_field_I, "__wrapped__")


def test_per_layer_metrics_match_the_benchmark_file():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer"]}
    emitted = {k: unit for k, (_, unit) in Tracer().layer_metrics().items()}
    emitted.update({"oracle.max_rel_gap": "ratio", "cli.output_bytes": "bytes",
                    "trace.overhead_frac": "ratio"})
    assert declared == emitted


def test_without_the_package_it_fails_and_prints_nothing(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "solve_fieldhunt",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
    assert json.loads((tmp_path / "BENCHMARK.json").read_text())["paths"]
