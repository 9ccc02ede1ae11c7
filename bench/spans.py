"""Span tracer that wraps qesmag's public functions from outside the package.

``Tracer.install`` replaces each listed function in every ``qesmag`` module
namespace that binds it (``from .qes_core import ansatz_params`` makes
``spectra.ansatz_params`` a second binding), so calls are seen whichever
module they come from.  The ``evaluate`` methods of the potential families
get a counting wrapper with no span, because the oracle calls them once per
sample point.

Spans (name, start, end, parent, op id) are kept in flat arrays while the
benchmark runs and written out once at the end.  Nothing is recorded while
the tracer is inactive, so the benchmark's own checks do not count.
"""

from __future__ import annotations

import functools
import importlib
import sys
from array import array
from time import perf_counter

import numpy as np

MODULES = ("cli", "spectra", "qes_core", "wavefn", "oracle", "sl2_rep")

# (defining module, function) pairs whose calls become spans.
LAYERS = (
    ("cli", "load_config"),
    ("spectra", "assemble_spectrum"),
    ("spectra", "solve_quantized_field_I"),
    ("spectra", "solve_quantized_field_II"),
    ("spectra", "solve_constraints_III"),
    ("spectra", "block_eigenvalues"),
    ("qes_core", "ansatz_params"),
    ("qes_core", "qes_block"),
    ("wavefn", "build_wavefunction"),
    ("wavefn", "count_nodes"),
    ("wavefn", "normalize"),
    ("wavefn", "zeta_log"),
    ("oracle", "cross_validate"),
    ("oracle", "default_grid"),
    ("oracle", "discretize"),
    ("oracle", "oracle_eigenvalues"),
    ("oracle", "ode_residual"),
    ("sl2_rep", "apply_diff_operator"),
)

OP_SPAN = "op"
POTENTIAL_CLASSES = ("FamilyI", "FamilyII", "FamilyIII")


class Tracer:
    """In-memory span recorder; one instance per traced benchmark run."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.op = array("i")
        self.counts: dict[str, float] = {}
        self.active = False
        self._op_id = -1
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.op.append(self._op_id)
        self.start.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        return idx

    def _close(self, idx: int, t0: float, t1: float) -> None:
        self._stack.pop()
        self.start[idx] = t0
        self.end[idx] = t1

    def run_op(self, op_id: int, fn, *args):
        """Call ``fn(*args)`` as op ``op_id`` under a root span."""
        self._op_id = op_id
        self.active = True
        idx = self._open(self._name_id(OP_SPAN))
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            t1 = perf_counter()
            self._close(idx, t0, t1)
            self.active = False

    def wrap(self, name: str, fn, on_result=None):
        name_id = self._name_id(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            idx = self._open(name_id)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(idx, t0, perf_counter())
            if on_result is not None:
                on_result(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _set(self, owner, attr: str, value) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap every LAYERS function in each qesmag namespace binding it."""
        package = importlib.import_module("qesmag")
        namespaces = [package] + [importlib.import_module(f"qesmag.{m}")
                                  for m in MODULES]
        hooks = {
            "solve_quantized_field_I": lambda a, k, r: self.count(
                "spectra.roots_found", len(r.roots)),
            "discretize": lambda a, k, r: self.count(
                "oracle.cells_discretized", r.grid.points),
        }
        for module, func in LAYERS:
            original = getattr(sys.modules[f"qesmag.{module}"], func)
            wrapper = self.wrap(f"{module}.{func}", original, hooks.get(func))
            for ns in namespaces:
                if getattr(ns, func, None) is original:
                    self._set(ns, func, wrapper)
        qes_core = sys.modules["qesmag.qes_core"]
        for cls_name in POTENTIAL_CLASSES:
            cls = getattr(qes_core, cls_name)
            self._set(cls, "evaluate", self._count_samples(cls.evaluate))

    def _count_samples(self, evaluate):
        @functools.wraps(evaluate)
        def counted(pot, rho):
            if self.active:
                self.count("oracle.potential_samples", np.size(rho))
            return evaluate(pot, rho)

        return counted

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, value = self._restore.pop()
            setattr(owner, attr, value)

    # -- analysis ----------------------------------------------------------

    def arrays(self) -> dict[str, np.ndarray]:
        return {"name": np.array(self.name, dtype=np.int32),
                "start": np.array(self.start, dtype=np.float64),
                "end": np.array(self.end, dtype=np.float64),
                "parent": np.array(self.parent, dtype=np.int32),
                "op": np.array(self.op, dtype=np.int32)}

    def save(self, path: str) -> None:
        """Write every span, plus the name table, as a compressed npz."""
        np.savez_compressed(path, names=np.array(self.names), **self.arrays())

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Calls, total and self time per layer, and the derived counters.

        Self time is a span's duration minus the durations of its direct
        children; children never overlap because the program is
        single-threaded on every traced path.
        """
        a = self.arrays()
        dur = a["end"] - a["start"]
        child = np.zeros_like(dur)
        has_parent = a["parent"] >= 0
        np.add.at(child, a["parent"][has_parent], dur[has_parent])
        own = dur - child
        out: dict[str, tuple[float, str]] = {}
        for module, func in LAYERS:
            key = f"{module}.{func}"
            mask = a["name"] == self._ids.get(key, -1)
            out[f"{key}.calls"] = (int(mask.sum()), "count")
            out[f"{key}.total_s"] = (float(dur[mask].sum()), "s")
            out[f"{key}.self_s"] = (float(own[mask].sum()), "s")
        evals = self._count_under("qes_core.qes_block",
                                  "spectra.solve_quantized_field_I")
        roots = self.counts.get("spectra.roots_found", 0)
        lines = out["oracle.cross_validate.calls"][0]
        out["spectra.residual_evals"] = (evals, "count")
        out["spectra.roots_found"] = (int(roots), "count")
        out["spectra.evals_per_root"] = (evals / roots if roots else 0.0,
                                         "ratio")
        out["oracle.cells_discretized"] = (
            int(self.counts.get("oracle.cells_discretized", 0)), "count")
        out["oracle.potential_samples"] = (
            int(self.counts.get("oracle.potential_samples", 0)), "count")
        out["oracle.discretize_per_line"] = (
            out["oracle.discretize.calls"][0] / lines if lines else 0.0,
            "ratio")
        return out

    def _count_under(self, name: str, ancestor: str) -> int:
        """Number of ``name`` spans that have an ``ancestor`` span above them."""
        name_id = self._ids.get(name, -1)
        anc_id = self._ids.get(ancestor, -1)
        names, parents = self.name, self.parent
        under = bytearray(len(names))
        total = 0
        # parents are opened, and so stored, before their children
        for i in range(len(names)):
            p = parents[i]
            inside = p >= 0 and (under[p] or names[p] == anc_id)
            under[i] = inside
            if inside and names[i] == name_id:
                total += 1
        return total
