"""Command line front end: solve, verify, scan, export.

Configs are YAML with nested keys; validation errors name the offending key
path (for example "potential.k6").  Output files are written atomically and
use 17-significant-digit formatting so every float round-trips exactly.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import yaml

from . import oracle as oracle_mod
from . import wavefn
from .oracle import GridSpacing, RadialGrid
from .qes_core import (
    AdmissibilityError,
    CouplingTag,
    FamilyI,
    FamilyII,
    FamilyIII,
    ParticlePair,
    PotentialSpec,
    QesError,
    derive_constants,
    effective_radial_problem,
)
from .spectra import (SpectrumJob, SpectrumLine, assemble_spectrum,
                      line_problem)

__all__ = [
    "ConfigError",
    "RunConfig",
    "load_config",
    "run_solve",
    "run_verify",
    "run_scan",
    "run_export",
    "read_spectrum_csv",
    "read_spectrum_json",
    "main",
]

SPECTRUM_COLUMNS = (
    "family", "case", "d", "s", "branch", "quantized_name",
    "quantized_value", "E_rho", "nu", "mu", "real_branch", "normalizable",
    "nodes", "poly_coeffs",
)

SCANNABLE = {
    "I": ("g_c", "theta", "k1", "k2"),
    "II": ("theta", "k2", "k4", "k6"),
    "III": ("l1", "l3", "l4", "k2"),
}


class ConfigError(QesError):
    """Invalid configuration; message starts with the offending key path."""


@dataclass(frozen=True)
class ScanSpec:
    parameter: str
    start: float
    stop: float
    steps: int


@dataclass(frozen=True)
class ExportSpec:
    selector: dict
    rho_start: float
    rho_stop: float
    points: int


@dataclass(frozen=True)
class RunConfig:
    pair: ParticlePair
    tag: CouplingTag
    pot: PotentialSpec
    d_list: tuple[int, ...]
    s_list: tuple[int, ...]
    solve_for: str
    oracle_enabled: bool
    oracle_points: int
    oracle_rho_min: Optional[float]
    oracle_rho_max: Optional[float]
    out_path: Optional[str]
    out_format: str
    scan: Optional[ScanSpec] = None
    export: Optional[ExportSpec] = None


def _get(mapping, key, path, required=False, default=None):
    if not isinstance(mapping, dict):
        raise ConfigError(f"{path}: expected a mapping")
    if key not in mapping:
        if required:
            raise ConfigError(f"{path}.{key}: required")
        return default
    return mapping[key]


def _number(value, path) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{path}: expected a number, got {value!r}")
    return float(value)


def _integer(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{path}: expected an integer, got {value!r}")
    return value


def _int_list(value, path) -> tuple[int, ...]:
    if not isinstance(value, list) or not value:
        raise ConfigError(f"{path}: expected a nonempty list of integers")
    return tuple(_integer(v, path) for v in value)


def _build_pair(raw) -> ParticlePair:
    return ParticlePair(
        m1=_number(_get(raw, "m1", "pair", required=True), "pair.m1"),
        m2=_number(_get(raw, "m2", "pair", required=True), "pair.m2"),
        e1=_number(_get(raw, "e1", "pair", required=True), "pair.e1"),
        e2=_number(_get(raw, "e2", "pair", required=True), "pair.e2"),
        B=_number(_get(raw, "B", "pair", default=0.0), "pair.B"),
    )


def _build_potential(raw, pair: ParticlePair) -> PotentialSpec:
    family = _get(raw, "family", "potential", required=True)
    if family not in ("I", "II", "III"):
        raise ConfigError(f"potential.family: unknown family {family!r}")

    def num(key, default=None, required=False):
        v = _get(raw, key, "potential", required=required, default=default)
        return None if v is None else _number(v, f"potential.{key}")

    known = {"family"}
    if family == "I":
        known |= {"g_c", "theta", "k1", "k2"}
        g_c = num("g_c")
        if g_c is None:
            g_c = pair.e1 * pair.e2
        pot: PotentialSpec = FamilyI(g_c=g_c, theta=num("theta", 0.0),
                                     k1=num("k1", 0.0), k2=num("k2", 0.0))
    elif family == "II":
        known |= {"theta", "k2", "k4", "k6"}
        pot = FamilyII(theta=num("theta", 0.0), k2=num("k2", 0.0),
                       k4=num("k4", 0.0), k6=num("k6", required=True))
    else:
        known |= {"l1", "l2", "l3", "l4", "k2"}
        pot = FamilyIII(l1=num("l1", 0.0), l2=num("l2", 0.0),
                        l3=num("l3", 0.0), l4=num("l4", required=True),
                        k2=num("k2", 0.0))
    stray = set(raw) - known
    if stray:
        raise ConfigError(f"potential.{sorted(stray)[0]}: unknown key for "
                          f"family {family}")
    return pot


def load_config(path: str) -> RunConfig:
    try:
        with open(path) as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"config: cannot read {path}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ConfigError(f"config: invalid YAML: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config: top level must be a mapping")

    pair = _build_pair(_get(raw, "pair", "config", required=True))
    case_name = _get(raw, "case", "config", required=True)
    try:
        tag = CouplingTag(case_name)
    except ValueError:
        raise ConfigError(f"case: unknown case {case_name!r}") from None
    try:
        effective_radial_problem(derive_constants(pair), tag)
    except AdmissibilityError as exc:
        raise ConfigError(f"case: {exc}") from None
    pot = _build_potential(_get(raw, "potential", "config", required=True),
                           pair)
    d_list = _int_list(_get(raw, "d_list", "config", required=True), "d_list")
    s_list = _int_list(_get(raw, "s_list", "config", required=True), "s_list")
    if any(d < 0 for d in d_list):
        raise ConfigError("d_list: degrees must be >= 0")

    family = pot.family
    default_solve = "potential_param" if family == "III" else "field"
    solve_for = _get(raw, "solve_for", "config", default=default_solve)
    if solve_for not in ("field", "potential_param"):
        raise ConfigError(f"solve_for: unknown mode {solve_for!r}")
    if solve_for == "potential_param" and family != "III":
        raise ConfigError("solve_for: potential_param is only valid for "
                          "family III")
    if solve_for == "field" and family == "III":
        raise ConfigError("solve_for: family III fixes the field and solves "
                          "a potential parameter")

    oracle_raw = _get(raw, "oracle", "config", default={}) or {}
    oracle_enabled = bool(_get(oracle_raw, "enabled", "oracle", default=True))
    oracle_points = _integer(
        _get(oracle_raw, "points", "oracle", default=2048), "oracle.points")
    rho_min = _get(oracle_raw, "rho_min", "oracle")
    rho_max = _get(oracle_raw, "rho_max", "oracle")

    output_raw = _get(raw, "output", "config", default={}) or {}
    out_path = _get(output_raw, "path", "output")
    out_format = _get(output_raw, "format", "output", default="csv")
    if out_format not in ("csv", "json"):
        raise ConfigError(f"output.format: expected csv or json, got "
                          f"{out_format!r}")

    scan = None
    if "scan" in raw and raw["scan"] is not None:
        scan_raw = raw["scan"]
        parameter = _get(scan_raw, "parameter", "scan", required=True)
        if parameter not in SCANNABLE[family]:
            raise ConfigError(f"scan.parameter: {parameter!r} is not a "
                              f"family {family} parameter")
        steps = _integer(_get(scan_raw, "steps", "scan", default=0),
                         "scan.steps")
        if steps < 0:
            raise ConfigError("scan.steps: must be >= 0")
        start = _number(_get(scan_raw, "start", "scan", required=True),
                        "scan.start")
        scan = ScanSpec(
            parameter=parameter,
            start=start,
            stop=_number(_get(scan_raw, "stop", "scan", default=start),
                         "scan.stop"),
            steps=steps,
        )

    export = None
    if "export" in raw and raw["export"] is not None:
        exp_raw = raw["export"]
        selector = _get(exp_raw, "selector", "export", required=True)
        if not isinstance(selector, dict):
            raise ConfigError("export.selector: expected a mapping")
        points = _integer(_get(exp_raw, "points", "export", default=200),
                          "export.points")
        if points < 2:
            raise ConfigError("export.points: must be >= 2")
        export = ExportSpec(
            selector=selector,
            rho_start=_number(
                _get(exp_raw, "rho_start", "export", required=True),
                "export.rho_start"),
            rho_stop=_number(
                _get(exp_raw, "rho_stop", "export", required=True),
                "export.rho_stop"),
            points=points,
        )

    return RunConfig(pair=pair, tag=tag, pot=pot, d_list=d_list,
                     s_list=s_list, solve_for=solve_for,
                     oracle_enabled=oracle_enabled,
                     oracle_points=oracle_points,
                     oracle_rho_min=None if rho_min is None else
                     _number(rho_min, "oracle.rho_min"),
                     oracle_rho_max=None if rho_max is None else
                     _number(rho_max, "oracle.rho_max"),
                     out_path=out_path, out_format=out_format,
                     scan=scan, export=export)


# ---------------------------------------------------------------------------
# Serialization


def _fmt(x: float) -> str:
    return "%.17g" % x


def _fmt_mu(mu: complex) -> str:
    if mu.imag == 0.0:
        return _fmt(mu.real)
    return f"{_fmt(mu.real)}{'+' if mu.imag >= 0 else '-'}{_fmt(abs(mu.imag))}j"


def _line_record(line: SpectrumLine) -> dict:
    return {
        "family": line.family,
        "case": line.case,
        "d": line.d,
        "s": line.s,
        "branch": line.branch_index,
        "quantized_name": line.quantized_name,
        "quantized_value": line.quantized_value,
        "E_rho": line.E_rho,
        "nu": line.nu,
        "mu": _fmt_mu(line.mu),
        "real_branch": line.real_branch,
        "normalizable": line.normalizable,
        "nodes": line.nodes,
        "poly_coeffs": ";".join(_fmt(c) for c in line.poly),
    }


def _record_cells(rec: dict) -> list[str]:
    cells = []
    for col in SPECTRUM_COLUMNS:
        v = rec[col]
        if v is None:
            cells.append("")
        elif isinstance(v, bool):
            cells.append("true" if v else "false")
        elif isinstance(v, float):
            cells.append(_fmt(v))
        else:
            cells.append(str(v))
    return cells


def _atomic_write(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qes-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_spectrum(lines: Sequence[SpectrumLine], path: str,
                   fmt: str) -> None:
    records = [_line_record(ln) for ln in lines]
    if fmt == "json":
        _atomic_write(path, json.dumps(records, indent=2) + "\n")
        return
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SPECTRUM_COLUMNS)
    for rec in records:
        writer.writerow(_record_cells(rec))
    _atomic_write(path, buf.getvalue())


def _parse_bool(text: str) -> bool:
    if text in ("true", "True"):
        return True
    if text in ("false", "False"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _line_from_fields(fields: dict) -> SpectrumLine:
    poly_text = fields["poly_coeffs"]
    if isinstance(poly_text, str):
        poly = tuple(float(c) for c in poly_text.split(";")) if poly_text \
            else ()
    else:
        poly = tuple(float(c) for c in poly_text)
    nu = fields["nu"]
    if isinstance(nu, str):
        nu = float(nu) if nu else None
    mu = fields["mu"]
    if isinstance(mu, str):
        mu = complex(mu)
    real_branch = fields["real_branch"]
    normalizable = fields["normalizable"]
    if isinstance(real_branch, str):
        real_branch = _parse_bool(real_branch)
    if isinstance(normalizable, str):
        normalizable = _parse_bool(normalizable)
    return SpectrumLine(
        family=fields["family"], case=fields["case"], d=int(fields["d"]),
        s=int(fields["s"]), branch_index=int(fields["branch"]),
        quantized_name=fields["quantized_name"],
        quantized_value=float(fields["quantized_value"]),
        E_rho=float(fields["E_rho"]), nu=nu, mu=complex(mu), poly=poly,
        real_branch=real_branch, normalizable=normalizable,
        nodes=int(fields["nodes"]))


def read_spectrum_csv(path: str) -> list[SpectrumLine]:
    with open(path, newline="") as fh:
        return [_line_from_fields(row) for row in csv.DictReader(fh)]


def read_spectrum_json(path: str) -> list[SpectrumLine]:
    with open(path) as fh:
        return [_line_from_fields(rec) for rec in json.load(fh)]


def _print_table(lines: Sequence[SpectrumLine], out) -> None:
    header = ("family", "d", "s", "branch", "quantized", "value", "E_rho",
              "real", "norm", "nodes")
    rows = [header]
    for ln in lines:
        rows.append((ln.family, str(ln.d), str(ln.s), str(ln.branch_index),
                     ln.quantized_name, "%.10g" % ln.quantized_value,
                     "%.10g" % ln.E_rho, "yes" if ln.real_branch else "no",
                     "yes" if ln.normalizable else "no", str(ln.nodes)))
    widths = [max(len(r[i]) for r in rows) for i in range(len(header))]
    for r in rows:
        print("  ".join(c.ljust(w) for c, w in zip(r, widths)), file=out)


# ---------------------------------------------------------------------------
# Commands


def _solve_lines(cfg: RunConfig, pot: Optional[PotentialSpec] = None):
    consts = derive_constants(cfg.pair)
    job = SpectrumJob(pot=pot if pot is not None else cfg.pot, consts=consts,
                      tag=cfg.tag, d_list=cfg.d_list, s_list=cfg.s_list)
    lines, issues = assemble_spectrum(job)
    lines = sorted(lines, key=lambda ln: (ln.family, ln.d, ln.s,
                                          ln.branch_index,
                                          ln.quantized_value))
    return lines, issues, consts


def run_solve(cfg: RunConfig, out_path: Optional[str], out_format: str,
              out=None) -> int:
    out = out if out is not None else sys.stdout
    lines, issues, _ = _solve_lines(cfg)
    for msg in issues:
        print(f"note: {msg}", file=sys.stderr)
    if not lines:
        print("no admissible spectrum lines", file=out)
        return 2
    _print_table(lines, out)
    if out_path:
        write_spectrum(lines, out_path, out_format)
        print(f"wrote {len(lines)} lines to {out_path}", file=out)
    return 0


def _oracle_grid(cfg: RunConfig) -> Optional[RadialGrid]:
    if cfg.oracle_rho_min is None and cfg.oracle_rho_max is None:
        return None
    if cfg.oracle_rho_min is None or cfg.oracle_rho_max is None:
        raise ConfigError("oracle.rho_min: rho_min and rho_max must be "
                          "overridden together")
    return RadialGrid(rho_min=cfg.oracle_rho_min, rho_max=cfg.oracle_rho_max,
                      points=cfg.oracle_points, spacing=GridSpacing.UNIFORM)


def run_verify(cfg: RunConfig, out_path: Optional[str], out_format: str,
               out=None) -> int:
    out = out if out is not None else sys.stdout
    lines, issues, consts = _solve_lines(cfg)
    for msg in issues:
        print(f"note: {msg}", file=sys.stderr)
    if not lines:
        print("no admissible spectrum lines", file=out)
        return 2
    grid = _oracle_grid(cfg)
    rows = []
    all_pass = True
    for ln in lines:
        ident = f"{ln.family} d={ln.d} s={ln.s} b={ln.branch_index}"
        if not cfg.oracle_enabled:
            rows.append((ident, "", "", "", "unverified"))
            continue
        if not ln.real_branch or not ln.normalizable:
            rows.append((ident, "", "", "", "skipped"))
            continue
        report = oracle_mod.cross_validate(ln, cfg.pot, consts, grid=grid,
                                           points=cfg.oracle_points)
        gap, rel = report.matched_line if report.matched_line else \
            (float("nan"), float("nan"))
        rows.append((ident, "%.3e" % gap, "%.3e" % rel,
                     "%.3e" % report.residual_max,
                     "pass" if report.passed else "FAIL"))
        all_pass = all_pass and report.passed
    header = ("line", "energy_gap", "relative_gap", "ode_residual", "status")
    table = [header] + rows
    widths = [max(len(str(r[i])) for r in table) for i in range(len(header))]
    for r in table:
        print("  ".join(str(c).ljust(w) for c, w in zip(r, widths)), file=out)
    if out_path:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(header)
        writer.writerows(rows)
        _atomic_write(out_path, buf.getvalue())
    return 0 if all_pass else 1


def run_scan(cfg: RunConfig, out_path: Optional[str], out_format: str,
             out=None) -> int:
    out = out if out is not None else sys.stdout
    if cfg.scan is None:
        raise ConfigError("scan: section required for the scan command")
    spec = cfg.scan
    if spec.steps == 0:
        values = [spec.start]
    else:
        step = (spec.stop - spec.start) / spec.steps
        values = [spec.start + i * step for i in range(spec.steps + 1)]
    header = ("scan_parameter", "scan_value") + SPECTRUM_COLUMNS
    rows = []
    found_any = False
    for value in values:
        pot_v = replace(cfg.pot, **{spec.parameter: value})
        try:
            lines, _, _ = _solve_lines(cfg, pot=pot_v)
        except QesError:
            lines = []
        seen = set()
        for ln in lines:
            found_any = True
            seen.add((ln.d, ln.s, ln.branch_index))
            rows.append([spec.parameter, _fmt(value)]
                        + _record_cells(_line_record(ln)))
        for d in cfg.d_list:
            for s in cfg.s_list:
                for b in range(d + 1):
                    if (d, s, b) not in seen:
                        empty = [""] * len(SPECTRUM_COLUMNS)
                        empty[0] = cfg.pot.family
                        empty[1] = cfg.tag.value
                        empty[2], empty[3], empty[4] = str(d), str(s), str(b)
                        rows.append([spec.parameter, _fmt(value)] + empty)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue()
    if out_path:
        _atomic_write(out_path, text)
        print(f"wrote {len(rows)} rows to {out_path}", file=out)
    else:
        out.write(text)
    return 0 if found_any else 2


_SELECTOR_KEYS = ("family", "d", "s", "branch")


def _match_selector(line: SpectrumLine, selector: dict) -> bool:
    mapping = dict(zip(_SELECTOR_KEYS,
                       (line.family, line.d, line.s, line.branch_index)))
    return all(mapping[key] == want for key, want in selector.items())


def _selected(values: tuple[int, ...], selector: dict,
              key: str) -> tuple[int, ...]:
    """The values of a config's d or s list that a selector can match."""
    return tuple(v for v in values if key not in selector or selector[key] == v)


def run_export(cfg: RunConfig, out_path: Optional[str], out_format: str,
               out=None) -> int:
    out = out if out is not None else sys.stdout
    if cfg.export is None:
        raise ConfigError("export: section required for the export command")
    selector = cfg.export.selector
    for key in selector:
        if key not in _SELECTOR_KEYS:
            raise ConfigError(f"export.selector.{key}: unknown selector key")
    # cells are solved independently, so only the cells the selector names
    # can hold its line
    cells = replace(cfg, d_list=_selected(cfg.d_list, selector, "d"),
                    s_list=_selected(cfg.s_list, selector, "s"))
    lines, _, consts = _solve_lines(cells)
    matches = [ln for ln in lines if _match_selector(ln, selector)]
    if not matches:
        raise QesError(f"export.selector: no line matches "
                       f"{selector}")
    line = matches[0]
    if not line.real_branch:
        raise QesError("export.selector: selected branch is not real")
    _, _, ansatz = line_problem(line, cfg.pot, consts)
    wf = wavefn.RadialWavefunction(family=line.family, ansatz=ansatz,
                                   poly_physical=line.poly)
    norm = None
    if line.normalizable:
        norm = wavefn.normalize(wf).norm
    spec = cfg.export
    step = (spec.rho_stop - spec.rho_start) / (spec.points - 1)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(("rho", "zeta", "zeta_normalized", "exponent_log"))
    for i in range(spec.points):
        rho = spec.rho_start + i * step
        sign, logmag = wavefn.zeta_log(wf, rho)
        if logmag < -700.0:
            zeta = 0.0
        elif logmag > 700.0:
            zeta = math.copysign(math.inf, sign)
        else:
            zeta = sign * math.exp(logmag)
        writer.writerow((_fmt(rho), _fmt(zeta),
                         _fmt(zeta / norm) if norm else "",
                         _fmt(logmag)))
    text = buf.getvalue()
    if out_path:
        _atomic_write(out_path, text)
        print(f"wrote {spec.points} samples to {out_path}", file=out)
    else:
        out.write(text)
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="qes",
        description="Quasi-exactly-solvable spectra for two planar charges "
                    "in a magnetic field")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("solve", "verify", "scan", "export"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        p.add_argument("--out")
        p.add_argument("--format", choices=("csv", "json"))
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out_path = args.out if args.out else cfg.out_path
        out_format = args.format if args.format else cfg.out_format
        runner = {"solve": run_solve, "verify": run_verify,
                  "scan": run_scan, "export": run_export}[args.command]
        return runner(cfg, out_path, out_format)
    except QesError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # config and numeric failures must not traceback
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())