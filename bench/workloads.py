"""Seeded workload generators and the output checks of the qesmag benchmark.

Every operation (op) is a short list of ``qes`` commands run on one generated
config.  Op ``i`` of workload ``w`` under seed ``n`` draws its coefficients
from its own random stream ``(n, w, i)``, so an op's inputs do not depend on
how many ops ran before it and no two ops share inputs.

Each generated pair and coupling case goes through
``qes_core.effective_radial_problem`` before use, so a later change that makes
the CLI enforce that check leaves the workloads unchanged.

The checks read the files the CLI wrote and compare them with closed forms
computed here from the formulas of the README and the module docstrings, and
with ``oracle.ode_residual``.  They run outside the timed region.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from qesmag.oracle import ode_residual
from qesmag.qes_core import (
    CouplingTag,
    FamilyI,
    FamilyII,
    FamilyIII,
    ParticlePair,
    ansatz_params,
    case_lambdas,
    derive_constants,
    effective_radial_problem,
)
from qesmag.wavefn import RadialWavefunction

# Coefficient jitter and cell lists.  Ops take a third to two thirds of a
# second on a 2-core machine, so a 25-second run holds the 40 or more ops
# that a tail percentile with ten samples beyond it needs; a field-hunt op
# therefore solves one s of the d x s grid, cycling through s from op to op.  The ranges differ from the
# ones first proposed for the benchmark in five places, each to keep every op
# valid at the commit that defines the benchmark:
#   * Coulomb-limit ops (k1 = 0) also set k2 = 0.  With k1 = 0 and k2 > 0 a
#     root needs 16 tau^2 > 8 k2 m_r with tau = eps^2 / (4 mu^2), which most
#     draws miss, so the spectrum is empty and the CLI exits with code 2.
#   * Ops with k1 > 0 draw k2 from [0, 0.03]: at k1 = 0.1 and k2 >= 0.06
#     no cell has a level, for the same reason.
#   * g_c is drawn from [0.05, 0.5].  Below about 0.02 the Coulomb roots fall
#     under the root hunt's fixed 12-decade window and are lost without a
#     warning (a known defect of the field hunt; the closed-form check here
#     flags it).
#   * Scan ops stop at d = 8.  At d = 10 the float levels of family II have
#     ODE residuals of 1.3e-8 to 3.6e-8, above the 1e-8 limit that verify
#     applies as well (d = 8: below 7e-10, d = 9: up to 3e-9).
#   * Family II verify ops use s in {1, 2}.  For s = 0 and 0 < theta < ~0.1
#     the finite-volume oracle converges below second order (the level is
#     exact, the ODE residual is 1e-14) and reports relative gaps of 1e-4 to
#     5e-3, so verify fails valid levels.
GC_RANGE = (0.05, 0.5)
THETA_RANGE_I = (0.0, 0.5)
K1_RANGE = (0.1, 0.6)
K2_RANGE_I = (0.0, 0.03)
FIELDHUNT_D = [1, 2, 3, 4, 6, 8]
FIELDHUNT_S = [[0], [1], [2]]

VERIFY_II_D = [1]
VERIFY_II_S = [[1], [2]]
VERIFY_III_D = [1]
VERIFY_III_S = [[0], [1]]

SCAN_D = [2, 4, 6, 8]
SCAN_S = [0, 1]
SCAN_STEPS = 2
EXPORT_POINTS = 2000
EXPORT_RHO = (0.005, 6.0)

RESIDUAL_LIMIT = 1e-8
COULOMB_ROOT_RTOL = 1e-10
SEXTIC_FIELD_RTOL = 1e-10

PAIRS = {
    "charged_ec0": {"m1": 1.0, "m2": 1.0, "e1": 1.0, "e2": 1.0},
    "neutral_rest": {"m1": 1.0, "m2": 2.0, "e1": 1.0, "e2": -1.0},
    "sextic_charged": {"m1": 2.0, "m2": 2.0, "e1": 1.0, "e2": 1.0},
    "scan_charged": {"m1": 1.0, "m2": 3.0, "e1": 1.0, "e2": 3.0},
}

WORKLOADS = ("solve_fieldhunt", "verify_oracle", "scan_export")


@dataclass(frozen=True)
class Step:
    """One ``qes`` command on one generated config."""

    command: str
    config: dict


@dataclass(frozen=True)
class Op:
    index: int
    steps: tuple[Step, ...]


@dataclass
class Outcome:
    """Result of checking one op: levels it produced, the largest relative
    gap verify reported, and the first defect."""

    levels: int = 0
    max_rel_gap: float = 0.0
    error: Optional[str] = None

    def fail(self, message: str) -> None:
        if self.error is None:
            self.error = message


def _rng(seed: int, workload: str, stream: int, index: int):
    return np.random.default_rng([seed, WORKLOADS.index(workload), stream,
                                  index])


def _admissible(pair: dict, case: str) -> dict:
    consts = derive_constants(ParticlePair(**pair))
    effective_radial_problem(consts, CouplingTag(case))
    return dict(pair)


def _config(pair_name: str, case: str, potential: dict, d_list, s_list,
            **extra) -> dict:
    cfg = {"pair": _admissible(PAIRS[pair_name], case), "case": case,
           "potential": potential, "d_list": list(d_list),
           "s_list": list(s_list), "oracle": {"points": 2048}}
    cfg.update(extra)
    return cfg


def _u(rng, lo_hi) -> float:
    return float(rng.uniform(*lo_hi))


def make_op(workload: str, seed: int, index: int, warmup: bool = False) -> Op:
    """Op ``index`` of a workload; warm-up ops come from a separate stream."""
    rng = _rng(seed, workload, 1 if warmup else 0, index)
    if workload == "solve_fieldhunt":
        case = "charged_ec0" if index % 2 == 0 else "neutral_rest"
        coulomb = (index // 2) % 2 == 0
        pot = {"family": "I", "g_c": _u(rng, GC_RANGE),
               "theta": _u(rng, THETA_RANGE_I),
               "k1": 0.0 if coulomb else _u(rng, K1_RANGE),
               "k2": 0.0 if coulomb else _u(rng, K2_RANGE_I)}
        cfg = _config(case, case, pot, FIELDHUNT_D,
                      FIELDHUNT_S[index % len(FIELDHUNT_S)])
        return Op(index, (Step("solve", cfg),))
    if workload == "verify_oracle":
        pot_ii = {"family": "II", "theta": _u(rng, (0.0, 0.3)), "k2": -30.0,
                  "k4": _u(rng, (-1.0, 1.0)), "k6": 0.5}
        pot_iii = {"family": "III", "l1": _u(rng, (-3.0, -1.0)),
                   "l3": _u(rng, (0.0, 0.2)), "l4": 0.5, "k2": 1.0}
        cfg_ii = _config("sextic_charged", "charged_ec0", pot_ii, VERIFY_II_D,
                         VERIFY_II_S[index % 2])
        cfg_iii = _config("neutral_rest", "neutral_rest", pot_iii,
                          VERIFY_III_D, VERIFY_III_S[index % 2])
        return Op(index, (Step("verify", cfg_ii), Step("verify", cfg_iii)))
    if workload == "scan_export":
        k4_lo = _u(rng, (-1.0, -0.5))
        k4_hi = _u(rng, (0.5, 1.0))
        pot = {"family": "II", "theta": _u(rng, (0.0, 0.3)), "k2": -60.0,
               "k4": 0.5 * (k4_lo + k4_hi), "k6": 0.5}
        cfg = _config("scan_charged", "charged_ec0", pot, SCAN_D, SCAN_S,
                      scan={"parameter": "k4", "start": k4_lo,
                            "stop": k4_hi, "steps": SCAN_STEPS},
                      export={"selector": {"d": SCAN_D[-1],
                                           "s": SCAN_S[index % 2],
                                           "branch": 0},
                              "rho_start": EXPORT_RHO[0],
                              "rho_stop": EXPORT_RHO[1],
                              "points": EXPORT_POINTS})
        return Op(index, (Step("scan", cfg), Step("export", cfg)))
    raise ValueError(f"unknown workload {workload!r}")


def input_key(op: Op) -> tuple:
    """Hashable identity of an op's inputs, used to count repeated inputs."""
    return tuple(
        (st.command, tuple(sorted(st.config["potential"].items())),
         tuple(st.config["s_list"]),
         tuple(sorted((st.config.get("scan") or {}).items())))
        for st in op.steps)


# ---------------------------------------------------------------------------
# Closed forms, written from the documented physics rather than the package


def _consts(cfg: dict):
    return derive_constants(ParticlePair(**cfg["pair"]))


def _potential(cfg: dict, **override):
    raw = dict(cfg["potential"])
    family = raw.pop("family")
    raw.update(override)
    return {"I": FamilyI, "II": FamilyII, "III": FamilyIII}[family](**raw)


def _xi(s: int, theta: float, m_r: float) -> float:
    return math.sqrt(s * s + 2.0 * theta * m_r)


def coulomb_roots(cfg: dict, d: int, s: int) -> list[float]:
    """Case frequencies of a family-I cell with k1 = 0, in closed form.

    With k1 = 0 the drift eta vanishes, so the block is independent of the
    field.  Its eigenvalues are those of the symmetric tridiagonal matrix with
    zero diagonal and off-diagonal sqrt((d-k)(k+1)(k+1+2 xi)).  A branch mu
    closes the space when eps + 2 sqrt(tau) mu = 0 with eps = 2 m_r g_c, and
    16 tau^2 = m_r^2 omega_c^2 + 8 k2 m_r (charged) or
    4 m_r^2 Omega_q^2 + 8 k2 m_r (neutral).
    """
    pot = cfg["potential"]
    m_r = _consts(cfg).m_r
    xi = _xi(s, pot["theta"], m_r)
    k = np.arange(d)
    off = np.sqrt((d - k) * (k + 1) * (k + 1 + 2.0 * xi))
    mat = np.diag(off, 1) + np.diag(off, -1)
    mus = np.linalg.eigvalsh(mat) if d > 0 else np.zeros(1)
    eps = 2.0 * m_r * pot["g_c"]
    zero = 1e-9 * (1.0 + np.abs(mus).max())
    roots = []
    for mu in mus:
        if abs(mu) <= zero or eps / mu >= 0.0:
            continue
        tau = eps * eps / (4.0 * mu * mu)
        radicand = 16.0 * tau * tau - 8.0 * pot["k2"] * m_r
        if radicand <= 0.0:
            continue
        scale = m_r if cfg["case"] == "charged_ec0" else 2.0 * m_r
        roots.append(math.sqrt(radicand) / scale)
    return sorted(roots)


def sextic_field(cfg: dict, d: int, s: int, k4: float) -> Optional[float]:
    """Field fixed by the family-II (sextic) condition, or None if none.

    tau = sqrt(2 k6 m_r)/4, eta = k4 m_r/(8 tau) and
    16 eta^2 - 16 tau (4d + 2 xi + 4) - 8 k2 m_r equals (omega_c m_r)^2.
    """
    pot = cfg["potential"]
    m_r = _consts(cfg).m_r
    tau = math.sqrt(2.0 * pot["k6"] * m_r) / 4.0
    eta = k4 * m_r / (8.0 * tau)
    xi = _xi(s, pot["theta"], m_r)
    rhs = 16.0 * eta * eta - 16.0 * tau * (4 * d + 2.0 * xi + 4.0) \
        - 8.0 * pot["k2"] * m_r
    if rhs <= 0.0:
        return None
    scale = m_r if cfg["case"] == "charged_ec0" else 2.0 * m_r
    return math.sqrt(rhs) / scale


# ---------------------------------------------------------------------------
# Output checks


def _read_rows(path: str) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _poly(text: str) -> tuple[float, ...]:
    return tuple(float(c) for c in text.split(";")) if text else ()


def _level_residual(cfg: dict, row: dict, pot) -> float:
    """ODE defect of one written level, rebuilt from the row alone."""
    consts = _consts(cfg)
    tag = CouplingTag(row["case"])
    value = float(row["quantized_value"])
    if row["family"] == "III":
        pot = replace(pot, l2=value)
        ratio = 8.0 if tag is CouplingTag.CHARGED_EC0 else 2.0
        value = math.sqrt(ratio * pot.k2 / consts.m_r)
    case = case_lambdas(tag, consts, value)
    d, s = int(row["d"]), int(row["s"])
    ansatz = ansatz_params(pot, case, consts, s, d)
    wf = RadialWavefunction(family=row["family"], ansatz=ansatz,
                            poly_physical=_poly(row["poly_coeffs"]))
    # the bound method is already vectorized; passing it skips the
    # per-sample np.vectorize wrapper that the dataclass would get
    return ode_residual(wf, pot.evaluate, consts, case, float(row["E_rho"]))


def _check_levels(cfg: dict, rows: list[dict], pot, out: Outcome,
                  where: str) -> None:
    for row in rows:
        ident = f"{where} d={row['d']} s={row['s']} b={row['branch']}"
        if int(row["nodes"]) > int(row["d"]):
            out.fail(f"{ident}: {row['nodes']} nodes exceed the degree")
        if row["real_branch"] != "true" or row["normalizable"] != "true":
            continue
        res = _level_residual(cfg, row, pot)
        if not res < RESIDUAL_LIMIT:
            out.fail(f"{ident}: ODE residual {res:.3e}")


def _check_solve(cfg: dict, rc: int, path: str, out: Outcome) -> None:
    if rc != 0:
        out.fail(f"solve exited {rc}")
        return
    rows = _read_rows(path)
    out.levels += len(rows)
    _check_levels(cfg, rows, _potential(cfg), out, "solve")
    if cfg["potential"]["k1"] != 0.0:
        return
    for d in cfg["d_list"]:
        for s in cfg["s_list"]:
            want = coulomb_roots(cfg, d, s)
            got = sorted(float(r["quantized_value"]) for r in rows
                         if int(r["d"]) == d and int(r["s"]) == s)
            if len(got) != len(want):
                out.fail(f"solve d={d} s={s}: {len(got)} roots, closed form "
                         f"has {len(want)}")
                continue
            for g, w in zip(got, want):
                if abs(g - w) > COULOMB_ROOT_RTOL * w:
                    out.fail(f"solve d={d} s={s}: root {g!r} != closed form "
                             f"{w!r}")


def _check_verify(cfg: dict, rc: int, path: str, out: Outcome) -> None:
    if rc != 0:
        out.fail(f"verify exited {rc}")
    rows = _read_rows(path)
    if not rows:
        out.fail("verify wrote no lines")
    out.levels += len(rows)
    for row in rows:
        if row["relative_gap"]:
            out.max_rel_gap = max(out.max_rel_gap, float(row["relative_gap"]))
        if row["status"] != "pass":
            out.fail(f"verify {row['line']}: status {row['status']}")
        elif not float(row["ode_residual"]) < RESIDUAL_LIMIT:
            out.fail(f"verify {row['line']}: residual {row['ode_residual']}")


def _check_scan(cfg: dict, rc: int, path: str, out: Outcome) -> None:
    if rc != 0:
        out.fail(f"scan exited {rc}")
        return
    all_rows = _read_rows(path)
    rows = [r for r in all_rows if r["quantized_value"]]
    out.levels += len(rows)
    values = list(dict.fromkeys(r["scan_value"] for r in all_rows))
    if len(values) != cfg["scan"]["steps"] + 1:
        out.fail(f"scan wrote {len(values)} parameter values")
    for text in values:
        value = float(text)
        at = [r for r in rows if r["scan_value"] == text]
        for d in cfg["d_list"]:
            for s in cfg["s_list"]:
                field = sextic_field(cfg, d, s, value)
                cell = [r for r in at if int(r["d"]) == d and int(r["s"]) == s]
                if len(cell) != (0 if field is None else d + 1):
                    out.fail(f"scan k4={text} d={d} s={s}: {len(cell)} "
                             f"levels")
                    continue
                for r in cell:
                    got = float(r["quantized_value"])
                    if abs(got - field) > SEXTIC_FIELD_RTOL * field:
                        out.fail(f"scan k4={text} d={d} s={s}: field "
                                 f"{got!r} != closed form {field!r}")
        _check_levels(cfg, at, _potential(cfg, k4=value), out, "scan")


def _check_export(cfg: dict, rc: int, path: str, out: Outcome) -> None:
    if rc != 0:
        out.fail(f"export exited {rc}")
        return
    rows = _read_rows(path)
    if len(rows) != cfg["export"]["points"]:
        out.fail(f"export wrote {len(rows)} samples")
        return
    rho = np.array([float(r["rho"]) for r in rows])
    zeta = np.array([float(r["zeta"]) for r in rows])
    logmag = np.array([float(r["exponent_log"]) for r in rows])
    if not np.allclose(np.abs(zeta), np.exp(logmag), rtol=1e-12, atol=0.0):
        out.fail("export: zeta disagrees with its log magnitude")
    if not all(r["zeta_normalized"] for r in rows):
        out.fail("export: normalized samples missing")
        return
    zn = np.array([float(r["zeta_normalized"]) for r in rows])
    density = zn * zn * rho
    norm = float(np.sum(0.5 * (density[1:] + density[:-1]) * np.diff(rho)))
    if abs(norm - 1.0) > 1e-3:
        out.fail(f"export: normalized density integrates to {norm!r}")


CHECKS = {"solve": _check_solve, "verify": _check_verify,
          "scan": _check_scan, "export": _check_export}


def check_step(step: Step, rc: int, path: str, out: Outcome) -> None:
    """Check one command's output file; record the first defect in ``out``."""
    CHECKS[step.command](step.config, rc, path, out)
