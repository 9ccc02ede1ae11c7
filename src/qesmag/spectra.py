"""Eigenvalues of the finite blocks and the per-family quantization constraints.

Each family closes its polynomial space only when one remaining constraint
holds.  For the Coulomb-like family the constraint couples a block eigenvalue
mu to the field through the scaled residual eps + eta(1+2xi) + c*mu, so the
admissible fields are roots of a scalar function and must be hunted
numerically.  The sextic family fixes the field in closed form independently
of mu, which then only selects the level.  The quartic-singular family fixes
the field through k2 and instead solves for the inverse-square coefficient l2,
one value per block eigenvalue.

The block eigenvalue mu is the primitive everywhere; the reported nu equals
beta*d/2 - mu and exists purely for comparison with quadratic-form
conventions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple, Optional

import numpy as np
from scipy.optimize import brentq

from . import wavefn
from .qes_core import (
    AnsatzParams,
    CouplingCase,
    CouplingTag,
    DerivedConstants,
    DomainError,
    FallToCentreError,
    FamilyI,
    FamilyII,
    FamilyIII,
    NumericalError,
    PotentialSpec,
    QESBlock,
    QesError,
    _xi_from,
    ansatz_params,
    block_entries,
    case_frequency,
    case_lambdas,
    coulomb_strength,
    effective_radial_problem,
    family_i_scales,
    qes_block,
)

__all__ = [
    "REALITY_TOL",
    "BranchEigen",
    "block_eigenvalues",
    "eigenpairs",
    "quantization_residual_I",
    "FieldRoot",
    "SolveResultI",
    "solve_quantized_field_I",
    "solve_quantized_field_II",
    "solve_constraints_III",
    "relative_energy",
    "SpectrumLine",
    "line_problem",
    "SpectrumJob",
    "assemble_spectrum",
]

REALITY_TOL = 1e-10

SCAN_POINTS = 512
SCAN_DECADES = 6.0
BISECT_RTOL = 1e-12


@dataclass(frozen=True)
class BranchEigen:
    """One eigenvalue of a QES block under the deterministic branch order."""

    mu: complex
    nu: Optional[float]
    branch_index: int
    is_real: bool


def _sorted_eigvals(matrix: np.ndarray) -> np.ndarray:
    vals = np.linalg.eigvals(matrix)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order]


def block_eigenvalues(block: QESBlock) -> list[BranchEigen]:
    """All d+1 branch eigenvalues of a block, sorted by (Re, Im).

    Branches with |Im mu| <= REALITY_TOL*(1+|mu|) are marked real and get a
    nu value; complex branches keep nu = None and are never dropped here.
    """
    try:
        vals = _sorted_eigvals(block.matrix)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(
            f"eigensolver failed on block matrix {block.matrix!r}") from exc
    d = block.ansatz.d
    beta = block.ansatz.beta
    out = []
    for idx, mu in enumerate(vals):
        is_real = bool(abs(mu.imag) <= REALITY_TOL * (1.0 + abs(mu)))
        nu = beta * d / 2.0 - mu.real if is_real else None
        out.append(BranchEigen(mu=complex(mu), nu=nu, branch_index=idx,
                               is_real=is_real))
    return out


def eigenpairs(block: QESBlock):
    """Eigenvalues with right eigenvectors, columns ordered like block_eigenvalues."""
    vals, vecs = np.linalg.eig(block.matrix)
    order = np.lexsort((vals.imag, vals.real))
    return vals[order], vecs[:, order]


# ---------------------------------------------------------------------------
# Family I: quantization of the field


def _field_name(tag: CouplingTag) -> str:
    return "omega_c" if tag is CouplingTag.CHARGED_EC0 else "Omega_q"


def _cell_residual(pot: FamilyI, consts: DerivedConstants, tag: CouplingTag,
                   s: int, d: int):
    """Residual eps + eta(1+2xi) + c*mu of every branch of one (d, s) cell.

    Returns a function mapping N fields to (residuals, scales).  residuals
    has shape (N, d+1), with NaN rows where omega leaves the admissible
    domain (lost Gaussian decay; every row when the inverse-square term
    falls to the centre).  scales[b] is the largest sum of the magnitudes of
    the three residual atoms over the admissible fields (0 if there are
    none); it sets the yardstick for deciding that a branch vanishes
    identically rather than merely crossing zero.

    The block is M(0) + beta * diag(slope) with both parts taken from
    block_entries once per cell.  Its off-diagonal products M[k+1,k] M[k,k+1]
    = (d-k)(k+1)(k+1+2 xi) are positive, so M is similar to the symmetric
    tridiagonal matrix with off-diagonal sqrt(M[k+1,k] M[k,k+1]); one stacked
    eigvalsh returns every eigenvalue real and in ascending order.
    """
    try:
        xi = _xi_from(s, pot.theta, consts.m_r)
    except FallToCentreError:
        xi = None
    else:
        m0 = np.array(block_entries("I", d, beta=0.0, xi=xi))
        m1 = np.array(block_entries("I", d, beta=1.0, xi=xi))
        slope = np.diag(m1) - np.diag(m0)
        k = np.arange(d)
        off = np.sqrt(m0[k + 1, k] * m0[k, k + 1])
        diag = np.arange(d + 1)
        eps = coulomb_strength(consts, pot)

    def residual(omegas):
        omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
        residuals = np.full((omegas.size, d + 1), np.nan)
        scales = np.zeros(d + 1)
        if xi is None:
            return residuals, scales
        case = case_lambdas(tag, consts, omegas)
        _, eta, c, beta = family_i_scales(pot, consts.m_r, case.lambda_conf)
        ok = np.isfinite(beta)
        if not ok.any():
            return residuals, scales
        stack = np.zeros((int(ok.sum()), d + 1, d + 1))
        stack[:, k + 1, k] = off
        stack[:, k, k + 1] = off
        stack[:, diag, diag] = beta[ok][:, None] * slope
        mus = np.linalg.eigvalsh(stack)
        drift = (eta[ok] * (1.0 + 2.0 * xi))[:, None]
        c = c[ok][:, None]
        residuals[ok] = eps + drift + c * mus
        scales = (abs(eps) + np.abs(drift) + c * np.abs(mus)).max(axis=0)
        return residuals, scales

    return residual


def quantization_residual_I(omega: float, pot: FamilyI, consts: DerivedConstants,
                            s: int, d: int, branch_index: int,
                            tag: CouplingTag = CouplingTag.CHARGED_EC0) -> float:
    """Scalar residual whose zero in omega makes branch ``branch_index`` exact."""
    if not 0 <= branch_index <= d:
        raise DomainError(f"branch index {branch_index} outside 0..{d}")
    value = _cell_residual(pot, consts, tag, s, d)(omega)[0][0, branch_index]
    if np.isnan(value):
        raise DomainError(f"omega = {omega} outside the admissible domain")
    return float(value)


@dataclass(frozen=True)
class FieldRoot:
    omega: float
    branch_index: int
    mu: float


@dataclass(frozen=True)
class SolveResultI:
    roots: tuple[FieldRoot, ...]
    degenerate_branches: tuple[int, ...]
    warnings: tuple[str, ...]


def _omega_scale(pot: FamilyI, consts: DerivedConstants) -> float:
    eps = abs(coulomb_strength(consts, pot))
    m_r = consts.m_r
    return max(1.0,
               eps ** 2 / m_r,
               math.sqrt(8.0 * abs(pot.k2) / m_r),
               (4.0 * pot.k1 ** 2 / m_r) ** (1.0 / 3.0))


def _omega_floor(pot: FamilyI, consts: DerivedConstants, tag: CouplingTag) -> float:
    # Radicand of tau: 8 m_r lambda_conf(omega) + 8 k2 m_r > 0.
    if pot.k2 >= 0.0:
        return 0.0
    return case_frequency(tag, consts, -pot.k2)


def solve_quantized_field_I(pot: FamilyI, consts: DerivedConstants, s: int, d: int,
                            tag: CouplingTag = CouplingTag.CHARGED_EC0) -> SolveResultI:
    """Hunt the admissible case frequencies for every branch of one block.

    Parameters
    ----------
    pot : FamilyI
        Potential coefficients; the Coulomb strength g_c enters through
        eps = 2 m_r g_c.
    consts : DerivedConstants
        Pair constants (only m_r and the mass fractions are used).
    s, d : int
        Angular momentum and polynomial degree.
    tag : CouplingTag
        Which case frequency is being solved for (omega_c or Omega_q).

    Returns
    -------
    SolveResultI
        Roots found by bracketing sign changes on a log grid of fields and
        refining each bracket with Brent's method (relative width 1e-12),
        branches whose residual vanishes identically (every field
        admissible, reported separately instead of as fake roots), and
        human-readable warnings.

    Notes
    -----
    The branch label is the rank of the eigenvalue in ascending order.  For
    this family the block is similar to a symmetric tridiagonal matrix, so
    the whole grid is one stacked symmetric eigensolve whose eigenvalues are
    real by construction; they are simple and the sorted curves are
    continuous in omega, so bracketing per sorted index is sound.
    """
    scale = _omega_scale(pot, consts)
    lo = 10.0 ** (-SCAN_DECADES) * scale
    hi = 10.0 ** (SCAN_DECADES) * scale
    floor = _omega_floor(pot, consts, tag)
    if floor > 0.0:
        lo = max(lo, floor * (1.0 + 1e-9))
        if lo >= hi:
            return SolveResultI((), (), (f"admissible window empty above omega "
                                         f"floor {floor}",))
    grid = np.geomspace(lo, hi, SCAN_POINTS)
    residual = _cell_residual(pot, consts, tag, s, d)
    values, scale_res = residual(grid)
    roots: list[FieldRoot] = []
    degenerate: list[int] = []
    warnings: list[str] = []
    for b in range(d + 1):
        col = values[:, b]
        if not np.isfinite(col).any():
            warnings.append(f"branch {b}: residual undefined on the whole scan")
            continue
        if np.nanmax(np.abs(col)) <= 1e-11 * (scale_res[b] + 1.0):
            degenerate.append(b)
            continue
        head, tail = col[:-1], col[1:]
        # a grid point that is an exact zero is a root unless the point
        # before it was one too; NaN compares unequal to zero
        exact = (head == 0.0) & np.isfinite(tail)
        exact[1:] &= head[:-1] != 0.0
        for i in np.nonzero(exact)[0]:
            w = float(grid[i])
            roots.append(FieldRoot(w, b, _mu_at(pot, consts, tag, s, d, w, b)))
        for i in np.nonzero(head * tail < 0.0)[0]:
            w = _refine_root(residual, b, float(grid[i]), float(grid[i + 1]))
            roots.append(FieldRoot(w, b, _mu_at(pot, consts, tag, s, d, w, b)))
    roots.sort(key=lambda r: (r.omega, r.branch_index))
    return SolveResultI(tuple(roots), tuple(degenerate), tuple(warnings))


def _mu_at(pot, consts, tag, s, d, omega, branch_index) -> float:
    a = ansatz_params(pot, case_lambdas(tag, consts, omega), consts, s, d)
    return float(_sorted_eigvals(qes_block(a).matrix).real[branch_index])


def _refine_root(residual, branch_index, lo, hi) -> float:
    # The admissible omega set is a half-line, so the whole bracket between
    # two admissible grid points is admissible and the residual stays
    # defined.  brentq's default xtol is absolute (2e-12) and would swamp
    # roots far below 1; the tiny xtol leaves the relative width test.
    return brentq(lambda omega: residual(omega)[0][0, branch_index], lo, hi,
                  xtol=np.finfo(float).tiny, rtol=BISECT_RTOL)


# ---------------------------------------------------------------------------
# Family II: closed-form field


def solve_quantized_field_II(pot: FamilyII, consts: DerivedConstants, s: int, d: int,
                             tag: CouplingTag = CouplingTag.CHARGED_EC0) -> list[float]:
    """Case frequencies allowed by the sextic family's closed-form condition.

    The right-hand side 16 eta^2 - 16 tau (4d + 2 xi + 4) - 8 k2 m_r equals
    (omega m_r)^2 for the charged case and (2 Omega_q m_r)^2 for the neutral
    one; a non-positive value means no admissible field (empty list).
    """
    dummy = case_lambdas(tag, consts, 0.0)
    a = ansatz_params(pot, dummy, consts, s, d)
    rhs = (16.0 * a.eta ** 2
           - 16.0 * a.tau * (4.0 * d + 2.0 * a.xi + 4.0)
           - 8.0 * pot.k2 * consts.m_r)
    if rhs <= 0.0:
        return []
    if tag is CouplingTag.CHARGED_EC0:
        return [math.sqrt(rhs) / consts.m_r]
    return [math.sqrt(rhs) / (2.0 * consts.m_r)]


# ---------------------------------------------------------------------------
# Family III: field from k2, l2 from the block eigenvalue


def solve_constraints_III(pot: FamilyIII, consts: DerivedConstants, s: int, d: int,
                          branch_index: int,
                          tag: CouplingTag = CouplingTag.CHARGED_EC0) -> tuple[float, float]:
    """Field fixed by k2 and the l2 value that closes one branch.

    Returns (case frequency, required l2) from the coefficient-matched
    relation 2 l2 m_r = xi^2 - 2 eta tau - s^2 - mu_branch.
    """
    if pot.k2 <= 0.0:
        raise DomainError(
            f"k2 must be positive to fix the field, got k2 = {pot.k2}")
    omega = case_frequency(tag, consts, pot.k2)
    case = case_lambdas(tag, consts, omega)
    a = ansatz_params(pot, case, consts, s, d)
    if not 0 <= branch_index <= d:
        raise DomainError(f"branch index {branch_index} outside 0..{d}")
    mu = _sorted_eigvals(qes_block(a).matrix)[branch_index]
    if abs(mu.imag) > REALITY_TOL * (1.0 + abs(mu)):
        raise DomainError(
            f"branch {branch_index} eigenvalue {mu} is not real; no real l2")
    l2 = ((a.xi ** 2 - 2.0 * a.eta * a.tau - float(s) ** 2 - mu.real)
          / (2.0 * consts.m_r))
    return omega, l2


# ---------------------------------------------------------------------------
# Energies and assembly


def relative_energy(ansatz: AnsatzParams, case: CouplingCase,
                    consts: DerivedConstants, mu: float) -> float:
    """Relative-motion energy of one branch from the coefficient-matched forms."""
    if isinstance(mu, complex):
        if abs(mu.imag) > REALITY_TOL * (1.0 + abs(mu)):
            raise DomainError(f"complex branch eigenvalue {mu} has no energy")
        mu = mu.real
    m_r = consts.m_r
    s = ansatz.s
    rot = s * case.lambda_rot / 2.0
    if ansatz.family == "I":
        return ((4.0 * ansatz.tau * (ansatz.xi + 1.0 + ansatz.d) - ansatz.eta ** 2)
                / (2.0 * m_r) - rot)
    if ansatz.family == "II":
        return (2.0 * ansatz.eta * (ansatz.xi + 1.0) / m_r
                + 2.0 * ansatz.c * mu / m_r - rot)
    if ansatz.family == "III":
        return -0.5 * (s * case.lambda_rot + ansatz.eta ** 2 / m_r)
    raise DomainError(f"unknown family {ansatz.family!r}")


@dataclass(frozen=True)
class SpectrumLine:
    """One solvable level: its quantized parameter, energy and polynomial."""

    family: str
    case: str
    d: int
    s: int
    branch_index: int
    quantized_name: str
    quantized_value: float
    E_rho: float
    nu: float
    mu: float
    poly: tuple[float, ...]
    real_branch: bool
    normalizable: bool
    nodes: int
    all_omega_degenerate: bool = False


@dataclass(frozen=True)
class SpectrumJob:
    """Batch description: one potential, one coupling case, many (d, s)."""

    pot: PotentialSpec
    consts: DerivedConstants
    tag: CouplingTag
    d_list: tuple[int, ...]
    s_list: tuple[int, ...]


def line_problem(line, pot: PotentialSpec, consts: DerivedConstants):
    """(pot_eff, case, ansatz) of the radial problem a spectrum line solves.

    For the first two families the quantized value is the field, so the
    rotational and confinement couplings are rebuilt from it; for the third
    the field is fixed by k2 and the quantized value replaces the rho^-2
    strength l2.
    """
    tag = CouplingTag(line.case)
    if line.family in ("I", "II"):
        pot_eff = pot
        case = case_lambdas(tag, consts, line.quantized_value)
    else:
        pot_eff = replace(pot, l2=line.quantized_value)
        case = case_lambdas(tag, consts, case_frequency(tag, consts, pot.k2))
    return pot_eff, case, ansatz_params(pot_eff, case, consts, line.s, line.d)


class _Level(NamedTuple):
    case: CouplingCase
    block: QESBlock
    branches: list[BranchEigen]


def _level(job: SpectrumJob, d: int, s: int, field: float) -> _Level:
    """Case, block and branch eigenvalues of one cell at one case frequency.

    The ansatz of family III does not depend on l2, so one level serves
    every branch of a family-III cell.
    """
    case = case_lambdas(job.tag, job.consts, field)
    block = qes_block(ansatz_params(job.pot, case, job.consts, s, d))
    return _Level(case, block, block_eigenvalues(block))


def _finish_line(job: SpectrumJob, level: _Level, branch_index: int,
                 quantized_name: str, quantized_value: float,
                 degenerate: bool = False) -> SpectrumLine:
    case, block, branches = level
    ansatz = block.ansatz
    branch = branches[branch_index]
    energy = relative_energy(ansatz, case, job.consts, branch.mu.real)
    real = branch.is_real
    nodes = -1
    poly: tuple[float, ...] = ()
    if real:
        wf = wavefn.build_wavefunction(block, branch.mu.real)
        poly = wf.poly_physical
        nodes = wavefn.count_nodes(wf)
    else:
        vec = np.abs(eigenpairs(block)[1][:, branch_index])
        poly = tuple(float(v) for v in vec / max(vec.max(), 1e-300))
    nu = branch.nu if branch.nu is not None else (
        ansatz.beta * ansatz.d / 2.0 - branch.mu.real)
    return SpectrumLine(
        family=ansatz.family, case=job.tag.value, d=ansatz.d, s=ansatz.s,
        branch_index=branch_index, quantized_name=quantized_name,
        quantized_value=quantized_value, E_rho=energy, nu=float(nu),
        mu=float(branch.mu.real), poly=poly, real_branch=real,
        normalizable=bool(ansatz.normalizable and real), nodes=nodes,
        all_omega_degenerate=degenerate)


def _cell_lines(job: SpectrumJob, d: int, s: int) -> tuple[list[SpectrumLine], list[str]]:
    pot, consts, tag = job.pot, job.consts, job.tag
    lines: list[SpectrumLine] = []
    issues: list[str] = []
    name = _field_name(tag)
    try:
        if isinstance(pot, FamilyI):
            result = solve_quantized_field_I(pot, consts, s, d, tag)
            issues.extend(f"d={d} s={s}: {w}" for w in result.warnings)
            for root in result.roots:
                level = _level(job, d, s, root.omega)
                lines.append(_finish_line(job, level, root.branch_index, name,
                                          root.omega))
            if result.degenerate_branches:
                base = (consts.omega_c if tag is CouplingTag.CHARGED_EC0
                        else consts.Omega_q)
                if base > 0.0:
                    level = _level(job, d, s, base)
                    lines.extend(_finish_line(job, level, b, name, base,
                                              degenerate=True)
                                 for b in result.degenerate_branches)
                else:
                    issues.append(
                        f"d={d} s={s}: branches {list(result.degenerate_branches)} "
                        f"admit every field; set a field strength to place them")
        elif isinstance(pot, FamilyII):
            for omega in solve_quantized_field_II(pot, consts, s, d, tag):
                level = _level(job, d, s, omega)
                for branch in level.branches:
                    if not branch.is_real:
                        issues.append(f"d={d} s={s} branch {branch.branch_index}: "
                                      f"complex eigenvalue {branch.mu}")
                    lines.append(_finish_line(job, level, branch.branch_index,
                                              name, omega))
        elif isinstance(pot, FamilyIII):
            level = None
            for b in range(d + 1):
                try:
                    omega, l2 = solve_constraints_III(pot, consts, s, d, b, tag)
                except DomainError as exc:
                    issues.append(f"d={d} s={s} branch {b}: {exc}")
                    continue
                if level is None:
                    level = _level(job, d, s, omega)
                lines.append(_finish_line(job, level, b, "l2", l2))
        else:
            issues.append(f"d={d} s={s}: unknown potential family "
                          f"{type(pot).__name__}")
    except QesError as exc:
        issues.append(f"d={d} s={s}: {exc}")
    return lines, issues


def assemble_spectrum(job: SpectrumJob) -> tuple[list[SpectrumLine], list[str]]:
    """Solve every (d, s) cell of a job and collect the levels.

    Returns (lines, issues).  Lines are sorted by energy (ties broken by
    family, d, s, branch); per-cell failures are reported as issue strings
    and never abort the remaining cells.  A job whose pair violates its
    coupling case raises AdmissibilityError before any cell is solved.
    """
    effective_radial_problem(job.consts, job.tag)
    lines: list[SpectrumLine] = []
    issues: list[str] = []
    for d in job.d_list:
        for s in job.s_list:
            cell_lines, cell_issues = _cell_lines(job, d, s)
            lines.extend(cell_lines)
            issues.extend(cell_issues)
    lines.sort(key=lambda ln: (ln.E_rho, ln.family, ln.d, ln.s, ln.branch_index))
    return lines, issues
