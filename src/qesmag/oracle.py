"""Independent finite-difference check on the algebraic spectra.

The effective radial problem is discretized by a conservative finite-volume
scheme on cell-centered grids: integrating -(rho*zeta')'/(2 m_r rho) over a
cell gives face fluxes, and a sqrt(rho_i * width_i) similarity turns the
generalized eigenproblem into a symmetric tridiagonal one.  At rho = 0 the
face factor vanishes, so the axis needs no boundary condition and carries no
truncation bias; this matters for s = 0 states, where a hard inner cut at
rho_min > 0 perturbs energies at O(1/|log rho_min|).

This module shares no algebra with the block construction: it consumes only
potential samples and case constants, which is what makes the cross-check
independent.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from typing import Callable, Optional, Union

import numpy as np
from scipy.linalg import eigh_tridiagonal

from .qes_core import (
    CouplingCase,
    DerivedConstants,
    DomainError,
    FallToCentreError,
    FamilyIII,
    PotentialSpec,
)
from .spectra import line_problem
from .wavefn import RadialWavefunction

__all__ = [
    "GridSpacing",
    "RadialGrid",
    "DiscretizedRadial",
    "OracleReport",
    "discretize",
    "oracle_eigenvalues",
    "default_grid",
    "ode_residual",
    "cross_validate",
]

MATCH_WINDOW = 0.1
PASS_GAP = 1e-4
PASS_RESIDUAL = 1e-8


class GridSpacing(Enum):
    UNIFORM = "uniform"
    LOG_UNIFORM = "log_uniform"


@dataclass(frozen=True)
class RadialGrid:
    """Cell faces span [rho_min, rho_max]; unknowns live at cell centers."""

    rho_min: float
    rho_max: float
    points: int = 2048
    spacing: GridSpacing = GridSpacing.UNIFORM

    def __post_init__(self) -> None:
        if self.points < 64:
            raise DomainError(f"need at least 64 points, got {self.points}")
        if not self.rho_min >= 0.0:
            raise DomainError(f"rho_min must be >= 0, got {self.rho_min}")
        if not self.rho_max > self.rho_min:
            raise DomainError(
                f"rho_max {self.rho_max} must exceed rho_min {self.rho_min}")
        if self.spacing is GridSpacing.LOG_UNIFORM and self.rho_min <= 0.0:
            raise DomainError("log spacing needs rho_min > 0")

    def faces(self) -> np.ndarray:
        if self.spacing is GridSpacing.LOG_UNIFORM:
            return np.geomspace(self.rho_min, self.rho_max, self.points + 1)
        return np.linspace(self.rho_min, self.rho_max, self.points + 1)

    def centers(self) -> np.ndarray:
        f = self.faces()
        if self.spacing is GridSpacing.LOG_UNIFORM:
            return np.sqrt(f[:-1] * f[1:])
        return 0.5 * (f[:-1] + f[1:])


@dataclass(frozen=True)
class DiscretizedRadial:
    """Symmetric tridiagonal system; eigenvalues are E + shift."""

    diag: np.ndarray
    offdiag: np.ndarray
    centers: np.ndarray
    grid: RadialGrid
    shift: float


@dataclass(frozen=True)
class OracleReport:
    energies: tuple[float, ...]
    matched_line: Optional[tuple[float, float]]
    residual_max: float
    grid_convergence: tuple[float, float]
    passed: bool
    extrapolated_energy: Optional[float] = None


def _potential_callable(pot) -> Callable[[np.ndarray], np.ndarray]:
    return pot.evaluate if hasattr(pot, "evaluate") else pot


def discretize(pot: Union[PotentialSpec, Callable[[float], float]],
               s: int,
               consts: DerivedConstants,
               case: CouplingCase,
               grid: RadialGrid) -> DiscretizedRadial:
    """Finite-volume discretization of the effective radial problem.

    Parameters
    ----------
    pot : potential dataclass or callable
        Evaluated only at strictly positive cell centers.
    s : int
        Relative angular momentum quantum number.
    consts, case
        Supply the reduced mass and the rotational/confinement couplings.
    grid : RadialGrid
        Cell faces; the number of unknowns equals ``grid.points``.

    Returns
    -------
    DiscretizedRadial
        Symmetric tridiagonal operator whose eigenvalues approximate
        E + s*lambda_rot/2 with second-order accuracy in the cell width.

    Raises
    ------
    DomainError
        If a potential with rho^-3 or rho^-4 terms is placed on a grid with
        rho_min = 0, or if the fall-to-centre guard fails.
    """
    if isinstance(pot, FamilyIII) and grid.rho_min == 0.0:
        raise DomainError("FamilyIII potentials need rho_min > 0")
    theta = getattr(pot, "theta", 0.0)
    if s * s + 2.0 * theta * consts.m_r < 0.0:
        raise FallToCentreError(
            f"s^2 + 2*theta*m_r = {s * s + 2.0 * theta * consts.m_r} < 0")
    v_of = _potential_callable(pot)
    m_r = consts.m_r
    f = grid.faces()
    r = grid.centers()
    width = f[1:] - f[:-1]
    # face coupling f_j / (r_j - r_{j-1}); mirror ghost centers at both ends
    inner = np.empty(grid.points + 1)
    inner[1:-1] = f[1:-1] / (r[1:] - r[:-1])
    inner[0] = 0.0 if f[0] == 0.0 else f[0] / (2.0 * (r[0] - f[0]))
    inner[-1] = f[-1] / (2.0 * (f[-1] - r[-1]))
    w_pot = (s * s) / (2.0 * m_r * r * r) + case.lambda_conf * r * r + v_of(r)
    diag = (inner[:-1] + inner[1:]) / (2.0 * m_r * r * width) + w_pot
    offdiag = -inner[1:-1] / (
        2.0 * m_r * np.sqrt(r[:-1] * width[:-1] * r[1:] * width[1:]))
    shift = 0.5 * s * case.lambda_rot
    return DiscretizedRadial(diag=diag, offdiag=offdiag, centers=r,
                             grid=grid, shift=shift)


def oracle_eigenvalues(system: DiscretizedRadial, k: int) -> list[float]:
    """k lowest energies by Sturm bisection on the tridiagonal system."""
    if k < 1:
        raise DomainError(f"need k >= 1, got {k}")
    if k > system.grid.points // 4:
        raise DomainError(
            f"k = {k} exceeds points/4 = {system.grid.points // 4}")
    vals = eigh_tridiagonal(system.diag, system.offdiag,
                            eigvals_only=True, select="i",
                            select_range=(0, k - 1))
    return [float(v) - system.shift for v in vals]


def default_grid(pot: PotentialSpec,
                 consts: DerivedConstants,
                 case: CouplingCase,
                 s: int,
                 energy_hint: float,
                 points: int = 2048) -> RadialGrid:
    """Grid reaching 6x the outermost classical turning point.

    The turning point is located by sampling the effective potential on a
    wide logarithmic mesh at the shifted energy; if the hint sits below the
    potential everywhere, the potential minimum stands in for it.
    """
    rho_min = 1e-2 if isinstance(pot, FamilyIII) else 0.0
    v_of = _potential_callable(pot)
    m_r = consts.m_r
    shifted = energy_hint + 0.5 * s * case.lambda_rot
    rho = np.geomspace(1e-3, 1e3, 6000)
    w_eff = (s * s) / (2.0 * m_r * rho * rho) + case.lambda_conf * rho * rho \
        + v_of(rho)
    below = np.nonzero(w_eff <= shifted)[0]
    if below.size:
        turning = rho[below[-1]]
    else:
        turning = rho[int(np.argmin(w_eff))]
    rho_max = 6.0 * max(turning, 1.0)
    if rho_max <= 10.0 * rho_min:
        rho_max = 10.0 * max(rho_min, 0.1)
    return RadialGrid(rho_min=rho_min, rho_max=rho_max, points=points)


def _log_derivatives(a, rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(g', g'') of the ansatz exponent, vectorized over rho."""
    if a.family == "I":
        return -2.0 * a.tau * rho - a.eta, np.full_like(rho, -2.0 * a.tau)
    if a.family == "II":
        return (-4.0 * a.tau * rho ** 3 - 2.0 * a.eta * rho,
                -12.0 * a.tau * rho * rho - 2.0 * a.eta)
    return a.tau / rho ** 2 - a.eta, -2.0 * a.tau / rho ** 3


def ode_residual(wf: RadialWavefunction,
                 pot: Union[PotentialSpec, Callable[[float], float]],
                 consts: DerivedConstants,
                 case: CouplingCase,
                 energy: float,
                 rho: Optional[np.ndarray] = None,
                 samples: int = 1000) -> float:
    """Scale-free defect of the radial equation at the claimed energy.

    The operator is applied symbolically: with zeta = exp(g) rho^xi p and
    kappa = g' + xi/rho, the common ansatz factor cancels and the defect per
    sample point is

        G = -[(kappa^2 + kappa')p + 2 kappa p' + p'' + (kappa p + p')/rho]
            / (2 m_r) + [W(rho) - E] p

    normalized by |E p| plus 5% of the sum of the magnitudes of every term
    entering G, so the ratio stays meaningful at nodes of p and is uniformly
    of rounding size when the identity holds.

    Returns
    -------
    float
        Maximum normalized defect over the sample points.
    """
    a = wf.ansatz
    if rho is None:
        from .wavefn import _density_peak
        peak = _density_peak(a)
        rho = np.geomspace(max(0.02 * peak, 1e-8), 25.0 * peak, samples)
    rho = np.asarray(rho, dtype=float)
    if np.any(rho <= 0.0):
        raise DomainError("samples must be strictly positive")
    m_r = consts.m_r
    s = a.s
    coeffs = np.asarray(wf.poly_physical)
    p0 = np.polynomial.polynomial.polyval(rho, coeffs)
    p1 = np.polynomial.polynomial.polyval(
        rho, np.polynomial.polynomial.polyder(coeffs))
    p2 = np.polynomial.polynomial.polyval(
        rho, np.polynomial.polynomial.polyder(coeffs, 2))
    g1, g2 = _log_derivatives(a, rho)
    kappa = g1 + a.xi / rho
    kappa_p = g2 - a.xi / rho ** 2
    v_of = _potential_callable(pot)
    terms = [
        -((kappa * kappa + kappa_p) * p0) / (2.0 * m_r),
        -(2.0 * kappa * p1) / (2.0 * m_r),
        -p2 / (2.0 * m_r),
        -((kappa * p0 + p1) / rho) / (2.0 * m_r),
        (s * s) / (2.0 * m_r * rho * rho) * p0,
        -0.5 * s * case.lambda_rot * p0,
        case.lambda_conf * rho * rho * p0,
        v_of(rho) * p0,
        -energy * p0,
    ]
    defect = np.abs(sum(terms))
    floor = np.abs(energy * p0) \
        + 0.05 * sum(np.abs(t) for t in terms) + 1e-300
    return float(np.max(defect / floor))


def cross_validate(line,
                   pot: PotentialSpec,
                   consts: DerivedConstants,
                   grid: Optional[RadialGrid] = None,
                   points: int = 2048) -> OracleReport:
    """Validate one spectrum line against the finite-volume solver.

    The coupling case is reconstructed from the line itself
    (spectra.line_problem).  Energies are then computed on a three-grid
    ladder (points, 2x, 4x), Richardson-extrapolated at second order, and
    compared with the line energy; the finest rung's eigenvalues are the
    reported energies.

    Returns
    -------
    OracleReport
        passed is True iff an oracle eigenvalue lies within 10% of the line
        energy (floored at 1 absolute), the extrapolated relative gap is
        below 1e-4, and the symbolic residual is below 1e-8.
    """
    if not line.real_branch or not line.normalizable:
        raise DomainError("cross-validation needs a real normalizable line")
    pot_eff, case, ansatz = line_problem(line, pot, consts)
    wf = RadialWavefunction(family=line.family, ansatz=ansatz,
                            poly_physical=line.poly)
    residual = ode_residual(wf, pot_eff, consts, case, line.E_rho)

    target = line.E_rho
    if grid is None:
        grid = default_grid(pot_eff, consts, case, line.s, target, points)
    k = max(6, line.nodes + 4)
    ladder = [replace(grid, points=m * grid.points) for m in (1, 2, 4)]
    rungs = [oracle_eigenvalues(discretize(pot_eff, line.s, consts, case, g), k)
             for g in ladder]
    e1, e2, e3 = (min(vals, key=lambda v: abs(v - target)) for vals in rungs)
    extrapolated = e3 + (e3 - e2) / 3.0
    d12, d23 = e1 - e2, e2 - e3
    order = math.log2(abs(d12 / d23)) if d12 != 0.0 and d23 != 0.0 else \
        float("nan")
    scale = max(1.0, abs(target))
    gap = extrapolated - target
    rel_gap = abs(gap) / scale
    window_ok = abs(e3 - target) <= MATCH_WINDOW * scale
    passed = window_ok and rel_gap < PASS_GAP and residual < PASS_RESIDUAL
    return OracleReport(energies=tuple(rungs[-1]),
                        matched_line=(gap, rel_gap) if window_ok else None,
                        residual_max=residual,
                        grid_convergence=(order, rel_gap),
                        passed=passed,
                        extrapolated_energy=extrapolated)