"""Centre-of-mass reduction, solvable potential families and finite blocks.

Two charges (m1, e1), (m2, e2) move in a plane threaded by a uniform magnetic
field B.  After separating the collective motion, the relative coordinate
obeys a radial problem

    [-(1/(2 m_r)) (d^2 + (1/rho) d) + s^2/(2 m_r rho^2)
     - (1/2) s lambda_rot + lambda_conf rho^2 + V(rho)] zeta = E zeta

where (lambda_rot, lambda_conf) depend on the coupling case: for a charged
pair with vanishing coupling charge e_c they are (omega_c, m_r omega_c^2 / 8),
for a neutral pair at rest (Omega-quantities from the single charge e = e1)
they are (omega_q, m_r Omega_q^2 / 2).

For three potential families the substitution

    zeta = exp(g(rho)) * rho^xi * p(rho)

turns the radial operator into one that preserves polynomials p of a fixed
degree d once a small number of parameter constraints hold.  This module
computes the substitution parameters, builds the resulting (d+1) x (d+1)
blocks on the monomial basis, and provides the exact invariance certificate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Optional, Union

import numpy as np

from .sl2_rep import DiffOperator, apply_diff_operator

__all__ = [
    "QesError",
    "DomainError",
    "FallToCentreError",
    "DegenerateParameterError",
    "AdmissibilityError",
    "NumericalError",
    "ParticlePair",
    "DerivedConstants",
    "derive_constants",
    "CouplingTag",
    "CouplingCase",
    "effective_radial_problem",
    "case_lambdas",
    "case_frequency",
    "FamilyI",
    "FamilyII",
    "FamilyIII",
    "PotentialSpec",
    "AnsatzParams",
    "ansatz_params",
    "family_i_scales",
    "VariableMap",
    "QESBlock",
    "qes_block",
    "canonical_terms",
    "canonical_operator",
    "block_entries",
    "InvarianceCertificate",
    "check_polynomial_invariance",
    "invariance_check",
    "gauge_rotated_operator",
    "coulomb_strength",
]


class QesError(Exception):
    """Base class for all errors raised by this package."""


class DomainError(QesError, ValueError):
    """Physical parameters outside the admissible domain."""


class FallToCentreError(DomainError):
    """s^2 + 2 theta m_r < 0: the inverse-square attraction is too strong."""


class DegenerateParameterError(DomainError):
    """A parameter map hits a vanishing denominator."""


class AdmissibilityError(QesError, ValueError):
    """Constants incompatible with the requested coupling case."""


class NumericalError(QesError, RuntimeError):
    """A numerical routine failed to converge."""


# ---------------------------------------------------------------------------
# Pair constants


@dataclass(frozen=True)
class ParticlePair:
    """Masses, charges and field strength of the two-body system."""

    m1: float
    m2: float
    e1: float
    e2: float
    B: float = 0.0

    def __post_init__(self) -> None:
        if not (self.m1 > 0.0 and self.m2 > 0.0):
            raise DomainError(f"masses must be positive, got m1={self.m1}, m2={self.m2}")


@dataclass(frozen=True)
class DerivedConstants:
    """Collective/relative constants of the pair.

    Omega_q and omega_q are formed with e = e1; they are meaningful on the
    neutral manifold e1 = -e2 where e coincides with the coupling charge e_c.
    """

    M: float
    m_r: float
    mu1: float
    mu2: float
    q: float
    e_c: float
    omega_c: float
    Omega_q: float
    omega_q: float


def derive_constants(pair: ParticlePair) -> DerivedConstants:
    """Reduce a ParticlePair to the constants of the radial problem."""
    M = pair.m1 + pair.m2
    mu1 = pair.m1 / M
    mu2 = pair.m2 / M
    m_r = pair.m1 * pair.m2 / M
    q = pair.e1 + pair.e2
    e_c = mu2 * pair.e1 - mu1 * pair.e2
    omega_c = q * pair.B / M
    Omega_q = pair.e1 * pair.B / (2.0 * m_r)
    omega_q = pair.e1 * pair.B * abs(mu2 - mu1) / m_r
    return DerivedConstants(M=M, m_r=m_r, mu1=mu1, mu2=mu2, q=q, e_c=e_c,
                            omega_c=omega_c, Omega_q=Omega_q, omega_q=omega_q)


class CouplingTag(Enum):
    """Coupling cases in which the relative problem closes on itself."""

    CHARGED_EC0 = "charged_ec0"
    NEUTRAL_REST = "neutral_rest"


@dataclass(frozen=True)
class CouplingCase:
    """Coupling tag together with the induced radial coefficients."""

    tag: CouplingTag
    lambda_rot: float
    lambda_conf: float


# lambda_conf = m_r * omega_param^2 / ratio in each coupling case.
_CONF_RATIO = {CouplingTag.CHARGED_EC0: 8.0, CouplingTag.NEUTRAL_REST: 2.0}

# Relative size of e_c (charged) or q (neutral) below which the case holds.
ADMISSIBILITY_TOL = 1e-12


def case_lambdas(tag: CouplingTag, consts: DerivedConstants,
                 omega_param: float) -> CouplingCase:
    """Radial coefficients at an arbitrary value of the case frequency.

    ``omega_param`` is omega_c for the charged case and Omega_q for the
    neutral one; for the latter the rotation frequency is
    omega_q = 2 |mu2 - mu1| Omega_q.  Works elementwise on an ndarray.
    """
    lambda_conf = consts.m_r * omega_param ** 2 / _CONF_RATIO[tag]
    if tag is CouplingTag.CHARGED_EC0:
        return CouplingCase(tag, omega_param, lambda_conf)
    omega_q = 2.0 * abs(consts.mu2 - consts.mu1) * omega_param
    return CouplingCase(tag, omega_q, lambda_conf)


def case_frequency(tag: CouplingTag, consts: DerivedConstants,
                   lambda_conf: float) -> float:
    """Case frequency at which case_lambdas yields confinement ``lambda_conf``.

    omega_c = sqrt(8 lambda_conf / m_r) for the charged case and
    Omega_q = sqrt(2 lambda_conf / m_r) for the neutral one.  A potential
    term k2 rho^2 acts as lambda_conf = k2, which is how k2 fixes the field.
    """
    return math.sqrt(_CONF_RATIO[tag] * lambda_conf / consts.m_r)


def effective_radial_problem(consts: DerivedConstants,
                             tag: CouplingTag) -> CouplingCase:
    """Check the admissibility of the coupling case and return its lambdas.

    The charged case needs a vanishing coupling charge e_c (so the relative
    and collective coordinates decouple); the neutral-at-rest case needs a
    vanishing total charge q.
    """
    charge_scale = max(1.0, abs(consts.q) + abs(consts.e_c))
    if tag is CouplingTag.CHARGED_EC0:
        if abs(consts.e_c) > ADMISSIBILITY_TOL * charge_scale:
            raise AdmissibilityError(
                f"charged case requires e_c = 0, got e_c = {consts.e_c}")
        return case_lambdas(tag, consts, consts.omega_c)
    if tag is CouplingTag.NEUTRAL_REST:
        if abs(consts.q) > ADMISSIBILITY_TOL * charge_scale:
            raise AdmissibilityError(
                f"neutral case requires total charge 0, got q = {consts.q}")
        return case_lambdas(tag, consts, consts.Omega_q)
    raise AdmissibilityError(f"unknown coupling tag {tag!r}")


# ---------------------------------------------------------------------------
# Potential families


@dataclass(frozen=True)
class FamilyI:
    """V = g_c/rho + theta/rho^2 + k1 rho + k2 rho^2 (g_c is the Coulomb strength e1 e2)."""

    g_c: float
    theta: float = 0.0
    k1: float = 0.0
    k2: float = 0.0

    family = "I"

    def evaluate(self, rho):
        rho = np.asarray(rho, dtype=float)
        return self.g_c / rho + self.theta / rho ** 2 + self.k1 * rho + self.k2 * rho ** 2


@dataclass(frozen=True)
class FamilyII:
    """V = theta/rho^2 + k2 rho^2 + k4 rho^4 + k6 rho^6 with k6 > 0."""

    theta: float = 0.0
    k2: float = 0.0
    k4: float = 0.0
    k6: float = 1.0

    family = "II"

    def evaluate(self, rho):
        rho = np.asarray(rho, dtype=float)
        r2 = rho ** 2
        return self.theta / r2 + (self.k2 + (self.k4 + self.k6 * r2) * r2) * r2


@dataclass(frozen=True)
class FamilyIII:
    """V = l4/rho^4 + l3/rho^3 + l2/rho^2 + l1/rho - k2 rho^2 with l4 > 0.

    l2 is the member of the family fixed by the quantisation constraint; the
    stored value is a placeholder until solve_constraints_III replaces it.
    """

    l1: float = 0.0
    l2: float = 0.0
    l3: float = 0.0
    l4: float = 1.0
    k2: float = 0.0

    family = "III"

    def evaluate(self, rho):
        rho = np.asarray(rho, dtype=float)
        inv = 1.0 / rho
        return ((((self.l4 * inv + self.l3) * inv + self.l2) * inv + self.l1) * inv
                - self.k2 * rho ** 2)


PotentialSpec = Union[FamilyI, FamilyII, FamilyIII]


def coulomb_strength(consts: DerivedConstants, pot: FamilyI) -> float:
    """Constant term 2 m_r g_c of the gauge-rotated FamilyI operator."""
    return 2.0 * consts.m_r * pot.g_c


# ---------------------------------------------------------------------------
# Substitution parameters


@dataclass(frozen=True)
class AnsatzParams:
    """Parameters of zeta = exp(g) rho^xi p and of the polynomial block.

    g is -tau rho^2 - eta rho (FamilyI), -tau rho^4 - eta rho^2 (FamilyII) or
    -tau/rho - eta rho (FamilyIII).  c scales the block variable (u = c rho,
    or u = c rho^2 for FamilyII; FamilyIII is unscaled, c = 1) and beta is the
    scaled linear-drift coefficient.  gamma duplicates eta for FamilyIII where
    it multiplies the rho^2 d/drho term.
    """

    family: str
    tau: float
    eta: float
    xi: float
    alpha: float
    beta: float
    c: float
    d: int
    s: int
    normalizable: bool
    gamma: Optional[float] = None


def _xi_from(s: int, theta: float, m_r: float) -> float:
    radicand = float(s) ** 2 + 2.0 * theta * m_r
    if radicand < 0.0:
        raise FallToCentreError(
            f"s^2 + 2 theta m_r = {radicand} < 0: no regular solution at the origin")
    return math.sqrt(radicand)


def family_i_scales(pot: FamilyI, m_r: float, lambda_conf):
    """FamilyI ansatz scales (tau, eta, c, beta) at confinement ``lambda_conf``.

    16 tau^2 = m_r^2 omega_eff^2 + 8 k2 m_r with omega_eff from lambda_conf,
    eta = k1 m_r / (2 tau), c = 2 sqrt(tau) and beta = 2 eta / c.  Works on a
    float or elementwise on an ndarray; where the radicand is not positive
    (Gaussian decay lost) every scale is NaN.
    """
    radicand = 8.0 * m_r * lambda_conf + 8.0 * pot.k2 * m_r
    tau = np.sqrt(np.where(radicand > 0.0, radicand, np.nan)) / 4.0
    eta = pot.k1 * m_r / (2.0 * tau)
    c = 2.0 * np.sqrt(tau)
    beta = 2.0 * eta / c
    return tau, eta, c, beta


def ansatz_params(pot: PotentialSpec, case: CouplingCase, consts: DerivedConstants,
                  s: int, d: int) -> AnsatzParams:
    """Substitution parameters for one family, coupling case and block size.

    Raises DomainError/FallToCentreError/DegenerateParameterError when the
    family preconditions fail.  FamilyI parameters depend on the case
    frequency through lambda_conf; FamilyII and FamilyIII do not.
    """
    if d < 0:
        raise DomainError(f"polynomial degree must be >= 0, got {d}")
    m_r = consts.m_r
    if isinstance(pot, FamilyI):
        tau, eta, c, beta = (float(v) for v in
                             family_i_scales(pot, m_r, case.lambda_conf))
        if not tau > 0.0:
            raise DomainError(
                f"m_r^2 omega^2 + 8 k2 m_r <= 0 at lambda_conf = "
                f"{case.lambda_conf}, k2 = {pot.k2}: Gaussian decay lost")
        xi = _xi_from(s, pot.theta, m_r)
        return AnsatzParams(family="I", tau=tau, eta=eta, xi=xi,
                            alpha=1.0 + 2.0 * xi + d / 2.0, beta=beta, c=c,
                            d=d, s=s, normalizable=tau > 0.0)
    if isinstance(pot, FamilyII):
        if pot.k6 <= 0.0:
            raise DomainError(f"k6 must be positive, got {pot.k6}")
        tau = math.sqrt(2.0 * pot.k6 * m_r) / 4.0
        eta = pot.k4 * m_r / (8.0 * tau)
        xi = _xi_from(s, pot.theta, m_r)
        c = 2.0 * math.sqrt(tau)
        beta = eta / math.sqrt(tau)
        return AnsatzParams(family="II", tau=tau, eta=eta, xi=xi,
                            alpha=1.0 + xi + d / 2.0, beta=beta, c=c,
                            d=d, s=s, normalizable=tau > 0.0)
    if isinstance(pot, FamilyIII):
        if pot.l4 <= 0.0:
            raise DomainError(f"l4 must be positive, got {pot.l4}")
        tau = math.sqrt(2.0 * pot.l4 * m_r)
        xi = 0.5 + pot.l3 * m_r / tau
        denom = pot.l3 * m_r + tau * (d + 1)
        if abs(denom) <= 1e-14 * (abs(pot.l3 * m_r) + tau * (d + 1)):
            raise DegenerateParameterError(
                f"l3 m_r + tau (d+1) = {denom} vanishes: eta undefined")
        eta = -pot.l1 * m_r * tau / denom
        beta = -2.0 * pot.l3 * m_r / tau - d
        return AnsatzParams(family="III", tau=tau, eta=eta, xi=xi, alpha=tau,
                            beta=beta, c=1.0, d=d, s=s,
                            normalizable=(eta > 0.0 and tau > 0.0), gamma=eta)
    raise DomainError(f"unknown potential family {type(pot).__name__}")


# ---------------------------------------------------------------------------
# Finite blocks


class VariableMap(Enum):
    """Relation between the block variable and the physical radius."""

    IDENTITY = "identity"
    SQUARE = "square"


@dataclass(frozen=True)
class QESBlock:
    """Finite matrix of the gauge-rotated operator on {1, u, ..., u^d}."""

    matrix: np.ndarray
    scaling_c: float
    variable_map: VariableMap
    family: str
    ansatz: AnsatzParams


def canonical_terms(family: str, d: int, *, beta, xi, gamma=None, alpha=None):
    """Term list of the degree-preserving operator in the block variable.

    FamilyI:   -u d^2 + (u^2 + beta u - (1+2 xi)) d - d*u
    FamilyII:  -u d^2 + (u^2 + beta u - (1+xi)) d - d*u          (u = c rho^2)
    FamilyIII: -rho^2 d^2 + (2 gamma rho^2 - (1+2 xi) rho - 2 alpha) d
               - 2 gamma d * rho

    The FamilyIII linear-drift coefficient -(1+2 xi) equals beta + d - 2 for
    beta = -2 l3 m_r / tau - d; it is written through xi so the degree-raising
    coefficients cancel exactly in floating point as well.  Works with any
    numeric coefficient type (floats or Fractions).
    """
    one = beta - beta + 1  # unit of the same numeric type as beta
    if family in ("I", "II"):
        weight = one + 2 * xi if family == "I" else one + xi
        return [(-one, 1, 2), (one, 2, 1), (beta, 1, 1), (-weight, 0, 1),
                (-d * one, 1, 0)]
    if family == "III":
        if gamma is None or alpha is None:
            raise ValueError("FamilyIII terms need gamma and alpha")
        two_gamma = gamma + gamma
        return [(-one, 2, 2), (two_gamma, 2, 1), (-(one + 2 * xi), 1, 1),
                (-(alpha + alpha), 0, 1), (-(two_gamma * d), 1, 0)]
    raise ValueError(f"unknown family {family!r}")


def canonical_operator(ansatz: AnsatzParams) -> DiffOperator:
    """The degree-preserving block operator of an ansatz as a DiffOperator."""
    return DiffOperator(tuple(canonical_terms(
        ansatz.family, ansatz.d, beta=ansatz.beta, xi=ansatz.xi,
        gamma=ansatz.gamma, alpha=ansatz.alpha)))


def block_entries(family: str, d: int, *, beta, xi, gamma=None, alpha=None):
    """Closed-form tridiagonal entries of the block as nested lists.

    Column k of the matrix holds the image of u^k:

    FamilyI/II:  (k-d) u^{k+1} + beta k u^k - k (k + 2 xi or k + xi) u^{k-1}
    FamilyIII:   2 gamma (k-d) rho^{k+1} - k (k + 2 xi) rho^k - 2 alpha k rho^{k-1}
    """
    zero = beta - beta
    n = d + 1
    mat = [[zero for _ in range(n)] for _ in range(n)]
    for k in range(n):
        if family in ("I", "II"):
            weight = 2 * xi if family == "I" else xi
            if k + 1 < n:
                mat[k + 1][k] = mat[k + 1][k] + (k - d)
            mat[k][k] = beta * k
            if k >= 1:
                mat[k - 1][k] = -k * (k + weight)
        elif family == "III":
            two_gamma = gamma + gamma
            if k + 1 < n:
                mat[k + 1][k] = two_gamma * (k - d)
            mat[k][k] = -k * (k + 2 * xi)
            if k >= 1:
                mat[k - 1][k] = -(alpha + alpha) * k
        else:
            raise ValueError(f"unknown family {family!r}")
    return mat


def qes_block(ansatz: AnsatzParams) -> QESBlock:
    """Finite block of the gauge-rotated operator for one ansatz."""
    entries = block_entries(ansatz.family, ansatz.d, beta=ansatz.beta,
                            xi=ansatz.xi, gamma=ansatz.gamma, alpha=ansatz.alpha)
    vmap = VariableMap.SQUARE if ansatz.family == "II" else VariableMap.IDENTITY
    return QESBlock(matrix=np.array(entries, dtype=float), scaling_c=ansatz.c,
                    variable_map=vmap, family=ansatz.family, ansatz=ansatz)


@dataclass(frozen=True)
class InvarianceCertificate:
    """Outcome of the exact polynomial-invariance check.

    top_coefficients[k] is the coefficient of u^{k+1} in the image of u^k for
    k = 0..d; every entry beyond degree d must vanish identically, and the
    k = d entry records the cancellation that closes the space.
    """

    ok: bool
    degree: int
    top_coefficients: tuple
    offending: Optional[tuple] = None


def check_polynomial_invariance(op: DiffOperator, d: int) -> InvarianceCertificate:
    """Verify that ``op`` maps polynomials of degree <= d into themselves.

    The check is exact: images of all monomials u^k, k <= d, are computed
    term by term and any nonzero coefficient above degree d fails the
    certificate (reported as (power, coefficient) of the first offender).
    """
    tops = []
    offending = None
    ok = True
    for k in range(d + 1):
        image = apply_diff_operator(op, {k: 1})
        overflow = {p: cf for p, cf in image.items() if p > d}
        tops.append(overflow.get(k + 1, 0))
        if any(cf != 0 for cf in overflow.values()) and offending is None:
            power = min(p for p, cf in overflow.items() if cf != 0)
            offending = (power, overflow[power])
            ok = False
    return InvarianceCertificate(ok=ok, degree=d, top_coefficients=tuple(tops),
                                 offending=offending)


def invariance_check(ansatz: AnsatzParams) -> InvarianceCertificate:
    """Exact closure certificate for the canonical operator of an ansatz."""
    return check_polynomial_invariance(canonical_operator(ansatz), ansatz.d)


def gauge_rotated_operator(pot: PotentialSpec, case: CouplingCase,
                           consts: DerivedConstants, ansatz: AnsatzParams,
                           energy: float) -> DiffOperator:
    """Full gauge-rotated operator in the physical variable, energy included.

    Multiplying the radial equation by 2 m_r rho (FamilyI/II) or 2 m_r rho^2
    (FamilyIII) and dividing out the ansatz prefactor leaves a Laurent
    differential operator T with T p = 0 for exact solutions.  All
    coefficients are kept, including the ones the parameter maps annihilate,
    so applying T to a candidate polynomial measures every constraint at once.
    """
    m_r = consts.m_r
    s = ansatz.s
    tau, eta, xi = ansatz.tau, ansatz.eta, ansatz.xi
    lam_rot, lam_conf = case.lambda_rot, case.lambda_conf
    if isinstance(pot, FamilyI):
        terms = [
            (-1.0, 1, 2),
            (4.0 * tau, 2, 1), (2.0 * eta, 1, 1), (-(1.0 + 2.0 * xi), 0, 1),
            (2.0 * pot.k2 * m_r + 2.0 * m_r * lam_conf - 4.0 * tau ** 2, 3, 0),
            (2.0 * pot.k1 * m_r - 4.0 * eta * tau, 2, 0),
            (4.0 * tau * (1.0 + xi) - m_r * (s * lam_rot + 2.0 * energy) - eta ** 2, 1, 0),
            (float(s) ** 2 + 2.0 * pot.theta * m_r - xi ** 2, -1, 0),
            (2.0 * m_r * pot.g_c + eta * (1.0 + 2.0 * xi), 0, 0),
        ]
    elif isinstance(pot, FamilyII):
        terms = [
            (-1.0, 1, 2),
            (8.0 * tau, 4, 1), (4.0 * eta, 2, 1), (-(1.0 + 2.0 * xi), 0, 1),
            (2.0 * pot.k6 * m_r - 16.0 * tau ** 2, 7, 0),
            (2.0 * pot.k4 * m_r - 16.0 * tau * eta, 5, 0),
            (2.0 * pot.k2 * m_r + 2.0 * m_r * lam_conf
             - 4.0 * eta ** 2 + 8.0 * tau * (xi + 2.0), 3, 0),
            (4.0 * eta * (1.0 + xi) - m_r * (2.0 * energy + s * lam_rot), 1, 0),
            (float(s) ** 2 + 2.0 * pot.theta * m_r - xi ** 2, -1, 0),
        ]
    elif isinstance(pot, FamilyIII):
        terms = [
            (-1.0, 2, 2),
            (2.0 * eta, 2, 1), (-(1.0 + 2.0 * xi), 1, 1), (-2.0 * tau, 0, 1),
            (2.0 * m_r * lam_conf - 2.0 * pot.k2 * m_r, 4, 0),
            (-(2.0 * energy * m_r + eta ** 2 + s * lam_rot * m_r), 2, 0),
            (2.0 * eta * xi + 2.0 * pot.l1 * m_r + eta, 1, 0),
            (2.0 * pot.l3 * m_r - 2.0 * xi * tau + tau, -1, 0),
            (2.0 * pot.l4 * m_r - tau ** 2, -2, 0),
            (-(xi ** 2 - 2.0 * eta * tau - float(s) ** 2 - 2.0 * pot.l2 * m_r), 0, 0),
        ]
    else:
        raise DomainError(f"unknown potential family {type(pot).__name__}")
    return DiffOperator(tuple(terms))
