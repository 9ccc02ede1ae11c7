"""Physical radial wavefunctions rebuilt from block eigenvectors.

zeta(rho) = exp(g(rho)) * rho^xi * p(rho) with the family ansatz exponent g
and a polynomial p recovered from a block eigenvector.  Everything works on
the physical variable: scaled eigenvector entries are unscaled through
u = c*rho (or u = c*rho^2).  Node counting is exact: every float
coefficient is a dyadic rational, so one power of two scales the polynomial
to integer coefficients, and a Sturm chain of content-reduced integer
pseudo-remainders counts its positive roots with no rounding at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Union

import numpy as np
from scipy.integrate import quad

from .qes_core import (
    AnsatzParams,
    DomainError,
    NumericalError,
    QESBlock,
    VariableMap,
)

__all__ = [
    "RadialWavefunction",
    "polynomial_from_eigenvector",
    "build_wavefunction",
    "zeta_log",
    "evaluate_zeta",
    "normalize",
    "count_nodes",
]

EIGENVECTOR_TOL = 1e-8
# Relative accuracy asked of each segment of the norm quadrature.
NORM_EPSREL = 1e-11


@dataclass(frozen=True)
class RadialWavefunction:
    """Ansatz factor plus physical polynomial; norm filled in by normalize."""

    family: str
    ansatz: AnsatzParams
    poly_physical: tuple[float, ...]
    norm: Optional[float] = None


def _branch_mu(branch) -> complex:
    return complex(branch.mu) if hasattr(branch, "mu") else complex(branch)


def polynomial_from_eigenvector(block: QESBlock, branch) -> tuple[float, ...]:
    """Physical-variable coefficients of one branch's polynomial.

    ``branch`` is a BranchEigen or a bare eigenvalue.  The right eigenvector
    is unscaled by a_k -> a_k c^k, expanded to even powers of rho when the
    block lives in w = rho^2, and divided through by its leading coefficient.
    """
    mu = _branch_mu(branch)
    if abs(mu.imag) > 1e-10 * (1.0 + abs(mu)):
        raise DomainError(f"eigenvalue {mu} is not real; no real polynomial")
    matrix = block.matrix
    vals, vecs = np.linalg.eig(matrix)
    idx = int(np.argmin(np.abs(vals - mu)))
    vec = vecs[:, idx]
    vec = vec / vec[int(np.argmax(np.abs(vec)))]
    vec = vec.real
    scale = (np.abs(matrix).sum(axis=1).max() + abs(mu)) * np.abs(vec).max()
    defect = np.abs(matrix @ vec - vals[idx].real * vec).max()
    if defect > EIGENVECTOR_TOL * max(scale, 1e-300):
        raise NumericalError(
            f"defective eigenpair at mu = {mu}: residual {defect:.3e} "
            f"exceeds {EIGENVECTOR_TOL} of scale {scale:.3e}")
    d = block.ansatz.d
    unscaled = vec * block.scaling_c ** np.arange(d + 1)
    if block.variable_map is VariableMap.SQUARE:
        phys = np.zeros(2 * d + 1)
        phys[::2] = unscaled
    else:
        phys = unscaled
    return tuple(float(v) for v in phys / phys[-1])


def build_wavefunction(block: QESBlock, branch) -> RadialWavefunction:
    return RadialWavefunction(family=block.family, ansatz=block.ansatz,
                              poly_physical=polynomial_from_eigenvector(block, branch))


def _gauge_exponent(a: AnsatzParams, rho: float) -> float:
    if a.family == "I":
        return -a.tau * rho * rho - a.eta * rho
    if a.family == "II":
        return -a.tau * rho ** 4 - a.eta * rho * rho
    return -a.tau / rho - a.eta * rho


def zeta_log(wf: RadialWavefunction, rho: float) -> tuple[float, float]:
    """(sign, log magnitude) of zeta at one radius; exact -inf at poly roots."""
    if rho <= 0.0:
        raise DomainError(f"radius must be positive, got {rho}")
    a = wf.ansatz
    p = float(np.polynomial.polynomial.polyval(rho, wf.poly_physical))
    exponent = _gauge_exponent(a, rho) + a.xi * math.log(rho)
    if p == 0.0:
        return 0.0, -math.inf
    return math.copysign(1.0, p), exponent + math.log(abs(p))


def evaluate_zeta(wf: RadialWavefunction,
                  rho: float) -> Union[float, tuple[float, float]]:
    """zeta(rho), or (sign, log magnitude) when the value escapes float range."""
    sign, logmag = zeta_log(wf, rho)
    if logmag == -math.inf:
        return 0.0
    if abs(logmag) > 500.0:
        return sign, logmag
    return sign * math.exp(logmag)


def _density_peak(a: AnsatzParams) -> float:
    """Stationary radius of zeta^2 * rho, used to split the norm quadrature."""
    w = 2.0 * a.xi + 1.0
    if a.family == "I":
        # 4 tau rho^2 + 2 eta rho - w = 0
        return (-a.eta + math.sqrt(a.eta ** 2 + 4.0 * a.tau * w)) / (4.0 * a.tau)
    if a.family == "II":
        r2 = (-a.eta + math.sqrt(a.eta ** 2 + 2.0 * a.tau * w)) / (4.0 * a.tau)
        return math.sqrt(r2)
    # 2 eta rho^2 - w rho - 2 tau = 0
    return (w + math.sqrt(w ** 2 + 16.0 * a.eta * a.tau)) / (4.0 * a.eta)


def normalize(wf: RadialWavefunction) -> RadialWavefunction:
    """Return a copy with norm = sqrt(integral of zeta^2 rho drho).

    The integral is split at the density peak so the adaptive quadrature sees
    one interior maximum per segment; total relative error must come out
    below 1e-10 or a NumericalError is raised.
    """
    if not wf.ansatz.normalizable:
        raise DomainError("wavefunction is flagged non-normalizable")

    def integrand(rho: float) -> float:
        if rho <= 0.0:
            return 0.0
        _, logmag = zeta_log(wf, rho)
        ex = 2.0 * logmag + math.log(rho)
        return math.exp(ex) if ex > -700.0 else 0.0

    peak = _density_peak(wf.ansatz)
    total = 0.0
    err = 0.0
    edges = [0.0, peak, 5.0 * peak, math.inf]
    for lo, hi in zip(edges[:-1], edges[1:]):
        # epsabs = 0 forces pure relative convergence; the default absolute
        # floor makes quad stop early and report errors above our budget
        val, abserr = quad(integrand, lo, hi, epsabs=0.0, epsrel=NORM_EPSREL,
                           limit=200)
        total += val
        err += abserr
    if not math.isfinite(total) or total <= 0.0:
        raise NumericalError(f"norm integral came out {total}")
    if err > 1e-10 * total:
        raise NumericalError(
            f"norm quadrature error {err:.3e} above 1e-10 of {total:.3e}")
    return replace(wf, norm=math.sqrt(total))


# ---------------------------------------------------------------------------
# Exact node counting


def _primitive(poly: list[int]) -> list[int]:
    """poly divided by its content, the gcd of its coefficients."""
    g = math.gcd(*poly)
    return [c // g for c in poly]


def _next_in_chain(a: list[int], b: list[int]) -> list[int]:
    """Primitive part of -prem(a, b), or [] when b divides a.

    The pseudo-remainder is taken with the positive multiplier
    |lc(b)|^(deg a - deg b + 1), so it is a positive multiple of the
    remainder and the signs that Sturm's theorem reads are unchanged.
    """
    r = a[:]
    lead = b[-1]
    scale, sign = abs(lead), (1 if lead > 0 else -1)
    low = b[:-1]
    for shift in range(len(a) - len(b), -1, -1):
        top = sign * r.pop()
        r = [scale * c for c in r]
        for i, c in enumerate(low):
            r[shift + i] -= top * c
    while r and r[-1] == 0:
        r.pop()
    return _primitive([-c for c in r]) if r else []


def _variations(signs: list[bool]) -> int:
    return sum(x != y for x, y in zip(signs[:-1], signs[1:]))


def count_nodes(wf: RadialWavefunction) -> int:
    """Number of distinct zeros of the polynomial factor on (0, inf).

    The coefficients are floats, so one power of two turns them all into
    integers without rounding.  The Sturm chain p, p', -prem(., .), ... then
    runs over the integers, each element divided by its content.  It ends at
    gcd(p, p'), and its sign variations at two points where p does not vanish
    differ by the number of distinct roots between them, repeated roots
    included once, so no square-free reduction is needed.  The points are
    0+ (lowest nonzero coefficients) and +inf (leading coefficients).  For
    blocks living in w = rho^2 the count is taken in w, where each positive
    root is exactly one radial node.
    """
    coeffs = wf.poly_physical
    if wf.family == "II":
        coeffs = coeffs[::2]
    ratios = [float(c).as_integer_ratio() for c in coeffs]
    den = max((q for _, q in ratios), default=1)  # all are powers of two
    poly = [n * (den // q) for n, q in ratios]
    while poly and poly[-1] == 0:
        poly.pop()
    while poly and poly[0] == 0:  # rho = 0 is not in the open interval
        poly.pop(0)
    if len(poly) <= 1:
        return 0
    chain = [_primitive(poly),
             _primitive([k * c for k, c in enumerate(poly)][1:])]
    while len(chain[-1]) > 1:
        nxt = _next_in_chain(chain[-2], chain[-1])
        if not nxt:
            break
        chain.append(nxt)
    at_zero = _variations([next(c for c in p if c) > 0 for p in chain])
    at_inf = _variations([p[-1] > 0 for p in chain])
    return at_zero - at_inf
