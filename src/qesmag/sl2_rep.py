"""Exact ladder-operator matrices on monomial bases, plus a small polynomial
differential-operator engine.

The carrier space of dimension N is Span{rho^0, ..., rho^{N-1}} with basis
vectors ordered by ascending power, and matrices act on coefficient columns:
column k of a generator matrix holds the coefficients of the generator applied
to rho^k.  With j = (N-1)/2 the three generators are

    j_plus  = 2*j*rho - rho^2 * d/drho
    j_minus = d/drho
    j_zero  = -j + rho * d/drho

so that j_minus rho^k = k rho^{k-1}, j_zero rho^k = (k-j) rho^k and
j_plus rho^k = (2j-k) rho^{k+1}.  Everything here is kept in exact rational
arithmetic (fractions.Fraction); floating point only enters downstream when a
finite block is actually diagonalised.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping, Sequence, Union

import numpy as np

__all__ = [
    "RepSpace",
    "GeneratorTriple",
    "DiffOperator",
    "generator_matrices",
    "commutator_defect",
    "quadratic_form_matrix",
    "apply_diff_operator",
    "diff_generators",
]

Coeff = Union[int, float, Fraction]


@dataclass(frozen=True)
class RepSpace:
    """Monomial space of dimension ``dim`` (top polynomial degree dim - 1)."""

    dim: int

    def __post_init__(self) -> None:
        if not isinstance(self.dim, int) or self.dim < 1:
            raise ValueError(f"dimension must be a positive integer, got {self.dim!r}")

    @property
    def degree(self) -> int:
        return self.dim - 1

    @property
    def spin(self) -> Fraction:
        # 2j + 1 = dim, so j is integer or half-integer.
        return Fraction(self.dim - 1, 2)


@dataclass(frozen=True)
class GeneratorTriple:
    """Raising (j_plus), lowering (j_minus) and weight (j_zero) matrices.

    Stored as numpy object arrays of Fractions so downstream identity checks
    stay exact.
    """

    j_plus: np.ndarray
    j_minus: np.ndarray
    j_zero: np.ndarray

    def as_tuple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return (self.j_plus, self.j_minus, self.j_zero)


def _zeros(dim: int) -> np.ndarray:
    mat = np.empty((dim, dim), dtype=object)
    mat[:] = Fraction(0)
    return mat


def generator_matrices(space: RepSpace) -> GeneratorTriple:
    """Exact matrices of the three generators on the monomial basis.

    Entries follow the monomial action: lower[k-1, k] = k,
    raise[k+1, k] = 2j - k, weight[k, k] = k - j.
    """
    dim = space.dim
    j = space.spin
    up = _zeros(dim)
    down = _zeros(dim)
    weight = _zeros(dim)
    for k in range(dim):
        weight[k, k] = Fraction(k) - j
        if k >= 1:
            down[k - 1, k] = Fraction(k)
        if k + 1 < dim:
            up[k + 1, k] = 2 * j - k
    return GeneratorTriple(up, down, weight)


def _doubled_int_matrix(mat: np.ndarray) -> np.ndarray:
    """2*mat as int64; generator entries are half-integers, so this is exact."""
    doubled = [int(2 * Fraction(entry)) for entry in mat.flat]
    return np.array(doubled, dtype=np.int64).reshape(mat.shape)


def commutator_defect(space: RepSpace) -> Fraction:
    """Largest absolute entry over the three commutator identities.

    Checks [weight, raise] - raise, [weight, lower] + lower and
    [raise, lower] - 2*weight in exact arithmetic; the result is zero for
    every dimension if the matrices are correct.  Doubling makes every entry
    an integer, the commutators of the doubled matrices are 4x the
    originals, and each entry is a single product of at most (2 dim)^2, far
    inside the int64 range.
    """
    u2, d2, w2 = (_doubled_int_matrix(m)
                  for m in generator_matrices(space).as_tuple())
    scaled = (
        w2 @ u2 - u2 @ w2 - 2 * u2,
        w2 @ d2 - d2 @ w2 + 2 * d2,
        u2 @ d2 - d2 @ u2 - 4 * w2,
    )
    return Fraction(max(int(np.abs(mat).max()) for mat in scaled), 4)


def quadratic_form_matrix(a: Sequence[Sequence[Coeff]], b: Sequence[Coeff],
                          space: RepSpace) -> np.ndarray:
    """Matrix of sum_{ab} a[ab] G_a G_b + sum_a b[a] G_a.

    Index order is (plus, minus, zero).  G_a G_b means "apply G_b first",
    i.e. the plain matrix product of the column-action matrices.  Entries stay
    exact when the coefficients are rational.
    """
    a = [list(row) for row in a]
    if len(a) != 3 or any(len(row) != 3 for row in a):
        raise ValueError("quadratic coefficient array must be 3x3")
    b = list(b)
    if len(b) != 3:
        raise ValueError("linear coefficient array must have length 3")
    gens = generator_matrices(space).as_tuple()
    total = _zeros(space.dim)
    for i in range(3):
        for k in range(3):
            if a[i][k] != 0:
                total = total + a[i][k] * (gens[i] @ gens[k])
        if b[i] != 0:
            total = total + b[i] * gens[i]
    return total


@dataclass(frozen=True)
class DiffOperator:
    """Finite sum of terms coeff * rho^power * d^order/drho^order.

    power is an integer >= -2 (Laurent tails appear in the gauge-rotated
    radial operators) and order is 0, 1 or 2.
    """

    terms: tuple[tuple[Coeff, int, int], ...]

    def __post_init__(self) -> None:
        for coeff, power, order in self.terms:
            if not isinstance(power, int) or power < -2:
                raise ValueError(f"rho power must be an integer >= -2, got {power!r}")
            if order not in (0, 1, 2):
                raise ValueError(f"derivative order must be 0, 1 or 2, got {order!r}")

    def __add__(self, other: "DiffOperator") -> "DiffOperator":
        return DiffOperator(self.terms + other.terms)


def apply_diff_operator(op: DiffOperator,
                        poly: Union[Sequence[Coeff], Mapping[int, Coeff]]) -> dict[int, Coeff]:
    """Apply ``op`` to a polynomial, returning {power: coefficient}.

    ``poly`` is either a coefficient sequence indexed by power or a sparse
    {power: coefficient} mapping (negative powers allowed).  No truncation is
    performed, so rational inputs give exact rational output.
    """
    if isinstance(poly, Mapping):
        items = list(poly.items())
    else:
        items = list(enumerate(poly))
    out: dict[int, Coeff] = {}
    for coeff, power, order in op.terms:
        for k, ck in items:
            if ck == 0:
                continue
            factor = 1
            for step in range(order):
                factor *= k - step
            if factor == 0:
                continue
            key = k - order + power
            out[key] = out.get(key, 0) + coeff * ck * factor
    return {k: v for k, v in sorted(out.items()) if v != 0}


def diff_generators(space: RepSpace) -> tuple[DiffOperator, DiffOperator, DiffOperator]:
    """The generators as first-order differential operators in rho.

    Returned in (plus, minus, zero) order; applying them to monomials of
    degree <= 2j via apply_diff_operator reproduces generator_matrices
    column by column, exactly.
    """
    j = space.spin
    plus_op = DiffOperator(((2 * j, 1, 0), (-1, 2, 1)))
    minus_op = DiffOperator(((1, 0, 1),))
    zero_op = DiffOperator(((-j, 0, 0), (1, 1, 1)))
    return plus_op, minus_op, zero_op
