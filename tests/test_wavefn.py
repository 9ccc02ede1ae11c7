"""Eigenvector extraction, zeta evaluation, norms, and node counting."""

import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from qesmag.qes_core import (
    CouplingTag,
    DomainError,
    FamilyI,
    FamilyII,
    FamilyIII,
    ParticlePair,
    ansatz_params,
    case_lambdas,
    derive_constants,
    qes_block,
)
from qesmag.spectra import block_eigenvalues
from qesmag.wavefn import (
    build_wavefunction,
    count_nodes,
    evaluate_zeta,
    normalize,
    polynomial_from_eigenvector,
    zeta_log,
)

CHARGED = CouplingTag.CHARGED_EC0


def _consts(m1=1.0):
    return derive_constants(ParticlePair(m1=m1, m2=m1, e1=1.0, e2=1.0))


def _coulomb_block(d, omega=2.0):
    consts = _consts()
    case = case_lambdas(CHARGED, consts, omega)
    return qes_block(ansatz_params(FamilyI(g_c=1.0), case, consts, 0, d))


def _sextic_block_d1():
    # binary-exact map: tau = 1/4, eta = 1/2, c = 1, beta = 1
    consts = _consts()
    case = case_lambdas(CHARGED, consts, 1.0)
    a = ansatz_params(FamilyII(k6=1.0, k4=2.0), case, consts, 0, 1)
    return qes_block(a)


# ---------------------------------------------------------------------------
# Polynomial extraction


def test_degree_zero_polynomial_is_unity():
    assert polynomial_from_eigenvector(_coulomb_block(0), 0.0) == (1.0,)


def test_coulomb_branch_polynomial():
    block = _coulomb_block(1)
    assert polynomial_from_eigenvector(block, -1.0) == \
        pytest.approx((1.0, 1.0), abs=1e-14)
    assert polynomial_from_eigenvector(block, 1.0) == \
        pytest.approx((-1.0, 1.0), abs=1e-14)


def test_branch_object_and_raw_value_agree():
    block = _coulomb_block(2)
    for branch in block_eigenvalues(block):
        assert polynomial_from_eigenvector(block, branch) == \
            polynomial_from_eigenvector(block, branch.mu)


def test_square_map_interleaves_zero_coefficients():
    block = _sextic_block_d1()
    mu = (1.0 + math.sqrt(5.0)) / 2.0
    poly = polynomial_from_eigenvector(block, mu)
    assert len(poly) == 3
    assert poly[1] == 0.0
    assert poly[2] == 1.0


def test_complex_branch_is_rejected():
    consts = _consts(m1=2.0)
    case = case_lambdas(CHARGED, consts, 4.0)
    a = ansatz_params(FamilyIII(l1=2.0, l4=0.5, k2=2.0), case, consts, 0, 1)
    block = qes_block(a)
    with pytest.raises(DomainError):
        polynomial_from_eigenvector(block, block_eigenvalues(block)[0].mu)


@pytest.mark.parametrize("d", [1, 2, 4, 6])
def test_rescaled_polynomial_is_an_eigenvector(d):
    block = _coulomb_block(d, omega=3.0)
    c = block.scaling_c
    for branch in block_eigenvalues(block):
        poly = polynomial_from_eigenvector(block, branch)
        vec = np.array(poly) / c ** np.arange(d + 1)
        defect = block.matrix @ vec - branch.mu.real * vec
        assert np.abs(defect).max() < 1e-12 * np.abs(vec).max()


# ---------------------------------------------------------------------------
# Zeta evaluation


def _sextic_ground_state():
    # tau = 1/4 and no quartic term: zeta(rho) = sqrt(rho) e^{-rho^4/4}
    consts = _consts()
    case = case_lambdas(CHARGED, consts, 1.0)
    a = ansatz_params(FamilyII(k6=1.0), case, consts, 0, 0)
    return build_wavefunction(qes_block(a), 0.0)


def _inverse_square_ground_state():
    # tau = eta = 1: zeta(rho) = rho^{xi+1/2} e^{-1/rho - rho}
    consts = _consts(m1=2.0)
    case = case_lambdas(CHARGED, consts, math.sqrt(8.0))
    a = ansatz_params(FamilyIII(l1=-1.0, l4=0.5, k2=1.0), case, consts, 0, 0)
    return build_wavefunction(qes_block(a), 0.0)


def test_zeta_value_at_unit_radius():
    assert evaluate_zeta(_sextic_ground_state(), 1.0) == \
        pytest.approx(math.exp(-0.25), rel=1e-14)
    assert evaluate_zeta(_inverse_square_ground_state(), 1.0) == \
        pytest.approx(math.exp(-2.0), rel=1e-14)


def test_zeta_rejects_nonpositive_radius():
    wf = _sextic_ground_state()
    with pytest.raises(DomainError):
        evaluate_zeta(wf, 0.0)
    with pytest.raises(DomainError):
        zeta_log(wf, -1.0)


def test_zeta_extreme_exponent_reported_in_log_space():
    out = evaluate_zeta(_inverse_square_ground_state(), 1e-4)
    assert isinstance(out, tuple)
    sign, logmag = out
    assert sign == 1.0
    assert logmag == pytest.approx(-1e4, rel=1e-2)


def test_zeta_exact_zero_at_polynomial_root():
    block = _coulomb_block(1)
    wf = build_wavefunction(block, 1.0)  # polynomial rho - 1
    assert zeta_log(wf, 1.0) == (0.0, -math.inf)
    assert evaluate_zeta(wf, 1.0) == 0.0


def test_zeta_log_consistency():
    wf = _sextic_ground_state()
    for rho in (0.3, 1.0, 2.5):
        sign, logmag = zeta_log(wf, rho)
        assert sign * math.exp(logmag) == pytest.approx(
            evaluate_zeta(wf, rho), rel=1e-13)


# ---------------------------------------------------------------------------
# Normalization


def test_norm_gaussian_closed_form():
    # tau = 1/2, eta = xi = 0: integral of rho e^{-rho^2} is 1/2
    consts = _consts()
    case = case_lambdas(CHARGED, consts, 4.0)
    a = ansatz_params(FamilyI(g_c=1.0), case, consts, 0, 0)
    wf = normalize(build_wavefunction(qes_block(a), 0.0))
    assert wf.norm == pytest.approx(math.sqrt(0.5), rel=1e-10)


def test_norm_quartic_gaussian_closed_form():
    # integral of rho e^{-rho^4/2} is (1/2) sqrt(pi/2)
    wf = normalize(_sextic_ground_state())
    assert wf.norm == pytest.approx(math.sqrt(0.5 * math.sqrt(math.pi / 2.0)),
                                    rel=1e-10)


def test_normalize_refuses_unbounded_state():
    consts = _consts(m1=2.0)
    case = case_lambdas(CHARGED, consts, 4.0)
    a = ansatz_params(FamilyIII(l1=1.0, l4=0.5, k2=2.0), case, consts, 0, 0)
    assert a.eta < 0.0
    wf = build_wavefunction(qes_block(a), 0.0)
    with pytest.raises(DomainError):
        normalize(wf)


def test_normalized_state_has_unit_density():
    from scipy.integrate import quad

    wf = normalize(_sextic_ground_state())

    def density(r):
        if r <= 0.0:
            return 0.0
        _, logmag = zeta_log(wf, r)
        return math.exp(2.0 * logmag + math.log(r)) / wf.norm ** 2

    total, _ = quad(density, 0.0, 6.0)
    assert total == pytest.approx(1.0, rel=1e-9)


# ---------------------------------------------------------------------------
# Node counting


def test_node_count_coulomb_branches():
    block = _coulomb_block(1)
    assert count_nodes(build_wavefunction(block, -1.0)) == 0  # 1 + rho
    assert count_nodes(build_wavefunction(block, 1.0)) == 1   # rho - 1


def test_node_ladder_follows_branch_order():
    block = _coulomb_block(2)
    for idx, branch in enumerate(block_eigenvalues(block)):
        wf = build_wavefunction(block, branch.mu.real)
        assert count_nodes(wf) == idx


def test_node_count_even_polynomial():
    block = _sextic_block_d1()
    mu_low = (1.0 - math.sqrt(5.0)) / 2.0
    mu_high = (1.0 + math.sqrt(5.0)) / 2.0
    # mu < 0 branch: p(w) = 1 + a w with a > 0, nodeless in rho
    assert count_nodes(build_wavefunction(block, mu_low)) == 0
    # mu > 0 branch: one sign change on the half line
    assert count_nodes(build_wavefunction(block, mu_high)) == 1


def test_node_count_ignores_root_at_origin():
    block = _coulomb_block(1)
    wf = build_wavefunction(block, -1.0)
    # hand-build a polynomial with a zero constant term: rho(1 + rho)
    from dataclasses import replace

    shifted = replace(wf, poly_physical=(0.0, 1.0, 1.0))
    assert count_nodes(shifted) == 0


def test_node_count_repeated_root_counted_once():
    block = _coulomb_block(2)
    wf = build_wavefunction(block, 0.0)
    from dataclasses import replace

    squared = replace(wf, poly_physical=(1.0, -2.0, 1.0))  # (1 - rho)^2
    assert count_nodes(squared) == 1


@pytest.mark.parametrize("family, poly", [
    ("I", (-1.0, 0.0, 1.0)),                         # rho^2 - 1
    ("I", (0.0, 0.0, -9.0, 0.0, 1.0)),               # rho^2 (rho^2 - 9)
    ("II", (0.0, 0.0, -9.0, 0.0, 0.0, 0.0, 1.0)),    # w (w^2 - 9), w = rho^2
    ("I", (0.25, -0.75, 0.0, 1.0)),                  # (rho + 1)(rho - 1/2)^2
])
def test_node_count_when_a_division_step_cancels_two_terms(family, poly):
    # one subtraction of the remainder sequence zeroes two leading terms
    wf = replace(build_wavefunction(_coulomb_block(1), -1.0), family=family,
                 poly_physical=poly)
    assert count_nodes(wf) == 1


def _times(p, q):
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


_dyadic = st.builds(lambda m, j: Fraction(m, 2 ** j),
                    st.integers(-12, 12), st.integers(0, 4))
_positive_dyadic = st.builds(lambda m, j: Fraction(m, 2 ** j),
                             st.integers(1, 12), st.integers(0, 4))


@settings(max_examples=300, deadline=None)
@given(roots=st.lists(st.tuples(_dyadic, st.integers(1, 3)), max_size=4),
       quadratics=st.lists(_positive_dyadic, max_size=2),
       k=st.integers(-200, 200), family=st.sampled_from(["I", "II"]))
def test_node_count_is_number_of_distinct_positive_roots(roots, quadratics,
                                                         k, family):
    # p = 2^k prod (x - r)^m prod (x^2 + c), in x = rho (I) or x = rho^2 (II)
    poly = [Fraction(2) ** k]
    for r, mult in roots:
        for _ in range(mult):
            poly = _times(poly, [-r, Fraction(1)])
    for c in quadratics:
        poly = _times(poly, [c, Fraction(0), Fraction(1)])
    assume(all(Fraction(float(c)) == c for c in poly))
    coeffs = [float(c) for c in poly]
    if family == "II":
        coeffs = [v for c in coeffs for v in (c, 0.0)][:-1]
    wf = replace(build_wavefunction(_coulomb_block(1), -1.0), family=family,
                 poly_physical=tuple(coeffs))
    assert count_nodes(wf) == len({r for r, _ in roots if r > 0})
