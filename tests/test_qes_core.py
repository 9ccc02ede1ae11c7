"""Derived constants, ansatz maps, and block construction."""

import math
from fractions import Fraction

import numpy as np
import pytest

from qesmag.qes_core import (
    AdmissibilityError,
    CouplingTag,
    DegenerateParameterError,
    DomainError,
    FallToCentreError,
    FamilyI,
    FamilyII,
    FamilyIII,
    ParticlePair,
    ansatz_params,
    block_entries,
    canonical_terms,
    case_frequency,
    case_lambdas,
    check_polynomial_invariance,
    coulomb_strength,
    derive_constants,
    effective_radial_problem,
    gauge_rotated_operator,
    invariance_check,
    qes_block,
)
from qesmag.sl2_rep import DiffOperator, apply_diff_operator

F = Fraction


# ---------------------------------------------------------------------------
# Derived constants


def test_constants_equal_masses_negative_charges():
    c = derive_constants(ParticlePair(m1=1.0, m2=1.0, e1=-1.0, e2=-1.0, B=1.0))
    assert c.m_r == 0.5
    assert c.q == -2.0
    assert c.e_c == 0.0
    assert c.omega_c == -1.0
    assert c.mu1 == 0.5 and c.mu2 == 0.5


def test_coupling_charge_vanishes_by_symmetry():
    c = derive_constants(ParticlePair(m1=3.7, m2=3.7, e1=2.1, e2=2.1))
    assert c.e_c == 0.0


def test_constants_neutral_unequal_masses():
    c = derive_constants(ParticlePair(m1=1.0, m2=2.0, e1=3.0, e2=-3.0, B=1.0))
    assert c.q == 0.0
    assert c.e_c == pytest.approx(3.0, rel=1e-15)
    assert c.omega_q == pytest.approx(1.5, rel=1e-15)
    assert c.M == 3.0
    assert c.m_r == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_nonpositive_mass_rejected():
    with pytest.raises(DomainError):
        ParticlePair(m1=0.0, m2=1.0, e1=1.0, e2=1.0)
    with pytest.raises(DomainError):
        ParticlePair(m1=1.0, m2=-2.0, e1=1.0, e2=1.0)


# ---------------------------------------------------------------------------
# Coupling cases


def test_effective_problem_charged():
    c = derive_constants(ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=1.0, B=2.0))
    case = effective_radial_problem(c, CouplingTag.CHARGED_EC0)
    assert case.lambda_rot == 2.0
    assert case.lambda_conf == 0.25


def test_effective_problem_neutral():
    c = derive_constants(ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=-1.0, B=2.0))
    case = effective_radial_problem(c, CouplingTag.NEUTRAL_REST)
    assert c.Omega_q == 2.0
    assert case.lambda_rot == 0.0  # equal masses: no rotation coupling
    assert case.lambda_conf == 1.0


def test_effective_problem_field_off():
    c = derive_constants(ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=1.0, B=0.0))
    case = effective_radial_problem(c, CouplingTag.CHARGED_EC0)
    assert case.lambda_rot == 0.0 and case.lambda_conf == 0.0


def test_case_admissibility_rejections():
    lopsided = derive_constants(ParticlePair(m1=1.0, m2=2.0, e1=1.0, e2=1.0))
    with pytest.raises(AdmissibilityError):
        effective_radial_problem(lopsided, CouplingTag.CHARGED_EC0)
    charged = derive_constants(ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=1.0))
    with pytest.raises(AdmissibilityError):
        effective_radial_problem(charged, CouplingTag.NEUTRAL_REST)


def test_effective_frequency_round_trip():
    c = derive_constants(ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=1.0))
    for tag in CouplingTag:
        conf = case_lambdas(tag, c, 3.0).lambda_conf
        assert case_frequency(tag, c, conf) == pytest.approx(3.0, rel=1e-15)


def test_rotation_frequency_of_each_case():
    # unequal masses, so the neutral rotation term does not vanish
    m1, m2, e1, B = 1.0, 3.0, 2.0, 1.5
    M, m_r = m1 + m2, m1 * m2 / (m1 + m2)
    neutral = derive_constants(ParticlePair(m1=m1, m2=m2, e1=e1, e2=-e1, B=B))
    expected = e1 * B * abs(m1 - m2) / (M * m_r)
    assert neutral.omega_q == pytest.approx(expected, rel=1e-15)
    for case in (case_lambdas(CouplingTag.NEUTRAL_REST, neutral,
                              neutral.Omega_q),
                 effective_radial_problem(neutral, CouplingTag.NEUTRAL_REST)):
        assert case.lambda_rot == pytest.approx(neutral.omega_q, rel=1e-15)
        assert case.lambda_rot == pytest.approx(expected, rel=1e-15)
    e2 = e1 * m2 / m1  # e_c = 0
    charged = derive_constants(ParticlePair(m1=m1, m2=m2, e1=e1, e2=e2, B=B))
    case = effective_radial_problem(charged, CouplingTag.CHARGED_EC0)
    assert case.lambda_rot == pytest.approx((e1 + e2) * B / M, rel=1e-15)


# ---------------------------------------------------------------------------
# Potentials


def test_potential_evaluation():
    assert FamilyI(g_c=2.0, theta=1.0, k1=3.0, k2=4.0).evaluate(2.0) == \
        pytest.approx(2.0 / 2 + 1.0 / 4 + 6.0 + 16.0, rel=1e-15)
    assert FamilyII(theta=4.0, k2=1.0, k4=1.0, k6=1.0).evaluate(2.0) == \
        pytest.approx(1.0 + 4.0 + 16.0 + 64.0, rel=1e-15)
    assert FamilyIII(l1=1.0, l2=1.0, l3=1.0, l4=1.0, k2=1.0).evaluate(2.0) \
        == pytest.approx(1.0 / 16 + 1.0 / 8 + 1.0 / 4 + 1.0 / 2 - 4.0,
                         rel=1e-15)


def test_coulomb_strength_scaling():
    c = derive_constants(ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=1.0))
    assert coulomb_strength(c, FamilyI(g_c=1.0)) == 1.0  # 2 * (1/2) * 1
    assert coulomb_strength(c, FamilyI(g_c=-3.0)) == -3.0


# ---------------------------------------------------------------------------
# Ansatz maps


def _charged_case(m1, omega):
    pair = ParticlePair(m1=m1, m2=m1, e1=1.0, e2=1.0)
    consts = derive_constants(pair)
    return consts, case_lambdas(CouplingTag.CHARGED_EC0, consts, omega)


def test_ansatz_family_i_coulomb_limit():
    consts, case = _charged_case(1.0, 2.0)  # m_r = 1/2
    a = ansatz_params(FamilyI(g_c=1.0), case, consts, 0, 1)
    assert (a.tau, a.eta, a.xi, a.c, a.beta) == (0.25, 0.0, 0.0, 1.0, 0.0)
    assert a.alpha == 1.0 + 0.0 + 0.5
    assert a.normalizable


def test_ansatz_family_ii_fixture():
    consts, case = _charged_case(2.0, 4.0)  # m_r = 1
    a = ansatz_params(FamilyII(k6=0.5), case, consts, 0, 0)
    assert (a.tau, a.eta, a.xi, a.c, a.beta) == (0.25, 0.0, 0.0, 1.0, 0.0)


def test_ansatz_family_iii_fixture():
    consts, case = _charged_case(2.0, math.sqrt(8.0))  # m_r = 1
    a = ansatz_params(FamilyIII(l1=-1.0, l4=0.5, k2=1.0), case, consts, 0, 0)
    assert (a.tau, a.xi, a.eta, a.beta) == (1.0, 0.5, 1.0, 0.0)
    assert a.gamma == a.eta
    assert a.alpha == a.tau
    assert a.normalizable


def test_family_i_exact_binary_parameters():
    consts, case = _charged_case(1.0, 2.0)  # m_r = 1/2, m_r^2 w^2 = 1
    a = ansatz_params(FamilyI(g_c=1.0, k1=4.0, k2=15.0 / 4.0), case, consts,
                      0, 2)
    # radicand = 1 + 8 * (15/4) * (1/2) = 16
    assert (a.tau, a.eta, a.c, a.beta) == (1.0, 1.0, 2.0, 1.0)


def test_family_ii_exact_binary_parameters():
    consts, case = _charged_case(1.0, 1.0)  # m_r = 1/2
    a = ansatz_params(FamilyII(k6=1.0, k4=2.0), case, consts, 0, 1)
    assert (a.tau, a.eta, a.c, a.beta) == (0.25, 0.5, 1.0, 1.0)


def test_vanishing_linear_term_kills_eta_and_beta():
    consts, case = _charged_case(1.3, 2.7)
    for d in range(4):
        a = ansatz_params(FamilyI(g_c=2.0, k2=0.3), case, consts, 1, d)
        assert a.eta == 0.0 and a.beta == 0.0


@pytest.mark.parametrize("s", [-2, -1, 0, 1, 2])
def test_xi_is_abs_s_without_inverse_square_term(s):
    consts, case = _charged_case(1.0, 2.0)
    a1 = ansatz_params(FamilyI(g_c=1.0), case, consts, s, 1)
    a2 = ansatz_params(FamilyII(k6=1.0), case, consts, s, 1)
    assert a1.xi == float(abs(s))
    assert a2.xi == float(abs(s))


def test_fall_to_centre_guard():
    consts, case = _charged_case(1.0, 2.0)
    with pytest.raises(FallToCentreError):
        ansatz_params(FamilyI(g_c=1.0, theta=-9.0), case, consts, 0, 1)
    # strong angular momentum keeps the same theta admissible
    a = ansatz_params(FamilyI(g_c=1.0, theta=-9.0), case, consts, 4, 1)
    assert a.xi == pytest.approx(math.sqrt(16.0 - 9.0), rel=1e-15)


def test_family_domain_guards():
    consts, case = _charged_case(1.0, 2.0)
    with pytest.raises(DomainError):
        ansatz_params(FamilyII(k6=0.0), case, consts, 0, 1)
    with pytest.raises(DomainError):
        ansatz_params(FamilyIII(l4=-1.0, k2=1.0), case, consts, 0, 1)
    with pytest.raises(DomainError):
        # confinement radicand m_r^2 w^2 + 8 k2 m_r < 0
        ansatz_params(FamilyI(g_c=1.0, k2=-10.0), case, consts, 0, 1)


def test_family_iii_degenerate_denominator():
    consts, case = _charged_case(2.0, 2.0)  # m_r = 1, tau = 1 for l4 = 1/2
    with pytest.raises(DegenerateParameterError):
        ansatz_params(FamilyIII(l1=1.0, l3=-2.0, l4=0.5, k2=1.0), case,
                      consts, 0, 1)


def test_family_iii_normalizability_flag_tracks_eta_sign():
    consts, case = _charged_case(2.0, 2.0)
    attractive = ansatz_params(FamilyIII(l1=-1.0, l4=0.5, k2=1.0), case,
                               consts, 0, 0)
    repulsive = ansatz_params(FamilyIII(l1=1.0, l4=0.5, k2=1.0), case,
                              consts, 0, 0)
    assert attractive.normalizable and attractive.eta > 0
    assert not repulsive.normalizable and repulsive.eta < 0


def test_neutral_confinement_enters_family_i_tau():
    pair = ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=-1.0)
    consts = derive_constants(pair)
    case = case_lambdas(CouplingTag.NEUTRAL_REST, consts, 2.0)
    a = ansatz_params(FamilyI(g_c=-1.0), case, consts, 0, 1)
    # radicand = 4 m_r^2 Omega^2 = 4: tau = 1/2
    assert a.tau == 0.5


# ---------------------------------------------------------------------------
# Blocks


def test_block_d0_is_zero():
    consts, case = _charged_case(1.0, 2.0)
    for pot in (FamilyI(g_c=1.0), FamilyII(k6=1.0),
                FamilyIII(l1=-1.0, l4=0.5, k2=1.0)):
        a = ansatz_params(pot, case, consts, 0, 0)
        block = qes_block(a)
        assert block.matrix.shape == (1, 1)
        assert block.matrix[0, 0] == 0.0


def test_block_family_i_coulomb_d1():
    consts, case = _charged_case(1.0, 2.0)
    a = ansatz_params(FamilyI(g_c=1.0), case, consts, 0, 1)
    block = qes_block(a)
    assert block.matrix.tolist() == [[0.0, -1.0], [-1.0, 0.0]]
    assert sorted(np.linalg.eigvals(block.matrix)) == [-1.0, 1.0]
    assert block.scaling_c == 1.0


def test_block_family_iii_d1_entries():
    consts, case = _charged_case(2.0, 2.0)  # m_r = 1
    pot = FamilyIII(l1=-4.0, l3=0.0, l4=0.5, k2=0.5)
    a = ansatz_params(pot, case, consts, 0, 1)
    assert (a.tau, a.xi, a.eta) == (1.0, 0.5, 2.0)
    block = qes_block(a)
    # column action: (0,1) = -2 alpha, (1,0) = 2 gamma (0 - d), and the
    # (1,1) entry is the single-rho drift coefficient -(1 + 2 xi), one
    # below beta = -d for l3 = 0
    assert block.matrix[0, 0] == 0.0
    assert block.matrix[0, 1] == -2.0
    assert block.matrix[1, 0] == -4.0
    assert block.matrix[1, 1] == -2.0
    assert a.beta == -1.0
    assert block.matrix[1, 1] == a.beta + a.d - 2.0


def test_blocks_are_tridiagonal():
    consts, case = _charged_case(1.0, 2.0)
    a = ansatz_params(FamilyI(g_c=1.0, k1=1.0, k2=1.0, theta=0.5), case,
                      consts, 2, 6)
    m = qes_block(a).matrix
    for i in range(7):
        for j in range(7):
            if abs(i - j) > 1:
                assert m[i, j] == 0.0


@pytest.mark.parametrize("family,d", [("I", 3), ("I", 8), ("II", 5),
                                      ("III", 2), ("III", 8)])
def test_block_matches_operator_monomial_action(family, d):
    beta, xi, gamma, alpha = F(3, 7), F(5, 4), F(2, 3), F(9, 5)
    entries = block_entries(family, d, beta=beta, xi=xi, gamma=gamma,
                            alpha=alpha)
    op = DiffOperator(tuple(canonical_terms(family, d, beta=beta, xi=xi,
                                            gamma=gamma, alpha=alpha)))
    for k in range(d + 1):
        image = apply_diff_operator(op, {k: F(1)})
        column = {row: entries[row][k] for row in range(d + 1)
                  if entries[row][k] != 0}
        assert image == column


# ---------------------------------------------------------------------------
# Invariance


@pytest.mark.parametrize("family", ["I", "II", "III"])
@pytest.mark.parametrize("d", range(9))
def test_invariance_exact(family, d):
    consts, case = _charged_case(1.0, 2.0)
    pot = {"I": FamilyI(g_c=1.0, k1=0.7, k2=0.2),
           "II": FamilyII(k6=1.0, k4=0.3),
           "III": FamilyIII(l1=-1.0, l3=0.4, l4=0.5, k2=1.0)}[family]
    cert = invariance_check(ansatz_params(pot, case, consts, 1, d))
    assert cert.ok
    assert cert.offending is None
    assert cert.degree == d


def test_invariance_fails_for_wrong_multiplicative_weight():
    d = 3
    terms = canonical_terms("I", d, beta=F(1, 2), xi=F(0))
    # replace the degree-balancing term -d*u with -(d+1)*u
    broken = [(-F(d + 1), 1, 0) if (power, order) == (1, 0) else
              (coeff, power, order) for coeff, power, order in terms]
    cert = check_polynomial_invariance(DiffOperator(tuple(broken)), d)
    assert not cert.ok
    assert cert.offending == (d + 1, -1)


# ---------------------------------------------------------------------------
# Gauge-rotated operators


def test_gauge_rotated_family_iii_annihilates_fixture_polynomials():
    # k2 = 2, m_r = 1 pins the field at omega_c = 4, exact in binary
    consts, case = _charged_case(2.0, 4.0)
    # d = 0: l2 = -7/8, E = -1/2, p = 1
    pot0 = FamilyIII(l1=-1.0, l2=-0.875, l4=0.5, k2=2.0)
    a0 = ansatz_params(pot0, case, consts, 0, 0)
    op0 = gauge_rotated_operator(pot0, case, consts, a0, -0.5)
    assert apply_diff_operator(op0, [1.0]) == {}
    # d = 1, eta = 2: block [[0, -2], [-4, -2]], branch mu = 2,
    # l2 = (1/4 - 4 - 2)/2 = -23/8, E = -eta^2/2 = -2, p = 1 - rho
    pot1 = FamilyIII(l1=-4.0, l2=-23.0 / 8.0, l4=0.5, k2=2.0)
    a1 = ansatz_params(pot1, case, consts, 0, 1)
    op1 = gauge_rotated_operator(pot1, case, consts, a1, -2.0)
    assert apply_diff_operator(op1, [1.0, -1.0]) == {}


def test_gauge_rotated_family_i_annihilates_coulomb_fixture():
    consts, case = _charged_case(1.0, 2.0)  # m_r = 1/2, root at omega_c = 2
    pot = FamilyI(g_c=1.0)
    a = ansatz_params(pot, case, consts, 0, 1)
    op = gauge_rotated_operator(pot, case, consts, a, 2.0)
    # branch mu = -1: physical polynomial 1 + rho
    image = apply_diff_operator(op, [1.0, 1.0])
    assert all(abs(v) < 1e-14 for v in image.values())


def test_gauge_rotated_family_ii_annihilates_fixture():
    consts, case = _charged_case(2.0, 4.0)  # m_r = 1
    pot = FamilyII(k6=0.5, k2=-4.0)
    a = ansatz_params(pot, case, consts, 0, 0)
    op = gauge_rotated_operator(pot, case, consts, a, 0.0)
    assert apply_diff_operator(op, [1.0]) == {}