"""Acceptance gate: nine pinned criteria covering the whole pipeline.

Each test is self-timed against its budget; fixtures are exact closed-form
values, property checks run on seeded random parameter sets.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from qesmag.cli import main
from qesmag.oracle import cross_validate, ode_residual
from qesmag.qes_core import (
    CouplingTag,
    FamilyI,
    FamilyII,
    FamilyIII,
    ParticlePair,
    ansatz_params,
    block_entries,
    canonical_operator,
    canonical_terms,
    case_lambdas,
    coulomb_strength,
    derive_constants,
    invariance_check,
    qes_block,
)
from qesmag.sl2_rep import (
    DiffOperator,
    RepSpace,
    apply_diff_operator,
    commutator_defect,
)
from qesmag.spectra import (
    SpectrumJob,
    assemble_spectrum,
    relative_energy,
    solve_quantized_field_I,
)
from qesmag.wavefn import build_wavefunction

CHARGED = CouplingTag.CHARGED_EC0
NEUTRAL = CouplingTag.NEUTRAL_REST


def test_criterion_1_representation_exactness():
    start = time.perf_counter()
    for dim in range(1, 26):
        defect = commutator_defect(RepSpace(dim))
        assert defect == 0
        assert isinstance(defect, Fraction)
    assert time.perf_counter() - start < 1.0


def test_criterion_2_invariance_and_block_agreement():
    start = time.perf_counter()
    consts = derive_constants(ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=1.0))
    case = case_lambdas(CHARGED, consts, 2.0)
    pots = {"I": FamilyI(g_c=1.0, k1=0.7, k2=0.2, theta=0.3),
            "II": FamilyII(k6=1.0, k4=0.3, k2=0.1, theta=0.2),
            "III": FamilyIII(l1=-1.0, l3=0.4, l4=0.5, k2=1.0)}
    for family, pot in pots.items():
        for d in range(9):
            for s in range(-2, 3):
                a = ansatz_params(pot, case, consts, s, d)
                cert = invariance_check(a)
                assert cert.ok, (family, d, s, cert.offending)
                assert cert.degree == d
                # float assembly agrees with the operator's monomial action
                matrix = qes_block(a).matrix
                op = canonical_operator(a)
                scale = np.abs(matrix).max() + 1.0
                for k in range(d + 1):
                    image = apply_diff_operator(op, {k: 1.0})
                    assert all(power <= d for power in image)
                    for i in range(d + 1):
                        assert abs(matrix[i, k] - image.get(i, 0.0)) \
                            <= 1e-12 * scale
                # rational arithmetic route is exact entry-for-entry
                kw = dict(beta=Fraction(a.beta), xi=Fraction(a.xi),
                          gamma=Fraction(a.gamma if a.gamma is not None
                                         else 0),
                          alpha=Fraction(a.alpha))
                entries = block_entries(family, d, **kw)
                exact_op = DiffOperator(tuple(canonical_terms(family, d,
                                                              **kw)))
                for k in range(d + 1):
                    image = apply_diff_operator(exact_op, {k: Fraction(1)})
                    for i in range(d + 1):
                        assert entries[i][k] == image.get(i, Fraction(0))
    assert time.perf_counter() - start < 5.0


def test_criterion_3_coulomb_limit_identity():
    start = time.perf_counter()
    consts = derive_constants(ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=1.0))
    roots_seen = 0
    for g_c in (0.5, 1.5):
        pot = FamilyI(g_c=g_c)
        eps = coulomb_strength(consts, pot)
        for d in range(6):
            for s in range(-2, 3):
                result = solve_quantized_field_I(pot, consts, s, d)
                for root in result.roots:
                    roots_seen += 1
                    # beta = 0 in the pure Coulomb limit, so nu = -mu
                    nu = -root.mu
                    lhs = nu * nu * root.omega * consts.m_r
                    assert abs(lhs - eps * eps) < 1e-10 * eps * eps, \
                        (g_c, d, s, root)
    assert roots_seen >= 20
    assert time.perf_counter() - start < 10.0


def test_criterion_4_sextic_fixture():
    start = time.perf_counter()
    consts = derive_constants(ParticlePair(m1=2.0, m2=2.0, e1=1.0, e2=1.0))
    assert consts.m_r == 1.0
    pot = FamilyII(k6=0.5, k2=-4.0)
    lines, issues = assemble_spectrum(
        SpectrumJob(pot=pot, consts=consts, tag=CHARGED, d_list=(0,),
                    s_list=(0,)))
    assert issues == []
    assert len(lines) == 1
    line = lines[0]
    assert line.quantized_value == 4.0  # closed form, exact in binary
    assert line.E_rho == 0.0
    case = case_lambdas(CHARGED, consts, line.quantized_value)
    a = ansatz_params(pot, case, consts, 0, 0)
    wf = build_wavefunction(qes_block(a), line.mu)
    assert ode_residual(wf, pot, consts, case, line.E_rho) < 1e-12
    report = cross_validate(line, pot, consts)
    assert report.passed
    assert abs(report.extrapolated_energy - line.E_rho) < 1e-6
    assert time.perf_counter() - start < 30.0


def test_criterion_5_inverse_square_fixture_and_variant_failure(
        tmp_path, inject_printed_formulas):
    start = time.perf_counter()
    consts = derive_constants(ParticlePair(m1=2.0, m2=2.0, e1=1.0, e2=1.0))
    assert consts.m_r == 1.0
    pot = FamilyIII(l1=-1.0, l3=0.0, l4=0.5, k2=1.0)
    lines, _ = assemble_spectrum(
        SpectrumJob(pot=pot, consts=consts, tag=CHARGED, d_list=(0,),
                    s_list=(0,)))
    assert len(lines) == 1
    line = lines[0]
    assert line.quantized_name == "l2"
    assert line.quantized_value == -0.875
    assert line.E_rho == -0.5
    case = case_lambdas(CHARGED, consts, math.sqrt(8.0 * pot.k2))
    pot_closed = FamilyIII(l1=-1.0, l2=-0.875, l4=0.5, k2=1.0)
    a = ansatz_params(pot_closed, case, consts, 0, 0)
    wf = build_wavefunction(qes_block(a), 0.0)
    assert ode_residual(wf, pot_closed, consts, case, -0.5) < 1e-12

    # CLI on the coefficient-matched formulas
    cfg = tmp_path / "fixture3.yaml"
    cfg.write_text(
        "pair: {m1: 2.0, m2: 2.0, e1: 1.0, e2: 1.0}\n"
        "case: charged_ec0\n"
        "potential: {family: III, l1: -1.0, l4: 0.5, k2: 1.0}\n"
        "d_list: [0]\ns_list: [0]\n")
    assert main(["verify", "--config", str(cfg)]) == 0

    # printed formulas: E = -1/4 and a sign-flipped l2 constraint
    inject_printed_formulas()
    variant_lines, _ = assemble_spectrum(
        SpectrumJob(pot=pot, consts=consts, tag=CHARGED, d_list=(0,),
                    s_list=(0,)))
    vline = variant_lines[0]
    assert vline.quantized_value == 1.125
    assert vline.E_rho == -0.25
    pot_variant = FamilyIII(l1=-1.0, l2=vline.quantized_value, l4=0.5,
                            k2=1.0)
    a_v = ansatz_params(pot_variant, case, consts, 0, 0)
    wf_v = build_wavefunction(qes_block(a_v), 0.0)
    assert ode_residual(wf_v, pot_variant, consts, case, vline.E_rho) > 0.1
    # and the CLI exit code shows the failure
    assert main(["verify", "--config", str(cfg)]) == 1
    assert time.perf_counter() - start < 30.0


def _charged_pair(rng):
    m1 = rng.uniform(0.5, 2.0)
    m2 = rng.uniform(0.5, 2.0)
    e1 = rng.uniform(0.5, 2.0)
    # coupling charge vanishes when e2/e1 = m2/m1
    return ParticlePair(m1=m1, m2=m2, e1=e1, e2=e1 * m2 / m1)


def _neutral_pair(rng):
    m1 = rng.uniform(0.5, 2.0)
    m2 = rng.uniform(0.5, 2.0)
    e1 = rng.uniform(0.5, 2.0)
    return ParticlePair(m1=m1, m2=m2, e1=e1, e2=-e1)


def _theta_sample(rng, s):
    # theta > 0 with s = 0 puts a fractional power rho^xi, xi < 1, at the
    # origin; the uniform-grid oracle then converges below second order, so
    # the inverse-square strength is only drawn when |s| >= 1 keeps xi > 1
    return rng.uniform(0.0, 0.3) if abs(s) >= 1 else 0.0


def _sample_family_i(rng, tag, consts, s):
    # k2 = 0 keeps the variable-scale factor c proportional to sqrt(omega),
    # which guarantees a sign change of the residual on every admissible
    # branch; a quadratic offset can push the bracket out of the window
    if tag is NEUTRAL:
        # attractive Coulomb term, no linear drift: one root per mu > 0 branch
        return FamilyI(g_c=rng.uniform(-2.0, -0.3),
                       theta=_theta_sample(rng, s))
    return FamilyI(g_c=rng.uniform(0.3, 2.0), theta=_theta_sample(rng, s),
                   k1=rng.uniform(0.0, 0.3))


def _sample_family_ii(rng, tag, consts, s, d):
    # back-solve k2 so the closed-form field lands on a positive target
    theta = _theta_sample(rng, s)
    k6 = rng.uniform(0.3, 1.5)
    k4 = rng.uniform(0.0, 1.0)
    m_r = consts.m_r
    tau = math.sqrt(2.0 * k6 * m_r) / 4.0
    eta = k4 * m_r / (8.0 * tau)
    xi = math.sqrt(s * s + 2.0 * theta * m_r)
    omega = rng.uniform(1.0, 3.0)
    target = (omega * m_r) ** 2 if tag is CHARGED else (2.0 * omega * m_r) ** 2
    k2 = (16.0 * eta ** 2 - 16.0 * tau * (4.0 * d + 2.0 * xi + 4.0)
          - target) / (8.0 * m_r)
    return FamilyII(theta=theta, k2=k2, k4=k4, k6=k6)


def _sample_family_iii(rng, tag, consts, d):
    l3 = rng.uniform(0.0, 0.8)
    l4 = rng.uniform(0.3, 1.5)
    k2 = rng.uniform(0.5, 2.0)
    m_r = consts.m_r
    tau = math.sqrt(2.0 * l4 * m_r)
    eta = rng.uniform(0.5, 1.5)
    l1 = -eta * (l3 * m_r + tau * (d + 1.0)) / (m_r * tau)
    return FamilyIII(l1=l1, l3=l3, l4=l4, k2=k2)


@pytest.fixture(scope="module")
def randomized_suite():
    """Criteria 6 and 9 share one seeded sweep over families and cases."""
    rng = np.random.default_rng(7)
    validated = []
    sets_with_lines = 0
    elapsed = -time.perf_counter()
    for trial in range(24):
        family = ("I", "II", "III")[trial % 3]
        tag = (CHARGED, NEUTRAL)[(trial // 3) % 2]
        pair = _charged_pair(rng) if tag is CHARGED else _neutral_pair(rng)
        consts = derive_constants(pair)
        d = int(rng.integers(1, 4)) if family == "I" else \
            int(rng.integers(0, 4))
        s = int(rng.integers(-2, 3))
        if family == "I":
            pot = _sample_family_i(rng, tag, consts, s)
        elif family == "II":
            pot = _sample_family_ii(rng, tag, consts, s, d)
        else:
            pot = _sample_family_iii(rng, tag, consts, d)
        lines, _ = assemble_spectrum(
            SpectrumJob(pot=pot, consts=consts, tag=tag, d_list=(d,),
                        s_list=(s,)))
        usable = [ln for ln in lines if ln.real_branch and ln.normalizable]
        if not usable:
            continue
        sets_with_lines += 1
        for line in usable:
            report = cross_validate(line, pot, consts)
            validated.append((family, tag, line, report))
    elapsed += time.perf_counter()
    return sets_with_lines, validated, elapsed


def test_criterion_6_randomized_cross_validation(randomized_suite):
    sets_with_lines, validated, elapsed = randomized_suite
    assert sets_with_lines >= 20
    families = {fam for fam, _, _, _ in validated}
    tags = {tag for _, tag, _, _ in validated}
    assert families == {"I", "II", "III"}
    assert tags == {CHARGED, NEUTRAL}
    for family, tag, line, report in validated:
        assert report.passed, (family, tag.value, line.d, line.s,
                               line.branch_index, report.grid_convergence,
                               report.residual_max)
        assert report.grid_convergence[1] < 1e-4
    assert elapsed < 60.0


def test_criterion_7_rotational_degeneracy():
    pair = ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=1.0, B=2.0)
    consts = derive_constants(pair)
    assert consts.omega_c == 2.0
    case = case_lambdas(CHARGED, consts, consts.omega_c)
    for d in (0, 1, 2):
        energies = []
        for s in (1, 2, 3):
            a = ansatz_params(FamilyI(g_c=0.0), case, consts, s, d)
            energies.append(relative_energy(a, case, consts, 0.0))
        assert energies[0] == energies[1] == energies[2]  # exact floats
        assert energies[0] == float(1 + d)
        # theta > 0 lifts the degeneracy
        split = []
        for s in (1, 2, 3):
            a = ansatz_params(FamilyI(g_c=0.0, theta=0.1), case, consts, s, d)
            split.append(relative_energy(a, case, consts, 0.0))
        gaps = [abs(x - y) for x, y in zip(split, split[1:])]
        gaps.append(abs(split[0] - split[2]))
        assert all(g > 1e-6 for g in gaps)


@pytest.mark.parametrize("omega_c,k2", [(2.0, 0.0), (2.0, 1.5), (4.0, 0.5)])
def test_criterion_8_oscillator_identity(omega_c, k2):
    pair = ParticlePair(m1=1.0, m2=1.0, e1=1.0, e2=1.0, B=omega_c)
    consts = derive_constants(pair)
    assert consts.omega_c == omega_c
    pot = FamilyI(g_c=0.0, k2=k2)
    lines, issues = assemble_spectrum(
        SpectrumJob(pot=pot, consts=consts, tag=CHARGED, d_list=(0,),
                    s_list=(0, 1, 2)))
    assert issues == []
    assert len(lines) == 3
    omega_eff = math.sqrt(omega_c ** 2 + 8.0 * k2 / consts.m_r)
    for line in lines:
        assert line.all_omega_degenerate
        identity_gap = (line.E_rho + line.s * omega_c / 2.0
                        - 0.5 * omega_eff * (abs(line.s) + 1.0))
        assert abs(identity_gap) <= 1e-12 * omega_eff
        report = cross_validate(line, pot, consts)
        assert report.passed
        assert abs(report.extrapolated_energy - line.E_rho) < 1e-5


def test_criterion_9_node_bound(randomized_suite):
    _, validated, _ = randomized_suite
    assert validated
    for _, _, line, _ in validated:
        assert 0 <= line.nodes <= line.d