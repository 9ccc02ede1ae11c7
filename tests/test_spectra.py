"""Branch eigenvalues, quantization solvers, energies, and assembly."""

import math

import numpy as np
import pytest

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
    gauge_rotated_operator,
    qes_block,
)
from qesmag import spectra
from qesmag.sl2_rep import apply_diff_operator
from qesmag.spectra import (
    PaperVariants,
    SpectrumJob,
    assemble_spectrum,
    block_eigenvalues,
    eigenpairs,
    quantization_residual_I,
    relative_energy,
    solve_constraints_III,
    solve_quantized_field_I,
    solve_quantized_field_II,
)
from qesmag.wavefn import build_wavefunction, count_nodes

CHARGED = CouplingTag.CHARGED_EC0
NEUTRAL = CouplingTag.NEUTRAL_REST


def _consts(m1=1.0, e2=1.0, B=0.0):
    return derive_constants(ParticlePair(m1=m1, m2=m1, e1=1.0, e2=e2, B=B))


def _coulomb_block(d, omega=2.0, g_c=1.0):
    consts = _consts()
    case = case_lambdas(CHARGED, consts, omega)
    return qes_block(ansatz_params(FamilyI(g_c=g_c), case, consts, 0, d))


# ---------------------------------------------------------------------------
# Block eigenvalues


def test_single_branch_block():
    branches = block_eigenvalues(_coulomb_block(0))
    assert len(branches) == 1
    assert branches[0].mu == 0.0
    assert branches[0].nu == 0.0
    assert branches[0].is_real


def test_two_branch_block_order_and_nu():
    branches = block_eigenvalues(_coulomb_block(1))
    mus = [b.mu for b in branches]
    assert mus == sorted(mus, key=lambda z: (z.real, z.imag))
    assert [b.mu.real for b in branches] == pytest.approx([-1.0, 1.0],
                                                          abs=1e-14)
    # beta = 0 here, so nu = -mu on each branch
    for b in branches:
        assert b.nu == pytest.approx(-b.mu.real, abs=1e-14)
        assert b.is_real
    assert [b.branch_index for b in branches] == [0, 1]


def test_three_branch_block_symmetric_spectrum():
    branches = block_eigenvalues(_coulomb_block(2))
    mus = [b.mu.real for b in branches]
    root = math.sqrt(6.0)
    assert mus == pytest.approx([-root, 0.0, root], abs=1e-13)


def test_complex_branches_come_in_conjugate_pairs():
    consts = _consts(m1=2.0)  # m_r = 1
    case = case_lambdas(CHARGED, consts, 4.0)
    a = ansatz_params(FamilyIII(l1=2.0, l4=0.5, k2=2.0), case, consts, 0, 1)
    branches = block_eigenvalues(qes_block(a))
    assert not any(b.is_real for b in branches)
    assert all(b.nu is None for b in branches)
    assert branches[0].mu == pytest.approx(branches[1].mu.conjugate(),
                                           abs=1e-13)
    assert branches[0].mu.real == pytest.approx(-1.0, abs=1e-13)
    assert abs(branches[0].mu.imag) == pytest.approx(math.sqrt(3.0),
                                                     abs=1e-13)


@pytest.mark.parametrize("d", [1, 3, 6])
def test_branch_sum_equals_trace(d):
    block = _coulomb_block(d, omega=3.0)
    total = sum(b.mu for b in block_eigenvalues(block))
    assert total.real == pytest.approx(np.trace(block.matrix), abs=1e-12)
    assert total.imag == pytest.approx(0.0, abs=1e-12)


def test_eigenpairs_column_order_matches_branches():
    block = _coulomb_block(2)
    vals, vecs = eigenpairs(block)
    for idx, branch in enumerate(block_eigenvalues(block)):
        assert vals[idx] == pytest.approx(branch.mu, abs=1e-13)
        defect = block.matrix @ vecs[:, idx] - vals[idx] * vecs[:, idx]
        assert np.abs(defect).max() < 1e-12


# ---------------------------------------------------------------------------
# Coulomb-family quantization


def test_residual_fixture_values():
    consts = _consts()
    pot = FamilyI(g_c=1.0)
    assert quantization_residual_I(2.0, pot, consts, 0, 1, 0) == 0.0
    assert quantization_residual_I(8.0, pot, consts, 0, 1, 0) == -1.0


def test_residual_branch_range_check():
    consts = _consts()
    with pytest.raises(DomainError):
        quantization_residual_I(2.0, FamilyI(g_c=1.0), consts, 0, 1, 2)


def test_solve_field_coulomb_root():
    consts = _consts()
    result = solve_quantized_field_I(FamilyI(g_c=1.0), consts, 0, 1)
    assert len(result.roots) == 1
    root = result.roots[0]
    assert root.omega == pytest.approx(2.0, rel=1e-12)
    assert root.branch_index == 0
    assert root.mu == pytest.approx(-1.0, rel=1e-12)
    assert result.degenerate_branches == ()


def test_solve_field_single_branch_closed_form():
    # residual -1 + 2/omega vanishes at omega = 2
    consts = _consts(m1=2.0)  # m_r = 1
    result = solve_quantized_field_I(FamilyI(g_c=-0.5, k1=1.0), consts, 0, 0)
    assert len(result.roots) == 1
    assert result.roots[0].omega == pytest.approx(2.0, rel=1e-12)


def test_solve_field_degenerate_branch_detected():
    consts = _consts()
    result = solve_quantized_field_I(FamilyI(g_c=0.0), consts, 0, 0)
    assert result.degenerate_branches == (0,)
    assert result.roots == ()


def test_solve_field_neutral_attractive_root():
    consts = _consts(e2=-1.0)
    result = solve_quantized_field_I(FamilyI(g_c=-1.0), consts, 0, 1,
                                     tag=NEUTRAL)
    assert len(result.roots) == 1
    root = result.roots[0]
    assert root.omega == pytest.approx(1.0, rel=1e-12)
    assert root.branch_index == 1
    assert root.mu == pytest.approx(1.0, rel=1e-12)


def test_residual_vanishes_at_every_returned_root():
    rng = np.random.default_rng(7)
    consts = _consts()
    found = 0
    for _ in range(12):
        pot = FamilyI(g_c=rng.uniform(0.2, 3.0), k1=rng.uniform(0.0, 2.0),
                      k2=rng.uniform(0.0, 2.0), theta=rng.uniform(0.0, 1.0))
        for d in (1, 2):
            result = solve_quantized_field_I(pot, consts, 1, d)
            for root in result.roots:
                found += 1
                res = quantization_residual_I(root.omega, pot, consts, 1, d,
                                              root.branch_index)
                assert abs(res) < 1e-10 * max(1.0, abs(root.omega))
    assert found >= 10


# Admissible pairs: e_c = 0 for the charged case, q = 0 for the neutral one.
ADMISSIBLE_CONSTS = {
    CHARGED: derive_constants(ParticlePair(m1=1.0, m2=3.0, e1=1.0, e2=3.0)),
    NEUTRAL: derive_constants(ParticlePair(m1=1.0, m2=2.0, e1=1.0, e2=-1.0)),
}


@pytest.mark.parametrize("d", [0, 3, 8])
@pytest.mark.parametrize("tag", [CHARGED, NEUTRAL])
def test_residual_matches_reference_block(tag, d):
    # eps + eta(1+2xi) + c*mu with mu from the qes_block reference path
    consts = ADMISSIBLE_CONSTS[tag]
    pot = FamilyI(g_c=0.7, theta=0.3, k1=0.9, k2=-0.05)
    eps = 2.0 * consts.m_r * pot.g_c
    for s in (0, 2):
        for omega in (1.0, 2.5, 7.0, 40.0):
            a = ansatz_params(pot, case_lambdas(tag, consts, omega), consts,
                              s, d)
            drift = a.eta * (1.0 + 2.0 * a.xi)
            for branch in block_eigenvalues(qes_block(a)):
                assert branch.is_real
                mu = branch.mu.real
                got = quantization_residual_I(omega, pot, consts, s, d,
                                              branch.branch_index, tag)
                scale = abs(eps) + abs(drift) + a.c * abs(mu)
                assert abs(got - (eps + drift + a.c * mu)) <= 1e-12 * scale


def _coulomb_fields(pot, consts, tag, s, d):
    """Closed-form (field, branch) pairs of a k1 = k2 = 0 cell.

    With eta = 0 the block does not depend on the field, and a branch closes
    when eps + c mu = 0 with c = 2 sqrt(tau): tau = eps^2 / (4 mu^2) for
    every branch with -eps/mu > 0.  16 tau^2 = (m_r omega_eff)^2, where
    omega_eff is omega_c (charged) or 2 Omega_q (neutral).
    """
    a = ansatz_params(pot, case_lambdas(tag, consts, 1.0), consts, s, d)
    branches = block_eigenvalues(qes_block(a))
    zero = 1e-9 * (1.0 + max(abs(b.mu) for b in branches))
    eps = 2.0 * consts.m_r * pot.g_c
    fields = []
    for branch in branches:
        mu = branch.mu.real
        if abs(mu) <= zero or -eps / mu <= 0.0:
            continue
        tau = eps ** 2 / (4.0 * mu ** 2)
        omega_eff = 4.0 * tau / consts.m_r
        fields.append((omega_eff if tag is CHARGED else omega_eff / 2.0,
                       branch.branch_index))
    return sorted(fields)


@pytest.mark.parametrize("g_c", [
    0.05, 0.5, 2.0,
    pytest.param(1e-4, marks=pytest.mark.xfail(
        strict=True, reason="roots below the scan window are lost "
                            "(the window floors its scale at omega = 1)")),
])
def test_coulomb_limit_finds_every_closed_form_root(g_c):
    pot = FamilyI(g_c=g_c, theta=0.2)
    for tag, consts in ADMISSIBLE_CONSTS.items():
        for d in range(9):
            for s in range(-3, 4):
                want = _coulomb_fields(pot, consts, tag, s, d)
                result = solve_quantized_field_I(pot, consts, s, d, tag)
                got = [(r.omega, r.branch_index) for r in result.roots]
                assert len(got) == len(want), (tag, d, s)
                for (w_got, b_got), (w_want, b_want) in zip(got, want):
                    assert b_got == b_want
                    assert w_got == pytest.approx(w_want, rel=1e-10)


# ---------------------------------------------------------------------------
# Sextic-family quantization


def test_sextic_field_fixture_exact():
    consts = _consts(m1=2.0)  # m_r = 1
    assert solve_quantized_field_II(FamilyII(k6=0.5, k2=-4.0), consts,
                                    0, 0) == [4.0]


def test_sextic_neutral_field_halves():
    consts = _consts(m1=2.0, e2=-1.0)
    assert solve_quantized_field_II(FamilyII(k6=0.5, k2=-4.0), consts, 0, 0,
                                    tag=NEUTRAL) == [2.0]


def test_sextic_no_admissible_field():
    consts = _consts(m1=2.0)
    assert solve_quantized_field_II(FamilyII(k6=0.5), consts, 0, 0) == []


def test_sextic_variant_shifts_root():
    consts = _consts(m1=2.0)
    printed = solve_quantized_field_II(FamilyII(k6=0.5, k2=-4.0), consts,
                                       0, 0, variants=PaperVariants.printed())
    assert printed == [math.sqrt(24.0)]


def test_sextic_strong_quartic_term_opens_window():
    consts = _consts(m1=2.0)
    roots = solve_quantized_field_II(FamilyII(k6=0.5, k4=8.0), consts, 0, 0)
    assert len(roots) == 1 and roots[0] > 0.0


def test_sextic_root_closes_whole_block():
    # binary-exact map: tau = 1/4, eta = 1/2, c = 1, root omega_c = 4
    consts = _consts()  # m_r = 1/2
    pot = FamilyII(k6=1.0, k4=2.0, k2=-8.0)
    roots = solve_quantized_field_II(pot, consts, 0, 1)
    assert roots == [4.0]
    case = case_lambdas(CHARGED, consts, roots[0])
    a = ansatz_params(pot, case, consts, 0, 1)
    block = qes_block(a)
    for branch in block_eigenvalues(block):
        wf = build_wavefunction(block, branch.mu.real)
        energy = relative_energy(a, case, consts, branch.mu.real)
        op = gauge_rotated_operator(pot, case, consts, a, energy)
        image = apply_diff_operator(op, list(wf.poly_physical))
        scale = max(abs(v) for v in wf.poly_physical)
        assert all(abs(v) <= 1e-12 * scale for v in image.values())


# ---------------------------------------------------------------------------
# Inverse-square family constraints


def test_constraints_fixture():
    consts = _consts(m1=2.0)  # m_r = 1
    omega, l2 = solve_constraints_III(FamilyIII(l1=-1.0, l4=0.5, k2=1.0),
                                      consts, 0, 0, 0)
    assert omega == pytest.approx(math.sqrt(8.0), rel=1e-15)
    assert l2 == -0.875


def test_constraints_printed_variant_flips_cross_term():
    consts = _consts(m1=2.0)
    _, l2 = solve_constraints_III(FamilyIII(l1=-1.0, l4=0.5, k2=1.0), consts,
                                  0, 0, 0, variants=PaperVariants.printed())
    assert l2 == 1.125


def test_constraints_without_coulomb_term():
    consts = _consts(m1=2.0)
    _, l2 = solve_constraints_III(FamilyIII(l1=0.0, l3=0.25, l4=0.5, k2=1.0),
                                  consts, 2, 0, 0)
    a_xi = 0.5 + 0.25  # 1/2 + l3 m_r / tau with tau = 1
    assert l2 == pytest.approx((a_xi ** 2 - 4.0) / 2.0, rel=1e-15)


def test_constraints_require_confining_k2():
    consts = _consts(m1=2.0)
    with pytest.raises(DomainError):
        solve_constraints_III(FamilyIII(l1=-1.0, l4=0.5, k2=0.0), consts,
                              0, 0, 0)


def test_constraints_reject_complex_branch():
    consts = _consts(m1=2.0)
    with pytest.raises(DomainError):
        solve_constraints_III(FamilyIII(l1=2.0, l4=0.5, k2=2.0), consts,
                              0, 1, 0)


def test_constraints_exact_field_from_k2():
    consts = _consts(m1=2.0)
    omega, _ = solve_constraints_III(FamilyIII(l1=-1.0, l4=0.5, k2=2.0),
                                     consts, 0, 0, 0)
    assert omega == 4.0


# ---------------------------------------------------------------------------
# Energies


def test_energy_coulomb_level():
    consts = _consts()
    case = case_lambdas(CHARGED, consts, 2.0)
    a = ansatz_params(FamilyI(g_c=1.0), case, consts, 0, 1)
    assert relative_energy(a, case, consts, -1.0) == pytest.approx(2.0,
                                                                   rel=1e-14)


def test_energy_inverse_square_fixture_and_variant():
    consts = _consts(m1=2.0)
    omega, l2 = solve_constraints_III(FamilyIII(l1=-1.0, l4=0.5, k2=1.0),
                                      consts, 0, 0, 0)
    case = case_lambdas(CHARGED, consts, omega)
    a = ansatz_params(FamilyIII(l1=-1.0, l2=l2, l4=0.5, k2=1.0), case,
                      consts, 0, 0)
    assert relative_energy(a, case, consts, 0.0) == -0.5
    assert relative_energy(a, case, consts, 0.0,
                           variants=PaperVariants.printed()) == -0.25


def test_energy_rejects_truly_complex_branch():
    consts = _consts(m1=2.0)
    case = case_lambdas(CHARGED, consts, 4.0)
    a = ansatz_params(FamilyIII(l1=2.0, l4=0.5, k2=2.0), case, consts, 0, 1)
    with pytest.raises(DomainError):
        relative_energy(a, case, consts, complex(-1.0, math.sqrt(3.0)))


def test_variant_switches_all_printed():
    v = PaperVariants.printed()
    assert v.iii_energy_printed
    assert v.ii_quantization_substituted
    assert v.iii_constraint_printed
    assert PaperVariants() != v


# ---------------------------------------------------------------------------
# Assembly


def test_assemble_coulomb_levels():
    consts = _consts()
    job = SpectrumJob(pot=FamilyI(g_c=1.0), consts=consts, tag=CHARGED,
                      d_list=(0, 1), s_list=(0,))
    lines, issues = assemble_spectrum(job)
    assert issues == []
    # the repulsive d = 0 residual never vanishes: one level total
    assert len(lines) == 1
    line = lines[0]
    assert (line.family, line.d, line.s) == ("I", 1, 0)
    assert line.quantized_name == "omega_c"
    assert line.quantized_value == pytest.approx(2.0, rel=1e-12)
    assert line.E_rho == pytest.approx(2.0, rel=1e-12)
    assert line.mu == pytest.approx(-1.0, rel=1e-12)
    assert line.poly == pytest.approx((1.0, 1.0), rel=1e-12)
    assert line.nodes == 0
    assert line.real_branch and line.normalizable


def test_assemble_sextic_single_level():
    consts = _consts(m1=2.0)
    job = SpectrumJob(pot=FamilyII(k6=0.5, k2=-4.0), consts=consts,
                      tag=CHARGED, d_list=(0,), s_list=(0,))
    lines, issues = assemble_spectrum(job)
    assert len(lines) == 1
    assert lines[0].quantized_value == 4.0
    assert lines[0].poly == (1.0,)
    assert lines[0].E_rho == 0.0
    assert lines[0].nodes == 0


def test_assemble_empty_when_no_field_admissible():
    consts = _consts(m1=2.0)
    job = SpectrumJob(pot=FamilyII(k6=0.5), consts=consts, tag=CHARGED,
                      d_list=(0, 1), s_list=(0, 1))
    lines, _ = assemble_spectrum(job)
    assert lines == []


def test_assemble_sorted_by_energy():
    consts = _consts(m1=2.0)
    job = SpectrumJob(pot=FamilyIII(l1=-1.0, l4=0.5, k2=1.0), consts=consts,
                      tag=CHARGED, d_list=(0, 1, 2), s_list=(-1, 0, 1))
    lines, _ = assemble_spectrum(job)
    assert len(lines) > 3
    energies = [ln.E_rho for ln in lines]
    assert energies == sorted(energies)


def test_assemble_reports_node_counts_within_degree():
    consts = _consts()
    job = SpectrumJob(pot=FamilyI(g_c=1.0, k1=0.3, k2=0.5), consts=consts,
                      tag=CHARGED, d_list=(1, 2, 3), s_list=(0, 1))
    lines, _ = assemble_spectrum(job)
    assert lines
    for ln in lines:
        if ln.real_branch:
            assert 0 <= ln.nodes <= ln.d
            # polynomial of every real line is scaled to a unit top coefficient
            assert ln.poly[-1] == pytest.approx(1.0, abs=1e-12)

def _count_blocks(monkeypatch, job):
    """Lines of a job and the number of qes_block calls made to assemble them."""
    calls = []
    original = spectra.qes_block

    def counted(ansatz):
        calls.append(ansatz)
        return original(ansatz)

    monkeypatch.setattr(spectra, "qes_block", counted)
    lines, issues = assemble_spectrum(job)
    assert lines, issues
    return lines, len(calls)


def test_assemble_builds_two_blocks_per_family_i_root(monkeypatch):
    # one in the hunt for FieldRoot.mu, one for the level itself
    job = SpectrumJob(pot=FamilyI(g_c=1.0, k1=0.3, k2=0.5), consts=_consts(),
                      tag=CHARGED, d_list=(1, 2, 3), s_list=(0, 1))
    lines, blocks = _count_blocks(monkeypatch, job)
    assert not any(ln.all_omega_degenerate for ln in lines)
    assert blocks == 2 * len(lines)


def test_assemble_builds_one_block_per_family_ii_field(monkeypatch):
    job = SpectrumJob(pot=FamilyII(k6=0.5, k2=-30.0), consts=_consts(m1=2.0),
                      tag=CHARGED, d_list=(3,), s_list=(0,))
    lines, blocks = _count_blocks(monkeypatch, job)
    assert len(lines) == 4
    assert blocks == 1


def test_assemble_builds_d_plus_two_blocks_per_family_iii_cell(monkeypatch):
    # one per branch in solve_constraints_III, one for the whole cell
    job = SpectrumJob(pot=FamilyIII(l1=-1.0, l4=0.5, k2=1.0),
                      consts=_consts(m1=2.0), tag=CHARGED, d_list=(2,),
                      s_list=(0,))
    lines, blocks = _count_blocks(monkeypatch, job)
    assert len(lines) == 3
    assert blocks == 2 + 2
