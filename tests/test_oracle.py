"""Finite-volume oracle: discretization, spectra, residuals, validation."""

import math
from dataclasses import replace

import numpy as np
import pytest

from qesmag import oracle
from qesmag.oracle import (
    GridSpacing,
    RadialGrid,
    cross_validate,
    default_grid,
    discretize,
    ode_residual,
    oracle_eigenvalues,
)
from qesmag.qes_core import (
    CouplingTag,
    DomainError,
    FallToCentreError,
    FamilyI,
    FamilyII,
    FamilyIII,
    ParticlePair,
    ansatz_params,
    case_lambdas,
    derive_constants,
    qes_block,
)
from qesmag.spectra import SpectrumJob, assemble_spectrum
from qesmag.wavefn import build_wavefunction

CHARGED = CouplingTag.CHARGED_EC0


def _pair(m1=1.0):
    return derive_constants(ParticlePair(m1=m1, m2=m1, e1=1.0, e2=1.0))


def _oscillator():
    # charged case at omega_c = 2: effective 2D oscillator of frequency 1
    consts = _pair()
    return consts, case_lambdas(CHARGED, consts, 2.0), FamilyI(g_c=0.0)


def _sextic_fixture():
    consts = _pair(2.0)  # m_r = 1
    case = case_lambdas(CHARGED, consts, 4.0)
    return consts, case, FamilyII(k6=0.5, k2=-4.0)


def _inverse_square_fixture():
    consts = _pair(2.0)
    case = case_lambdas(CHARGED, consts, math.sqrt(8.0))
    return consts, case, FamilyIII(l1=-1.0, l2=-0.875, l4=0.5, k2=1.0)


# ---------------------------------------------------------------------------
# Grids


def test_grid_validation():
    with pytest.raises(DomainError):
        RadialGrid(rho_min=0.0, rho_max=10.0, points=32)
    with pytest.raises(DomainError):
        RadialGrid(rho_min=-1.0, rho_max=10.0)
    with pytest.raises(DomainError):
        RadialGrid(rho_min=1.0, rho_max=1.0)
    with pytest.raises(DomainError):
        RadialGrid(rho_min=0.0, rho_max=10.0,
                   spacing=GridSpacing.LOG_UNIFORM)


def test_grid_faces_and_centers():
    grid = RadialGrid(rho_min=0.0, rho_max=8.0, points=128)
    faces = grid.faces()
    centers = grid.centers()
    assert len(faces) == 129 and len(centers) == 128
    assert faces[0] == 0.0 and faces[-1] == 8.0
    assert np.all(np.diff(faces) > 0)
    assert np.all((centers > faces[:-1]) & (centers < faces[1:]))


def test_log_grid_centers_are_geometric_means():
    grid = RadialGrid(rho_min=1e-3, rho_max=10.0, points=256,
                      spacing=GridSpacing.LOG_UNIFORM)
    faces = grid.faces()
    centers = grid.centers()
    assert centers == pytest.approx(np.sqrt(faces[:-1] * faces[1:]),
                                    rel=1e-13)


def test_default_grid_reaches_past_turning_point():
    consts, case, pot = _oscillator()
    grid = default_grid(pot, consts, case, 0, 5.0)
    # classical turning point of (1/4) rho^2 at E = 5 sits at sqrt(20)
    assert grid.rho_max >= 6.0 * math.sqrt(20.0) * 0.9
    assert grid.rho_min == 0.0
    consts3, case3, pot3 = _inverse_square_fixture()
    grid3 = default_grid(pot3, consts3, case3, 0, -0.5)
    assert grid3.rho_min > 0.0


# ---------------------------------------------------------------------------
# Discretization guards


def test_discretize_rejects_axis_start_for_inverse_square():
    consts, case, pot = _inverse_square_fixture()
    with pytest.raises(DomainError):
        discretize(pot, 0, consts, case, RadialGrid(rho_min=0.0,
                                                    rho_max=10.0))


def test_discretize_fall_to_centre():
    consts, case, _ = _oscillator()
    with pytest.raises(FallToCentreError):
        discretize(FamilyI(g_c=1.0, theta=-9.0), 0, consts, case,
                   RadialGrid(rho_min=0.0, rho_max=10.0))


def test_eigenvalue_count_guard():
    consts, case, pot = _oscillator()
    system = discretize(pot, 0, consts, case,
                        RadialGrid(rho_min=0.0, rho_max=12.0, points=128))
    with pytest.raises(DomainError):
        oracle_eigenvalues(system, 0)
    with pytest.raises(DomainError):
        oracle_eigenvalues(system, 33)


# ---------------------------------------------------------------------------
# Known spectra


def test_oscillator_spectrum_radial_sector():
    consts, case, pot = _oscillator()
    grid = default_grid(pot, consts, case, 0, 1.0)
    levels = oracle_eigenvalues(discretize(pot, 0, consts, case, grid), 4)
    assert levels == pytest.approx([1.0, 3.0, 5.0, 7.0], rel=1e-4)


def test_oscillator_spectrum_unit_angular_momentum():
    # raw levels 2, 4, 6, 8 minus the rotational shift s*omega_c/2 = 1
    consts, case, pot = _oscillator()
    grid = default_grid(pot, consts, case, 1, 1.0)
    levels = oracle_eigenvalues(discretize(pot, 1, consts, case, grid), 4)
    assert levels == pytest.approx([1.0, 3.0, 5.0, 7.0], rel=1e-4)


def test_oscillator_second_order_convergence():
    consts, case, pot = _oscillator()
    errs = []
    for pts in (512, 1024, 2048):
        grid = default_grid(pot, consts, case, 0, 1.0, points=pts)
        level = oracle_eigenvalues(discretize(pot, 0, consts, case, grid),
                                   1)[0]
        errs.append(level - 1.0)
    assert errs[0] / errs[1] == pytest.approx(4.0, abs=0.1)
    assert errs[1] / errs[2] == pytest.approx(4.0, abs=0.1)


def test_sextic_fixture_ground_state_on_default_grid():
    consts, case, pot = _sextic_fixture()
    grid = default_grid(pot, consts, case, 0, 0.0)
    level = oracle_eigenvalues(discretize(pot, 0, consts, case, grid), 1)[0]
    assert abs(level) < 5e-5


def test_sextic_fixture_biased_by_offset_wall():
    # starting the grid at 1e-3 instead of the axis leaves an O(0.1) bias
    # that does not converge away; the default grid avoids it
    consts, case, pot = _sextic_fixture()
    grid = RadialGrid(rho_min=1e-3, rho_max=8.0, points=4096)
    level = oracle_eigenvalues(discretize(pot, 0, consts, case, grid), 1)[0]
    assert abs(level) < 0.5
    assert level > 0.05


def test_inverse_square_fixture_ground_state():
    consts, case, pot = _inverse_square_fixture()
    grid = default_grid(pot, consts, case, 0, -0.5)
    level = oracle_eigenvalues(discretize(pot, 0, consts, case, grid), 1)[0]
    assert level == pytest.approx(-0.5, abs=5e-5)


def test_coulomb_level_in_oscillator_background():
    consts = _pair()
    case = case_lambdas(CHARGED, consts, 2.0)
    pot = FamilyI(g_c=1.0)
    grid = default_grid(pot, consts, case, 0, 2.0)
    level = oracle_eigenvalues(discretize(pot, 0, consts, case, grid), 1)[0]
    assert level == pytest.approx(2.0, abs=1e-4)


def test_log_grid_agrees_with_uniform():
    consts, case, pot = _inverse_square_fixture()
    grid = RadialGrid(rho_min=1e-3, rho_max=16.0, points=2048,
                      spacing=GridSpacing.LOG_UNIFORM)
    level = oracle_eigenvalues(discretize(pot, 0, consts, case, grid), 1)[0]
    assert level == pytest.approx(-0.5, abs=5e-4)


def test_callable_potential_accepted():
    consts, case, _ = _oscillator()
    grid = RadialGrid(rho_min=0.0, rho_max=14.0, points=2048)
    system = discretize(lambda r: 0.0 * r, 0, consts, case, grid)
    level = oracle_eigenvalues(system, 1)[0]
    assert level == pytest.approx(1.0, rel=1e-4)


# ---------------------------------------------------------------------------
# Symbolic residual


def test_residual_fixture_states():
    consts, case, pot = _sextic_fixture()
    a = ansatz_params(pot, case, consts, 0, 0)
    wf = build_wavefunction(qes_block(a), 0.0)
    assert ode_residual(wf, pot, consts, case, 0.0) < 1e-12
    consts3, case3, pot3 = _inverse_square_fixture()
    a3 = ansatz_params(pot3, case3, consts3, 0, 0)
    wf3 = build_wavefunction(qes_block(a3), 0.0)
    assert ode_residual(wf3, pot3, consts3, case3, -0.5) < 1e-12


def test_residual_flags_wrong_energy():
    consts, case, pot = _sextic_fixture()
    a = ansatz_params(pot, case, consts, 0, 0)
    wf = build_wavefunction(qes_block(a), 0.0)
    assert ode_residual(wf, pot, consts, case, 1.0) > 0.1
    assert ode_residual(wf, pot, consts, case, 0.05) > 0.1


def test_residual_flags_wrong_polynomial():
    consts, case, pot = _sextic_fixture()
    a = ansatz_params(pot, case, consts, 0, 0)
    wf = build_wavefunction(qes_block(a), 0.0)
    bent = replace(wf, poly_physical=(1.0, 0.3))
    assert ode_residual(bent, pot, consts, case, 0.0) > 0.01


def test_residual_accepts_custom_sample_points():
    consts, case, pot = _sextic_fixture()
    a = ansatz_params(pot, case, consts, 0, 0)
    wf = build_wavefunction(qes_block(a), 0.0)
    rho = np.linspace(0.2, 3.0, 50)
    assert ode_residual(wf, pot, consts, case, 0.0, rho=rho) < 1e-12


# ---------------------------------------------------------------------------
# Cross-validation


def _single_line(pot, consts, d):
    lines, issues = assemble_spectrum(
        SpectrumJob(pot=pot, consts=consts, tag=CHARGED, d_list=(d,),
                    s_list=(0,)))
    assert lines, issues
    return lines[0]


def test_cross_validate_coulomb_line():
    consts = _pair()
    pot = FamilyI(g_c=1.0)
    report = cross_validate(_single_line(pot, consts, 1), pot, consts)
    assert report.passed
    assert report.residual_max < 1e-10
    assert report.matched_line is not None
    gap, rel_gap = report.matched_line
    assert rel_gap < 1e-9
    assert report.grid_convergence[0] == pytest.approx(2.0, abs=0.1)


def test_cross_validate_sextic_line():
    consts = _pair(2.0)
    pot = FamilyII(k6=0.5, k2=-4.0)
    line = _single_line(pot, consts, 0)
    report = cross_validate(line, pot, consts)
    assert report.passed
    assert abs(report.extrapolated_energy - line.E_rho) < 1e-6
    assert report.residual_max < 1e-12


def test_cross_validate_inverse_square_line():
    consts = _pair(2.0)
    pot = FamilyIII(l1=-1.0, l4=0.5, k2=1.0)
    line = _single_line(pot, consts, 0)
    assert line.quantized_name == "l2"
    assert line.quantized_value == -0.875
    assert line.E_rho == -0.5
    report = cross_validate(line, pot, consts)
    assert report.passed
    assert abs(report.extrapolated_energy + 0.5) < 1e-6


def test_cross_validate_rejects_unusable_lines():
    consts = _pair()
    pot = FamilyI(g_c=1.0)
    line = _single_line(pot, consts, 1)
    with pytest.raises(DomainError):
        cross_validate(replace(line, real_branch=False), pot, consts)
    with pytest.raises(DomainError):
        cross_validate(replace(line, normalizable=False), pot, consts)


def test_cross_validate_flags_shifted_energy():
    consts = _pair()
    pot = FamilyI(g_c=1.0)
    line = _single_line(pot, consts, 1)
    report = cross_validate(replace(line, E_rho=line.E_rho + 0.02),
                            pot, consts, points=512)
    assert not report.passed


def test_cross_validate_honors_explicit_grid():
    consts = _pair(2.0)
    pot = FamilyII(k6=0.5, k2=-4.0)
    line = _single_line(pot, consts, 0)
    grid = RadialGrid(rho_min=0.0, rho_max=9.0, points=1024)
    report = cross_validate(line, pot, consts, grid=grid)
    assert report.passed
    assert report.energies[0] == pytest.approx(0.0, abs=1e-5)

def test_cross_validate_discretizes_each_rung_once(monkeypatch):
    consts = _pair(2.0)
    pot = FamilyII(k6=0.5, k2=-4.0)
    line = _single_line(pot, consts, 0)
    systems = []
    original = oracle.discretize

    def counted(*args):
        systems.append(original(*args))
        return systems[-1]

    monkeypatch.setattr(oracle, "discretize", counted)
    report = cross_validate(line, pot, consts, points=512)
    assert [sys.grid.points for sys in systems] == [512, 1024, 2048]
    finest = oracle_eigenvalues(systems[-1], len(report.energies))
    assert report.energies == tuple(finest)
