"""Shared fixtures."""

import pytest

from qesmag import spectra
from qesmag.qes_core import CouplingTag, ansatz_params, case_lambdas


@pytest.fixture
def inject_printed_formulas(monkeypatch):
    """A function that swaps in the family-III formulas printed in the paper.

    Both are known to be wrong, which makes them mutants the cross-check must
    kill: the printed energy halves the eta^2 term,
    E = -(s lambda_rot + eta^2 / (2 m_r)) / 2, and the printed constraint
    flips the sign of the 2 eta tau term, which adds 2 eta tau / m_r to l2.
    The assembly looks both names up in ``qesmag.spectra`` at call time, so
    every caller, the CLI included, sees the swap until the test ends.
    """
    energy = spectra.relative_energy
    constraints = spectra.solve_constraints_III

    def printed_energy(ansatz, case, consts, mu):
        if ansatz.family != "III":
            return energy(ansatz, case, consts, mu)
        return -0.5 * (ansatz.s * case.lambda_rot
                       + ansatz.eta ** 2 / (2.0 * consts.m_r))

    def printed_constraints(pot, consts, s, d, branch_index,
                            tag=CouplingTag.CHARGED_EC0):
        omega, l2 = constraints(pot, consts, s, d, branch_index, tag)
        a = ansatz_params(pot, case_lambdas(tag, consts, omega), consts, s, d)
        return omega, l2 + 2.0 * a.eta * a.tau / consts.m_r

    def inject():
        monkeypatch.setattr(spectra, "relative_energy", printed_energy)
        monkeypatch.setattr(spectra, "solve_constraints_III",
                            printed_constraints)

    return inject
