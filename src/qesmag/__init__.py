"""Quasi-exactly-solvable spectra for two planar charges in a magnetic field.

The library reduces the two-body planar problem to an effective radial one,
builds finite polynomial-invariant blocks for three potential families,
solves the resulting quantization conditions (magnetic field or a potential
strength), reconstructs the radial wavefunctions, and cross-checks every
claimed level against an independent finite-volume eigensolver.
"""

from .oracle import OracleReport, cross_validate, ode_residual
from .qes_core import (
    AdmissibilityError,
    CouplingCase,
    CouplingTag,
    DegenerateParameterError,
    DomainError,
    FallToCentreError,
    FamilyI,
    FamilyII,
    FamilyIII,
    NumericalError,
    ParticlePair,
    QesError,
    ansatz_params,
    case_frequency,
    case_lambdas,
    derive_constants,
    effective_radial_problem,
)
from .spectra import SpectrumJob, SpectrumLine, assemble_spectrum, line_problem
from .wavefn import RadialWavefunction

__version__ = "0.1.0"

# The supported surface.  Everything else is reachable through its module
# (qesmag.spectra, qesmag.oracle, ...) but may change without notice.
__all__ = [
    # pair, coupling case and potential families
    "ParticlePair", "derive_constants",
    "CouplingTag", "CouplingCase", "effective_radial_problem",
    "case_lambdas", "case_frequency",
    "FamilyI", "FamilyII", "FamilyIII", "ansatz_params",
    # spectra
    "SpectrumJob", "SpectrumLine", "assemble_spectrum", "line_problem",
    # cross-check
    "cross_validate", "OracleReport", "ode_residual",
    # wavefunctions
    "RadialWavefunction",
    # errors
    "QesError", "DomainError", "FallToCentreError",
    "DegenerateParameterError", "AdmissibilityError", "NumericalError",
]
