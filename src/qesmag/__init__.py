"""Quasi-exactly-solvable spectra for two planar charges in a magnetic field.

The library reduces the two-body planar problem to an effective radial one,
builds finite polynomial-invariant blocks for three potential families,
solves the resulting quantization conditions (magnetic field or a potential
strength), reconstructs the radial wavefunctions, and cross-checks every
claimed level against an independent finite-volume eigensolver.
"""

from .oracle import (
    DiscretizedRadial,
    GridSpacing,
    OracleReport,
    RadialGrid,
    cross_validate,
    default_grid,
    discretize,
    ode_residual,
    oracle_eigenvalues,
)
from .qes_core import (
    AdmissibilityError,
    AnsatzParams,
    CouplingCase,
    CouplingTag,
    DegenerateParameterError,
    DerivedConstants,
    DomainError,
    FallToCentreError,
    FamilyI,
    FamilyII,
    FamilyIII,
    InvarianceCertificate,
    NumericalError,
    ParticlePair,
    PotentialSpec,
    QESBlock,
    QesError,
    VariableMap,
    ansatz_params,
    canonical_operator,
    case_frequency,
    case_lambdas,
    coulomb_strength,
    derive_constants,
    effective_frequency,
    effective_radial_problem,
    gauge_rotated_operator,
    invariance_check,
    qes_block,
)
from .sl2_rep import (
    DiffOperator,
    GeneratorTriple,
    RepSpace,
    apply_diff_operator,
    commutator_defect,
    diff_generators,
    generator_matrices,
    quadratic_form_matrix,
)
from .spectra import (
    BranchEigen,
    PaperVariants,
    SpectrumJob,
    SpectrumLine,
    assemble_spectrum,
    block_eigenvalues,
    quantization_residual_I,
    relative_energy,
    solve_constraints_III,
    solve_quantized_field_I,
    solve_quantized_field_II,
)
from .wavefn import (
    RadialWavefunction,
    build_wavefunction,
    count_nodes,
    evaluate_zeta,
    normalize,
    polynomial_from_eigenvector,
    zeta_log,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # core types and constants
    "ParticlePair", "DerivedConstants", "derive_constants",
    "CouplingTag", "CouplingCase", "case_lambdas", "case_frequency",
    "effective_radial_problem", "effective_frequency",
    "FamilyI", "FamilyII", "FamilyIII", "PotentialSpec", "coulomb_strength",
    "AnsatzParams", "ansatz_params", "VariableMap", "QESBlock", "qes_block",
    "canonical_operator", "gauge_rotated_operator",
    "InvarianceCertificate", "invariance_check",
    # errors
    "QesError", "DomainError", "FallToCentreError",
    "DegenerateParameterError", "AdmissibilityError", "NumericalError",
    # representation tools
    "RepSpace", "GeneratorTriple", "generator_matrices", "commutator_defect",
    "quadratic_form_matrix", "DiffOperator", "apply_diff_operator",
    "diff_generators",
    # spectra
    "BranchEigen", "PaperVariants", "SpectrumLine", "SpectrumJob",
    "block_eigenvalues", "quantization_residual_I", "solve_quantized_field_I",
    "solve_quantized_field_II", "solve_constraints_III", "relative_energy",
    "assemble_spectrum",
    # wavefunctions
    "RadialWavefunction", "polynomial_from_eigenvector",
    "build_wavefunction", "zeta_log", "evaluate_zeta", "normalize",
    "count_nodes",
    # oracle
    "GridSpacing", "RadialGrid", "DiscretizedRadial", "OracleReport",
    "discretize", "oracle_eigenvalues", "default_grid", "ode_residual",
    "cross_validate",
]