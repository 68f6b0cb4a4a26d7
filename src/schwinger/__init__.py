"""Quantum angular momentum from two coupled boson modes.

Builds J_x, J_y, J_z and the total J as sparse matrices over a truncated
two-mode Fock basis, extracts the exact spin-j blocks, and verifies the
algebra numerically: commutation relations, the j(j+1) hbar^2 spectrum,
the 2j+1 level structure, the half-integer sum rule, and the alignment
angle with its classical limits (a commuting-amplitude backend covers the
classical side).
"""

from .angular import (
    AngularMomentumSet,
    Block,
    build_set,
    casimir,
    casimir_residual,
    extract_block,
)
from .classical import (
    ClassicalJ,
    ClassicalState,
    classical_components,
    sample_states,
    state_with_j,
)
from .fock import FockBasis, OccupationPair, build_basis
from .operators import (
    SparseOperator,
    add,
    adjoint,
    annihilation,
    commutator,
    from_entries,
    identity,
    multiply,
    number_operator,
    scale,
    zero,
)
from .spectra import (
    AngleResult,
    ConvergenceError,
    SpectrumReport,
    analyze_block,
    block_report,
    cos_theta,
    jacobi_eigen,
    limit_scan,
    mean_square_from_spectrum,
    sum_rule_check,
)

__version__ = "0.1.0"

__all__ = [
    "AngularMomentumSet",
    "AngleResult",
    "Block",
    "ClassicalJ",
    "ClassicalState",
    "ConvergenceError",
    "FockBasis",
    "OccupationPair",
    "SparseOperator",
    "SpectrumReport",
    "add",
    "adjoint",
    "analyze_block",
    "annihilation",
    "block_report",
    "build_basis",
    "build_set",
    "casimir",
    "casimir_residual",
    "classical_components",
    "commutator",
    "cos_theta",
    "extract_block",
    "from_entries",
    "identity",
    "jacobi_eigen",
    "limit_scan",
    "mean_square_from_spectrum",
    "multiply",
    "number_operator",
    "sample_states",
    "scale",
    "state_with_j",
    "sum_rule_check",
    "zero",
    "__version__",
]
