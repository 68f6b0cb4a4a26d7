"""Quantum angular momentum from two coupled boson modes.

Builds J_x, J_y, J_z and the total J as sparse matrices over a truncated
two-mode Fock basis, reads each exact spin-j block off their rows, and
verifies the algebra numerically: commutation relations, the j(j+1)
hbar^2 spectrum, the 2j+1 level structure, the half-integer sum rule,
and the alignment angle with its classical limits (a commuting-amplitude
backend covers the classical side).
"""

from .angular import (
    AngularMomentumSet,
    build_set,
    casimir,
    casimir_residual,
)
from .classical import (
    ClassicalJ,
    ClassicalState,
    classical_components,
    sample_amplitudes,
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
    SpectrumReport,
    cos_theta,
    limit_scan,
    mean_square_from_spectrum,
    sum_rule_check,
)

__version__ = "0.1.0"

__all__ = [
    "AngularMomentumSet",
    "AngleResult",
    "ClassicalJ",
    "ClassicalState",
    "FockBasis",
    "OccupationPair",
    "SparseOperator",
    "SpectrumReport",
    "add",
    "adjoint",
    "annihilation",
    "build_basis",
    "build_set",
    "casimir",
    "casimir_residual",
    "classical_components",
    "commutator",
    "cos_theta",
    "from_entries",
    "identity",
    "limit_scan",
    "mean_square_from_spectrum",
    "multiply",
    "number_operator",
    "sample_amplitudes",
    "sample_states",
    "scale",
    "state_with_j",
    "sum_rule_check",
    "zero",
    "__version__",
]
