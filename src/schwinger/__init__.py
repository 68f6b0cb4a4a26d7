"""Quantum angular momentum from two coupled boson modes.

Builds J_x, J_y, J_z and the total J as diagonal bands over a truncated
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
from .classical import sample_amplitudes
from .fock import FockBasis, build_basis
from .operators import annihilation
from .spectra import cos_theta, sum_rule_check

__version__ = "0.1.0"

__all__ = [
    "AngularMomentumSet",
    "FockBasis",
    "annihilation",
    "build_basis",
    "build_set",
    "casimir",
    "casimir_residual",
    "cos_theta",
    "sample_amplitudes",
    "sum_rule_check",
    "__version__",
]
