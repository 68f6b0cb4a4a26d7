"""Angular-momentum operators built from two boson modes.

The four operators over a truncated two-mode Fock basis are

    J_x = (hbar/2) (a1^dag a2 + a1 a2^dag)
    J_y = (hbar/2i)(a1^dag a2 - a1 a2^dag)
    J_z = (hbar/2) (n1 - n2)
    J   = (hbar/2) (n1 + n2)

Every J operator preserves the total occupation n = n1 + n2, so the
matrix set is block diagonal over the constant-n blocks of the basis and
each block realizes the spin j = n/2 representation exactly, with no
truncation artifacts anywhere, including the top shell n = n_max.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis
from .operators import (
    Operand,
    annihilation,
    canonical,
    creation,
    diagonal,
    mirrored,
    operand,
    square_sum,
)


@dataclass(frozen=True, eq=False)
class AngularMomentumSet:
    """The operators J_x, J_y, J_z and the total J over one basis, each a
    canonical read-only CSR matrix.  J_z and J are also read once each as
    ``operators.operand``s, diagonal vectors on a clean set."""

    jx: sp.csr_matrix
    jy: sp.csr_matrix
    jz: sp.csr_matrix
    jtot: sp.csr_matrix
    hbar: float
    basis: FockBasis

    @cached_property
    def jz_operand(self) -> Operand:
        return operand(self.jz)

    @cached_property
    def jtot_operand(self) -> Operand:
        return operand(self.jtot)


def build_set(basis: FockBasis, hbar: float = 1.0) -> AngularMomentumSet:
    """Construct the four operators from the mode ladder operators.

    The cross term a1 a2^dag is taken as the adjoint of a1^dag a2 rather
    than as a product of single-mode matrices: the product would pass
    through states above the cutoff and silently corrupt the top shell,
    while the adjoint is exact there and keeps J_x, J_y Hermitian to the
    last bit.  a1^dag a2 is one scipy product, which stores at most one
    entry per row, just right of the diagonal.  J_x and J_y store its
    entries there and their conjugates mirrored below it, on one set of
    index arrays, each written with the elementwise operations of the
    scipy expressions (U + U^dag) hbar/2 and (U - U^dag) hbar/2i:
    u + 0 and 0 + conj(u), u - 0 and 0 - conj(u), then one product by
    the scalar.  J_z and J are diagonal, written straight from the
    occupations as (n1 -+ n2) hbar/2.
    """
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    up_down = creation(basis, 1) @ annihilation(basis, 2)  # a1^dag a2
    u, d = up_down.data, up_down.data.conj()
    jx, jy = mirrored(up_down, (u + 0, 0 + d, 0.5 * hbar), (u - 0, 0 - d, -0.5j * hbar))
    n1, n2, total = basis.occupations()
    jz = diagonal((n1 - n2) * (0.5 * hbar))
    jtot = diagonal(total * (0.5 * hbar))
    return AngularMomentumSet(jx=jx, jy=jy, jz=jz, jtot=jtot, hbar=hbar, basis=basis)


def casimir_operand(amset: AngularMomentumSet) -> Operand:
    """J^2 = J_x^2 + J_y^2 + J_z^2 as an ``operators.operand``: its
    diagonal vector on a clean set, otherwise its canonical matrix.

    scipy forms the products J_x^2 and J_y^2, which store the same
    pattern on a clean set; their sum and a diagonal J_z's square are
    then added as arrays.
    """
    return square_sum(amset.jx, amset.jy, amset.jz_operand)


def casimir(amset: AngularMomentumSet) -> sp.csr_matrix:
    """J^2 as a canonical matrix; block diagonal and Hermitian."""
    cas = casimir_operand(amset)
    return diagonal(cas) if isinstance(cas, np.ndarray) else cas


def casimir_residual(
    amset: AngularMomentumSet, epsilon: float, *, cas: sp.csr_matrix | None = None
) -> sp.csr_matrix:
    """J^2 - J (J + epsilon hbar 1).

    With epsilon = 1 (boson commutators) this vanishes identically on the
    whole truncated space: the square of the angular momentum is
    j(j+1) hbar^2, not j^2 hbar^2.  With epsilon = 0 it reduces to
    hbar J, the gap between the quantum and the classical square.
    Intermediate epsilon just evaluates the same formula.  ``cas`` is
    J^2 when the caller already holds it; by default it is built here.
    """
    if cas is None:
        cas = casimir(amset)
    jt = amset.jtot
    return canonical(cas - (jt @ jt + jt * (epsilon * amset.hbar)))
