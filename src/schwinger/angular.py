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

import numpy as np

from .fock import FockBasis
from .operators import (
    SparseOperator,
    add,
    adjoint,
    annihilation,
    multiply,
    number_operator,
    scale,
)


@dataclass(frozen=True)
class AngularMomentumSet:
    """The operators J_x, J_y, J_z and the total J over one basis."""

    jx: SparseOperator
    jy: SparseOperator
    jz: SparseOperator
    jtot: SparseOperator
    hbar: float
    basis: FockBasis


@dataclass(frozen=True)
class Block:
    """Dense restriction of the J operators to one constant-n block.

    two_j equals the total occupation n of the block; the matrices have
    dimension two_j + 1 and are Hermitian by construction.  The
    small-block oracle of the tests; every command reads its blocks off
    the global sparse operators instead and never builds one.
    """

    two_j: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    hbar: float

    @property
    def dim(self) -> int:
        return self.two_j + 1


def build_set(basis: FockBasis, hbar: float = 1.0) -> AngularMomentumSet:
    """Construct the four operators from the mode ladder operators.

    The cross term a1 a2^dag is taken as the adjoint of a1^dag a2 rather
    than as a product of single-mode matrices: the product would pass
    through states above the cutoff and silently corrupt the top shell,
    while the adjoint is exact there and keeps J_x, J_y Hermitian to the
    last bit.
    """
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    a1 = annihilation(basis, 1)
    a2 = annihilation(basis, 2)
    up_down = multiply(adjoint(a1), a2)  # a1^dag a2, block preserving
    down_up = adjoint(up_down)           # a1 a2^dag, exact on the top shell
    n1 = number_operator(basis, 1)
    n2 = number_operator(basis, 2)
    jx = scale(add(up_down, down_up), 0.5 * hbar)
    jy = scale(add(up_down, scale(down_up, -1.0)), -0.5j * hbar)
    jz = scale(add(n1, scale(n2, -1.0)), 0.5 * hbar)
    jtot = scale(add(n1, n2), 0.5 * hbar)
    return AngularMomentumSet(jx=jx, jy=jy, jz=jz, jtot=jtot, hbar=hbar, basis=basis)


def extract_block(amset: AngularMomentumSet, n: int) -> Block:
    """Dense J_x, J_y, J_z on the block of total occupation n (two_j = n)."""
    rng = amset.basis.block_range(n)  # validates n
    sl = slice(rng.start, rng.stop)
    return Block(
        two_j=n,
        jx=amset.jx.to_csr()[sl, sl].toarray(),
        jy=amset.jy.to_csr()[sl, sl].toarray(),
        jz=amset.jz.to_csr()[sl, sl].toarray(),
        hbar=amset.hbar,
    )


def casimir(amset: AngularMomentumSet) -> SparseOperator:
    """J^2 = J_x^2 + J_y^2 + J_z^2; block diagonal and Hermitian."""
    return add(
        add(multiply(amset.jx, amset.jx), multiply(amset.jy, amset.jy)),
        multiply(amset.jz, amset.jz),
    )


def casimir_residual(
    amset: AngularMomentumSet, epsilon: float, *, cas: SparseOperator | None = None
) -> SparseOperator:
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
    quad = add(multiply(jt, jt), scale(jt, epsilon * amset.hbar))
    return add(cas, scale(quad, -1.0))
