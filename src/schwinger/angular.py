"""Angular-momentum operators built from two boson modes.

The four operators over a truncated two-mode Fock basis are

    J_x = (hbar/2) (a1^dag a2 + a1 a2^dag)
    J_y = (hbar/2i)(a1^dag a2 - a1 a2^dag)
    J_z = (hbar/2) (n1 - n2)
    J   = (hbar/2) (n1 + n2)

Every J operator preserves the total occupation n = n1 + n2, so the
matrix set is block diagonal over the constant-n blocks of the basis and
each block realizes the spin j = n/2 representation exactly, with no
truncation artifacts anywhere, including the top shell n = n_max.  In
the basis order each is an ``operators`` band: J_x and J_y store the
first off-diagonals, J_z and J the main diagonal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import FockBasis
from .operators import (
    Band,
    annihilation,
    band,
    creation,
    frozen,
    minus,
    plus,
    product,
    row_product,
    scaled,
    shell_windows,
)


@dataclass(frozen=True, eq=False)
class AngularMomentumSet:
    """The operators J_x, J_y, J_z and the total J over one basis, each an
    ``operators`` band whose arrays ``build_set`` makes read-only."""

    jx: Band
    jy: Band
    jz: Band
    jtot: Band
    hbar: float
    basis: FockBasis


def build_set(basis: FockBasis, hbar: float = 1.0) -> AngularMomentumSet:
    """Construct the four operators from the mode ladder operators.

    The cross term a1 a2^dag is taken as the adjoint of a1^dag a2 rather
    than as a product of single-mode operators: the product would pass
    through states above the cutoff and silently corrupt the top shell,
    while the adjoint is exact there and keeps J_x, J_y Hermitian to the
    last bit.  a1^dag a2 is the ``row_product`` of the two row maps:
    row r moves one quantum from mode 1 to mode 2, the next state of its
    shell, so its values are the band U at offset 1.

    J_x = (U + U^dag) hbar/2 and J_y = (U - U^dag) hbar/2i are written
    once, each offset straight into its final array, with the bits of
    that band algebra: above the diagonal each entry is U times the
    scalar, and below it U^dag's entry, u or 0 - u, times the scalar,
    one row down.  The last state of every shell has U = 0, so its
    product is the 0 that U^dag leaves at row 0.  J_z and J are written
    straight from the occupations as (n1 -+ n2) hbar/2.  An offset that
    the scaling leaves all zero (an underflowing hbar) is dropped, and
    ``frozen`` raises OverflowError on an hbar that overflows an entry.
    """
    if not (math.isfinite(hbar) and hbar > 0):
        raise ValueError(f"hbar must be positive and finite, got {hbar}")
    u = row_product(creation(basis, 1), annihilation(basis, 2))[1]  # a1^dag a2
    cx, cy = complex(0.5 * hbar), complex(-0.5j * hbar)
    jx = {1: np.multiply(u, cx), -1: _lowered(u, cx)}
    jy = {1: np.multiply(u, cy)}
    jy[-1] = _lowered(np.subtract(0.0, u, out=u), cy)
    n1, n2, total = basis.occupations()
    jz, jtot = np.zeros(len(u), dtype=np.complex128), np.zeros(len(u), dtype=np.complex128)
    np.multiply(n1 - n2, 0.5 * hbar, out=jz.real)
    np.multiply(total, 0.5 * hbar, out=jtot.real)
    return AngularMomentumSet(jx=frozen(band(jx)), jy=frozen(band(jy)),
                              jz=frozen(band({0: jz})), jtot=frozen(band({0: jtot})),
                              hbar=hbar, basis=basis)


def _lowered(values: np.ndarray, c: complex) -> np.ndarray:
    """The complex array whose entry i is ``values[i - 1] * c`` and whose
    entry 0 is ``values[-1] * c``: the offset +1 entries ``values``,
    scaled, one row down, where offset -1 holds their mirrors."""
    out = np.empty(len(values), dtype=np.complex128)
    np.multiply(values[:-1], c, out=out[1:])
    np.multiply(values[-1:], c, out=out[:1])
    return out


def casimir(amset: AngularMomentumSet) -> Band:
    """J^2 = J_x^2 + J_y^2 + J_z^2 as a band: its main diagonal alone on a
    clean set.  It is summed over the ``shell_windows`` of the basis, one
    window on a basis of at most ``WINDOW_ROWS`` rows, each written into
    the whole arrays as it is done, and returned ``frozen`` like the
    operators, which raises OverflowError when J^2 stores inf or NaN."""
    jx, jy, jz = amset.jx, amset.jy, amset.jz
    dim = amset.basis.size
    out = {}
    for _, rows in shell_windows(amset.basis.n_max):
        part = plus(plus(product(jx, jx, rows), product(jy, jy, rows)), product(jz, jz, rows))
        for p, values in part.items():
            if p not in out:
                out[p] = np.zeros(dim, dtype=np.complex128)
            out[p][rows] = values
    return frozen(out)


def casimir_residual(amset: AngularMomentumSet, epsilon: float) -> Band:
    """J^2 - J (J + epsilon hbar 1) as a band.

    With epsilon = 1 (boson commutators) this vanishes identically on the
    whole truncated space: the square of the angular momentum is
    j(j+1) hbar^2, not j^2 hbar^2.  With epsilon = 0 it reduces to
    hbar J, the gap between the quantum and the classical square.
    Intermediate epsilon just evaluates the same formula.  ``verify``
    takes the epsilon = 1 form window by window, in
    ``cli._window_residuals``.
    """
    jt = amset.jtot
    return minus(casimir(amset), plus(product(jt, jt), scaled(jt, epsilon * amset.hbar)))
