"""Spectral analysis of the angular-momentum blocks.

Contains the per-block spectrum reports, read off the J_z diagonal and
the Gershgorin discs of J^2 with no eigensolve; the exact half-integer
sum rule; and the alignment angle between J_z and the total J together
with its classical limits.

Half integers are carried as integers scaled by two (two_j, two_mj), so
j = 3/2 etc. stay exact; the sum rule works in quarters (4 m^2) so both
sides are plain integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp


@dataclass(frozen=True)
class SpectrumReport:
    """Eigenstructure of one constant-j block, with every block residual.

    Built by ``diagonal_report`` from the J_z diagonal and the
    Gershgorin discs of the Hermitized J^2, with no eigensolve.
    jz_eigenvalues are the J_z diagonal in absolute units (hbar times
    m), sorted descending; casimir_value is the J^2 trace over the block
    dimension, which is the mean J^2 eigenvalue exactly; max_residual
    combines the casimir spread with the deviation of the J_z spectrum
    from the exact grid {j, j-1, ..., -j} hbar.  The other residuals
    each measure one property of a correct spin-j block and vanish on it
    (up to rounding).
    """

    two_j: int
    jz_eigenvalues: tuple[float, ...]
    casimir_value: float
    max_residual: float
    # Gershgorin bound max(d + r) - min(d - r) on the spread of the J^2
    # eigenvalues; equal to the spread when J^2 is diagonal (r = 0)
    spread: float
    value_dev: float        # |casimir - j(j+1) hbar^2|
    grid_dev: float         # largest |J_z level - grid level|
    mean_square_dev: float  # |3 <J_z^2> - casimir|
    # |lhs - rhs| of the sum rule in quarters, lhs from the measured
    # J_z levels rounded to the nearest 2m
    sum_rule_dev: float
    dim_dev: float          # |number of distinct J_z levels - (2j + 1)|


@dataclass(frozen=True)
class AngleResult:
    """cos of the angle between J_z (at m = two_mj/2) and the total J."""

    two_j: int
    two_mj: int
    epsilon: float
    cos_theta: float


def gershgorin_discs(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Centres and radii of the Gershgorin discs of the Hermitian part.

    ``matrix`` is a square numpy array or scipy sparse matrix M.  The
    centres are the (real) diagonal of H = (M + M^H)/2 and the radii its
    off-diagonal absolute row sums, so every eigenvalue of H lies in some
    [centre - radius, centre + radius].  A radius is exactly 0 on a row
    where H has no off-diagonal entry.
    """
    m = sp.csr_matrix(matrix)
    h = ((m + m.conj().T) * 0.5).tocoo()
    off = h.row != h.col
    radii = np.bincount(h.row[off], weights=np.abs(h.data[off]), minlength=h.shape[0])
    return h.diagonal().real, radii


def diagonal_report(
    two_j: int, hbar: float, jz_diag, cas_centres, cas_radii
) -> SpectrumReport:
    """Every report field of one block, read off three 1-D arrays.

    ``jz_diag`` is the J_z diagonal on the block's rows; ``cas_centres``
    and ``cas_radii`` are the block's rows of ``gershgorin_discs`` of
    J^2.  Never raises: an inconsistent block shows up as residuals.
    J_z levels closer than hbar/2 count as one level; the sum rule
    rounds each level to the nearest multiple of hbar/2, and a NaN
    level fails it.
    """
    n = two_j
    jz_levels = np.sort(np.real(jz_diag))[::-1]
    value = float(np.mean(cas_centres))
    spread = float(np.max(cas_centres + cas_radii) - np.min(cas_centres - cas_radii))
    j = 0.5 * n
    grid = (j - np.arange(n + 1)) * hbar
    grid_dev = float(np.max(np.abs(jz_levels - grid)))
    distinct = 1 + np.count_nonzero(jz_levels[:-1] - jz_levels[1:] >= 0.5 * hbar)
    # a level past 2m = +-(2j + 1) is off the grid anyway; the clip keeps
    # the squares finite however far a corrupted level lies
    two_m = np.clip(np.rint(2.0 * jz_levels / hbar), -n - 1, n + 1)
    return SpectrumReport(
        two_j=n,
        jz_eigenvalues=tuple(jz_levels.tolist()),
        casimir_value=value,
        max_residual=spread + grid_dev,
        spread=spread,
        value_dev=abs(value - j * (j + 1) * hbar * hbar),
        grid_dev=grid_dev,
        mean_square_dev=abs(_mean_square(jz_levels) - value),
        sum_rule_dev=float(abs(np.sum(two_m * two_m) - _quarter_sum(n))),
        dim_dev=float(abs(distinct - (n + 1))),
    )


# int64 stays exact for the quarter sums up to well beyond this bound
_SUM_RULE_VECTOR_LIMIT = 1_000_000


def sum_rule_check(two_j: int) -> tuple[int, int]:
    """Both sides of sum_{m=-j}^{j} m^2 = (1/3) j (j+1) (2j+1), in quarters.

    Scaling by 4 makes both sides integers for every half-integer j:
    lhs = sum of (2m)^2 over the 2j+1 values of m, rhs = 2j(2j+1)(2j+2)/3.
    Returned as exact integers so the equality can be asserted with no
    floating point involved.
    """
    if two_j < 0:
        raise ValueError(f"two_j must be non-negative, got {two_j}")
    if two_j <= _SUM_RULE_VECTOR_LIMIT:
        two_m = np.arange(-two_j, two_j + 1, 2, dtype=np.int64)
        lhs = int(np.sum(two_m * two_m))
    else:
        lhs = sum(m * m for m in range(-two_j, two_j + 1, 2))
    return lhs, _quarter_sum(two_j)


def _quarter_sum(two_j: int) -> int:
    """The exact sum of (2m)^2 over m = -j..j: 2j(2j+1)(2j+2)/3."""
    return two_j * (two_j + 1) * (two_j + 2) // 3


def mean_square_from_spectrum(report: SpectrumReport) -> float:
    """3 <J_z^2> averaged over the 2j+1 levels; reproduces the casimir.

    Isotropy requires <J^2> = 3 <J_z^2>, and the sum rule turns the level
    average into j(j+1) hbar^2, matching the operator eigenvalue.
    """
    return _mean_square(np.asarray(report.jz_eigenvalues))


def _mean_square(levels: np.ndarray) -> float:
    return float(3.0 * np.sum(levels * levels) / len(levels))


def cos_theta(two_j: int, two_mj: int, epsilon: float) -> float:
    """cos of the angle between J_z and the total J: (m/j)/sqrt(1 + eps/j).

    Independent of hbar.  With eps = 1 the extremal m = +-j never reaches
    cos = +-1; with eps = 0, or as j grows without bound, it does.
    """
    if two_j < 1:
        raise ValueError(
            f"angle undefined for two_j={two_j}: zero-magnitude angular momentum"
        )
    if abs(two_mj) > two_j:
        raise ValueError(f"two_mj={two_mj} outside -two_j..two_j for two_j={two_j}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    return (two_mj / two_j) / math.sqrt(1.0 + 2.0 * epsilon / two_j)


def limit_scan(two_j_max: int, epsilon: float) -> list[AngleResult]:
    """Extremal alignment cos(theta) at m = j for two_j = 1 .. two_j_max.

    For eps > 0 the values increase strictly with j and stay below 1,
    approaching it as j -> infinity; for eps = 0 every value is exactly 1.
    """
    if two_j_max < 1:
        raise ValueError(f"two_j_max must be at least 1, got {two_j_max}")
    return [
        AngleResult(
            two_j=k, two_mj=k, epsilon=epsilon, cos_theta=cos_theta(k, k, epsilon)
        )
        for k in range(1, two_j_max + 1)
    ]
