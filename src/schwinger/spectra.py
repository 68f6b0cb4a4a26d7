"""Spectral analysis of the angular-momentum blocks.

Contains the per-block spectrum reports, read off the J_z diagonal and
the Gershgorin discs of J^2 with no eigensolve; the dense Hermitian
eigensolver (cyclic Jacobi with complex plane rotations), kept as the
small-block oracle the tests compare those reports against; the exact
half-integer sum rule; and the alignment angle between J_z and the total
J together with its classical limits.

Half integers are carried as integers scaled by two (two_j, two_mj), so
j = 3/2 etc. stay exact; the sum rule works in quarters (4 m^2) so both
sides are plain integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .angular import Block

JACOBI_MAX_SWEEPS = 50


class ConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted without reaching the target threshold."""


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
    sum_rule_dev: float     # |lhs - rhs| of the sum rule, in quarters
    dim_dev: float          # |number of distinct J_z levels - (2j + 1)|


@dataclass(frozen=True)
class AngleResult:
    """cos of the angle between J_z (at m = two_mj/2) and the total J."""

    two_j: int
    two_mj: int
    epsilon: float
    cos_theta: float


def _offdiag_max(a: np.ndarray) -> float:
    n = a.shape[0]
    if n < 2:
        return 0.0
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off)))


def jacobi_eigen(
    matrix, tol: float = 1e-12, max_sweeps: int = JACOBI_MAX_SWEEPS
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps unitary plane rotations over all (p, q) pairs until every
    off-diagonal magnitude is below ``tol``.  Each rotation zeroes one
    entry a_pq = r e^{i phase} exactly: a real Givens angle from
    tan(2 phi) = 2r / (a_pp - a_qq) combined with the unit phase.

    Returns (eigenvalues ascending, eigenvector columns).  Ties are
    ordered stably by original column index.  Raises ValueError if the
    input is not Hermitian within 1e-12 (relative to its largest entry)
    and ConvergenceError if ``max_sweeps`` sweeps do not converge.
    """
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"need a square matrix of dimension >= 1, got {a.shape}")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.conj().T))) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within 1e-12")
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.array([a[0, 0].real]), v

    skip = 0.01 * tol  # entries this small cannot push the max above tol
    converged = False
    for _ in range(max_sweeps):
        if _offdiag_max(a) < tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r <= skip:
                    continue
                omega = a[p, q] / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                ws = omega * s
                # A <- U^H A U with U the identity except
                # U[[p,q],[p,q]] = [[c, s], [-conj(omega) s, conj(omega) c]]
                col_p = a[:, p] * c - a[:, q] * np.conj(ws)
                col_q = a[:, p] * s + a[:, q] * np.conj(omega) * c
                a[:, p], a[:, q] = col_p, col_q
                row_p = a[p, :] * c - a[q, :] * ws
                row_q = a[p, :] * s + a[q, :] * omega * c
                a[p, :], a[q, :] = row_p, row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vcol_p = v[:, p] * c - v[:, q] * np.conj(ws)
                vcol_q = v[:, p] * s + v[:, q] * np.conj(omega) * c
                v[:, p], v[:, q] = vcol_p, vcol_q
    if not converged and _offdiag_max(a) >= tol:
        raise ConvergenceError(
            f"off-diagonal maximum still {_offdiag_max(a):.3e} after "
            f"{max_sweeps} sweeps (tol {tol:.3e})"
        )
    eigvals = np.diag(a).real.copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], v[:, order]


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
    J_z levels closer than hbar/2 count as one level.
    """
    n = two_j
    jz_levels = np.sort(np.real(jz_diag))[::-1]
    value = float(np.mean(cas_centres))
    spread = float(np.max(cas_centres + cas_radii) - np.min(cas_centres - cas_radii))
    j = 0.5 * n
    grid = (j - np.arange(n + 1)) * hbar
    grid_dev = float(np.max(np.abs(jz_levels - grid)))
    distinct = 1 + np.count_nonzero(jz_levels[:-1] - jz_levels[1:] >= 0.5 * hbar)
    lhs, rhs = sum_rule_check(n)
    return SpectrumReport(
        two_j=n,
        jz_eigenvalues=tuple(jz_levels.tolist()),
        casimir_value=value,
        max_residual=spread + grid_dev,
        spread=spread,
        value_dev=abs(value - j * (j + 1) * hbar * hbar),
        grid_dev=grid_dev,
        mean_square_dev=abs(_mean_square(jz_levels) - value),
        sum_rule_dev=float(abs(lhs - rhs)),
        dim_dev=float(abs(distinct - (n + 1))),
    )


def block_report(block: Block) -> SpectrumReport:
    """Spectrum report for one dense block, with every residual filled in.

    Forms J^2 densely and passes its Gershgorin discs to
    ``diagonal_report``, the same analysis ``verify`` runs on rows of the
    global sparse J^2.  Never raises on an inconsistent block: J^2 is
    Hermitized first, and corrupted operators show up as residuals.
    """
    cas = block.jx @ block.jx + block.jy @ block.jy + block.jz @ block.jz
    return diagonal_report(
        block.two_j, block.hbar, np.diag(block.jz), *gershgorin_discs(cas)
    )


def analyze_block(block: Block, tol: float = 1e-12) -> SpectrumReport:
    """Spectrum report for one block: J_z levels and the casimir value.

    Raises ValueError when the Gershgorin bound on the spread of the
    casimir eigenvalues exceeds ``tol``: that never happens for a
    correctly built block and signals a construction bug upstream.
    """
    report = block_report(block)
    if report.spread > tol:
        raise ValueError(
            f"casimir eigenvalues on block two_j={block.two_j} spread by up "
            f"to {report.spread:.3e} (> {tol:.3e}); the block operators are inconsistent"
        )
    return report


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
    rhs = two_j * (two_j + 1) * (two_j + 2) // 3
    return lhs, rhs


def mean_square_from_spectrum(report: SpectrumReport) -> float:
    """3 <J_z^2> averaged over the 2j+1 levels; reproduces the casimir.

    Isotropy forces <J^2> = 3 <J_z^2>, and the sum rule turns the level
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
