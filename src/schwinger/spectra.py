"""Spectral analysis of the angular-momentum blocks.

Contains the table of every per-block value, read off the J_z diagonal
and the Gershgorin discs of J^2 in array passes with no eigensolve;
the exact half-integer sum rule; and the alignment angle between J_z
and the total J together with its classical limits, elementwise over
arrays of levels.

Half integers are carried as integers scaled by two (two_j, two_mj), so
j = 3/2 etc. stay exact; the sum rule works in quarters (4 m^2) so both
sides are plain integers.
"""

from __future__ import annotations

import math

import numpy as np


def block_table(two_js, hbar: float, jz_diag, cas_centres, cas_radii) -> dict:
    """Every per-block value of consecutive blocks, in one array pass over
    them.  Each value, a block's level order included, depends on that
    block's rows alone, so the blocks may come in groups: ``cli._blocks``
    passes the blocks of each ``operators.shell_windows`` window, and
    their tables hold the bits of one call over every block.

    ``two_js`` lists the blocks in row order, block two_j holding
    two_j + 1 rows; ``jz_diag`` is the J_z diagonal on those rows and
    ``cas_centres`` and ``cas_radii`` are the centres and radii of the
    Gershgorin discs of J^2 on them.  Never raises: an inconsistent
    block shows up as residuals.

    Returns a dict of arrays indexed by block, except ``levels``, which
    holds every block's J_z levels in absolute units (hbar times m),
    each block's sorted descending with NaN first, beginning at
    ``starts``; the others are:

    - ``casimir``: the J^2 trace over the block dimension, which is the
      mean J^2 eigenvalue exactly;
    - ``mean_square``: 3 <J_z^2> over the levels, which isotropy and the
      sum rule make equal to the casimir;
    - ``spread``: the Gershgorin bound max(d + r) - min(d - r) on the
      spread of the J^2 eigenvalues, equal to it when J^2 is diagonal;
    - ``grid_dev``: the largest |level - grid level| against the exact
      grid {j, j-1, ..., -j} hbar;
    - ``dim_dev``: |number of distinct levels - (2j + 1)|, levels closer
      than hbar/2 counting as one;
    - ``value_dev``: |casimir - j(j+1) hbar^2|;
    - ``mean_square_dev``: |mean_square - casimir|;
    - ``sum_rule_dev``: |lhs - rhs| of the sum rule in quarters, lhs
      from the levels rounded to the nearest multiple of hbar/2; a NaN
      level fails it.

    The levels are sorted only when some block's are not strictly
    decreasing already; a clean J_z's are.  A strictly decreasing block
    has one sorted order, its own, so skipping the sort keeps its bits.
    A -0.0 next to a 0.0, two equal levels and a NaN are not strictly
    decreasing, so the sort still sets their order.

    The sums are segment sums, so at a non-dyadic hbar ``casimir`` and
    ``mean_square`` can differ from a per-block ``np.mean`` in the last
    bits.
    """
    two_j = np.asarray(two_js, dtype=np.int64)
    sizes = two_j + 1
    starts = np.cumsum(sizes) - sizes
    block = np.repeat(np.arange(len(sizes)), sizes)
    n = two_j[block]
    jz = np.real(jz_diag)
    # each block's levels strictly decreasing, the last of a block
    # compared with nothing
    ordered = jz[:-1] > jz[1:]
    ordered[starts[1:] - 1] = True
    # else ascending by level within descending blocks, then reversed
    levels = jz.copy() if ordered.all() else jz[np.lexsort((jz, -block))[::-1]]
    casimir = np.add.reduceat(cas_centres, starts) / sizes
    spread = (np.maximum.reduceat(cas_centres + cas_radii, starts)
              - np.minimum.reduceat(cas_centres - cas_radii, starts))
    grid = (0.5 * n - (np.arange(len(block)) - starts[block])) * hbar
    grid_dev = np.maximum.reduceat(np.abs(levels - grid), starts)
    gaps = (levels[:-1] - levels[1:] >= 0.5 * hbar) & (block[1:] == block[:-1])
    distinct = 1 + np.bincount(block[1:][gaps], minlength=len(sizes))
    j = 0.5 * two_j
    mean_square = 3.0 * np.add.reduceat(levels * levels, starts) / sizes
    # a level past 2m = +-(2j + 1) is off the grid anyway; the clip keeps
    # the squares finite however far a corrupted level lies
    two_m = np.clip(np.rint(2.0 * levels / hbar), -n - 1, n + 1)
    return {
        "levels": levels,
        "starts": starts,
        "casimir": casimir,
        "mean_square": mean_square,
        "spread": spread,
        "grid_dev": grid_dev,
        "dim_dev": np.abs(distinct - sizes).astype(float),
        "value_dev": np.abs(casimir - j * (j + 1) * hbar * hbar),
        "mean_square_dev": np.abs(mean_square - casimir),
        "sum_rule_dev": np.abs(np.add.reduceat(two_m * two_m, starts) - _quarter_sum(two_j)),
    }


# the largest two_j sum_rule_check takes: its int64 sum, about
# two_j^3 / 3 = 3.3e17 here, stays well inside 2^63
_SUM_RULE_VECTOR_LIMIT = 1_000_000


def sum_rule_check(two_j):
    """Both sides of sum_{m=-j}^{j} m^2 = (1/3) j (j+1) (2j+1), in quarters.

    Scaling by 4 makes both sides integers for every half-integer j:
    lhs = sum of (2m)^2 over the 2j+1 values of m, rhs = 2j(2j+1)(2j+2)/3.
    Elementwise on integers, as exact int64 values, so the equality can
    be asserted with no floating point involved; the lhs is a running sum
    of the terms, not the closed form.  Raises ValueError if any two_j
    lies outside 0.._SUM_RULE_VECTOR_LIMIT.
    """
    two_j = np.asarray(two_j)
    least, top = two_j.min(initial=0), two_j.max(initial=0)
    if least < 0:
        raise ValueError(f"two_j must be non-negative, got {least}")
    if top > _SUM_RULE_VECTOR_LIMIT:
        raise ValueError(f"two_j {top} exceeds {_SUM_RULE_VECTOR_LIMIT}, "
                         "the largest value summed exactly in int64")
    two_j = two_j.astype(np.int64)
    # row r holds the squares of k = 2r and 2r + 1; down each column, two_j = k
    # adds the terms (2m)^2 = k^2 at 2m = +-k to the sum of two_j = k - 2
    squares = np.arange(top // 2 * 2 + 2, dtype=np.int64).reshape(-1, 2) ** 2
    halves = np.cumsum(squares, axis=0).ravel()
    return 2 * halves[two_j], _quarter_sum(two_j)


def _quarter_sum(two_j):
    """The exact sum of (2m)^2 over m = -j..j: 2j(2j+1)(2j+2)/3.

    Elementwise on an int64 array of two_j.
    """
    return two_j * (two_j + 1) * (two_j + 2) // 3


def cos_theta(two_j, two_mj, epsilon: float):
    """cos of the angle between J_z and the total J: (m/j)/sqrt(1 + eps/j).

    Elementwise on integers or integer arrays ``two_j`` and ``two_mj``,
    which broadcast together; each value is rounded as the scalar formula
    rounds it.  Independent of hbar.  With eps = 1 the extremal m = +-j
    never reaches cos = +-1; with eps = 0, or as j grows without bound,
    it does.  Raises ValueError if any element is out of its domain.
    """
    two_j, two_mj = np.broadcast_arrays(two_j, two_mj)
    if np.any(two_j < 1):
        raise ValueError(
            f"angle undefined for two_j={two_j.min()}: zero-magnitude angular momentum"
        )
    outside = np.abs(two_mj) > two_j
    if np.any(outside):
        k = np.argmax(outside)
        raise ValueError(f"two_mj={two_mj.flat[k]} outside -two_j..two_j "
                         f"for two_j={two_j.flat[k]}")
    if epsilon < 0:
        raise ValueError(f"epsilon must be non-negative, got {epsilon}")
    if not math.isfinite(2.0 * epsilon):
        raise ValueError(f"epsilon {epsilon} is too large: 2 * epsilon overflows")
    return (two_mj / two_j) / np.sqrt(1.0 + 2.0 * epsilon / two_j)
