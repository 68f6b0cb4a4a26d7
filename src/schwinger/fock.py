"""Truncated two-mode Fock basis organized in constant-total-occupation blocks.

The basis collects every occupation pair |n1, n2> with n1 + n2 <= n_max.
States are ordered by ascending total occupation n = n1 + n2 and, within
fixed n, by descending n1.  Each constant-n block is then a contiguous
run of n + 1 positions whose J_z quantum numbers appear in the order
m = n/2, n/2 - 1, ..., -n/2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class OccupationPair(NamedTuple):
    """Occupation numbers (n1, n2) of the two oscillator modes."""

    n1: int
    n2: int

    @property
    def total(self) -> int:
        return self.n1 + self.n2


@dataclass(frozen=True)
class FockBasis:
    """Immutable enumeration of all pairs with n1 + n2 <= n_max.

    Every position follows in closed form from ``position``; ``states``
    enumerates the pairs on demand.
    """

    n_max: int

    @property
    def size(self) -> int:
        return position(self.n_max + 1, 0)

    @property
    def states(self) -> tuple[OccupationPair, ...]:
        """Every pair in basis order, built by direct enumeration."""
        return tuple(
            OccupationPair(n1, n - n1)
            for n in range(self.n_max + 1)
            for n1 in range(n, -1, -1)
        )

    def index_of(self, pair: OccupationPair | tuple[int, int]) -> int:
        """Position of ``pair`` in the basis ordering.

        Raises ValueError for pairs outside the cutoff (or with negative
        occupations).
        """
        n1, n2 = OccupationPair(*pair)
        if n1 < 0 or n2 < 0 or n1 + n2 > self.n_max:
            raise ValueError(
                f"occupation pair {(n1, n2)} is outside the basis "
                f"(need n1, n2 >= 0 and n1 + n2 <= {self.n_max})"
            )
        return position(n1, n2)

    def occupations(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """n1, n2 and n1 + n2 of every state in basis order, as int64 arrays."""
        counts = np.arange(1, self.n_max + 2)
        total = np.repeat(np.arange(self.n_max + 1, dtype=np.int64), counts)
        n2 = np.arange(self.size, dtype=np.int64) - position(total, 0)
        return total - n2, n2, total

    def block_range(self, n: int) -> range:
        """Contiguous positions of the block with total occupation n.

        The block has n + 1 states (the 2j + 1 levels of j = n/2).
        """
        if not 0 <= n <= self.n_max:
            raise ValueError(f"block index n={n} not in 0..{self.n_max}")
        start = position(n, 0)
        return range(start, start + n + 1)


def position(n1, n2):
    """Basis position of |n1, n2>: n(n+1)/2 + n2 with n = n1 + n2.

    Elementwise on integer arrays, with no range check; ``index_of`` is
    the checked form.
    """
    n = n1 + n2
    return n * (n + 1) // 2 + n2


def build_basis(n_max: int) -> FockBasis:
    """The truncated basis; size is (n_max+1)(n_max+2)/2."""
    if n_max < 0:
        raise ValueError(f"n_max must be non-negative, got {n_max}")
    return FockBasis(n_max=n_max)
