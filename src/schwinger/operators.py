"""Sparse complex operator algebra over a truncated two-mode Fock basis.

Each operator holds one canonical CSR matrix: column indices sorted
within each row, duplicate positions merged, and exact zeros dropped.
NaN and inf entries stay, so a check that meets one fails.  Every
operation builds its result with a scipy.sparse kernel and passes it
through the same canonicalizing step, so equality comparison stays well
defined.

All operations are pure and every SparseOperator is immutable: the
arrays of its matrix are read-only.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, position


@dataclass(frozen=True, eq=False)
class SparseOperator:
    """Complex square matrix held as one canonical, read-only CSR matrix.

    Build it with ``from_entries`` or the operations below; they are the
    only places that establish the canonical form.
    """

    _csr: sp.csr_matrix

    @property
    def dim(self) -> int:
        return self._csr.shape[0]

    @property
    def rows(self) -> np.ndarray:
        """Row index of every stored entry, in row-major order."""
        rows = np.repeat(np.arange(self.dim, dtype=np.int64), np.diff(self._csr.indptr))
        rows.flags.writeable = False
        return rows

    @property
    def cols(self) -> np.ndarray:
        return self._csr.indices

    @property
    def vals(self) -> np.ndarray:
        return self._csr.data

    @property
    def nnz(self) -> int:
        return self._csr.nnz

    def to_csr(self) -> sp.csr_matrix:
        return self._csr

    def to_dense(self) -> np.ndarray:
        return self._csr.toarray()

    def max_abs(self) -> float:
        """Largest entry magnitude (0 for the zero operator)."""
        return float(np.max(np.abs(self.vals))) if self.nnz else 0.0

    def fro_norm(self) -> float:
        """Frobenius norm over the stored entries.

        sqrt(sum |v|^2), except when that sum overflows: then the entries
        are first scaled by the largest magnitude, so a norm that fits in
        a double comes out finite.
        """
        mags = np.abs(self.vals)
        with np.errstate(over="ignore"):
            total = np.sum(mags ** 2)
        if np.isinf(total) and np.isfinite(mags.max()):
            big = mags.max()
            return float(big * np.sqrt(np.sum((mags / big) ** 2)))
        return float(np.sqrt(total))

    def __eq__(self, other) -> bool:
        if not isinstance(other, SparseOperator):
            return NotImplemented
        a, b = self._csr, other._csr
        return (
            a.shape == b.shape
            and np.array_equal(a.indptr, b.indptr)
            and np.array_equal(a.indices, b.indices)
            and np.array_equal(a.data, b.data)
        )


def _canonical(m: sp.spmatrix) -> SparseOperator:
    """Sort, merge duplicates, drop exact zeros and freeze a fresh matrix.

    ``m`` must not be shared with any other operator: it is modified in
    place.
    """
    m = m.tocsr()
    m.sum_duplicates()
    m.eliminate_zeros()
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return SparseOperator(m)


def from_entries(dim: int, rows, cols, vals) -> SparseOperator:
    """Canonicalize raw triplets: sort, merge duplicates, drop exact zeros."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.complex128)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows, cols and vals must have equal length")
    if len(rows) and (
        rows.min() < 0 or cols.min() < 0 or rows.max() >= dim or cols.max() >= dim
    ):
        raise ValueError(f"triplet index outside a {dim}x{dim} matrix")
    m = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=np.complex128)
    return _canonical(m)


def identity(dim: int) -> SparseOperator:
    idx = np.arange(dim, dtype=np.int64)
    return from_entries(dim, idx, idx, np.ones(dim, dtype=np.complex128))


def zero(dim: int) -> SparseOperator:
    return from_entries(dim, [], [], [])


def annihilation(basis: FockBasis, mode: int) -> SparseOperator:
    """Lowering operator of one mode: a_k |..n_k..> = sqrt(n_k) |..n_k - 1..>.

    States with n_k = 0 are annihilated.  The matrix never connects
    different total-occupation blocks upward, so it is exact everywhere
    in the truncated space.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    n1, n2, _ = basis.occupations()
    nk = n1 if mode == 1 else n2
    cols = np.flatnonzero(nk)
    lowered = (n1[cols] - 1, n2[cols]) if mode == 1 else (n1[cols], n2[cols] - 1)
    return from_entries(basis.size, position(*lowered), cols, np.sqrt(nk[cols]))


def number_operator(basis: FockBasis, mode: int) -> SparseOperator:
    """Diagonal occupation operator n_k; equals adjoint(a_k) @ a_k exactly."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    n1, n2, _ = basis.occupations()
    idx = np.arange(basis.size, dtype=np.int64)
    return from_entries(basis.size, idx, idx, n1 if mode == 1 else n2)


def adjoint(op: SparseOperator) -> SparseOperator:
    """Conjugate transpose.  In the truncated space a_k^dag = adjoint(a_k)."""
    return _canonical(op._csr.conj().T)


def _check_dims(a: SparseOperator, b: SparseOperator):
    if a.dim != b.dim:
        raise ValueError(f"dimension mismatch: {a.dim} vs {b.dim}")


def multiply(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    _check_dims(a, b)
    return _canonical(a._csr @ b._csr)


def add(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    _check_dims(a, b)
    return _canonical(a._csr + b._csr)


def scale(a: SparseOperator, c: complex) -> SparseOperator:
    return _canonical(a._csr * complex(c))


def commutator(a: SparseOperator, b: SparseOperator) -> SparseOperator:
    """ab - ba.  For the truncated ladder operators [a_k, a_k^dag] equals
    the identity only below the top shell n1 + n2 = n_max; the deviation
    there is real and expected, not a bug."""
    _check_dims(a, b)
    return add(multiply(a, b), scale(multiply(b, a), -1.0))
