"""Sparse complex operators over a truncated two-mode Fock basis.

Every operator is one canonical, read-only ``scipy.sparse.csr_matrix``:
column indices sorted within each row, duplicate positions merged, exact
zeros dropped, and its ``data``, ``indices`` and ``indptr`` frozen.
``canonical`` is the one place that establishes that form; the builders
here and in ``angular`` pass each result through it, and
``annihilation``, ``number_operator`` and ``diagonal`` hand it arrays
already written in that order.  NaN and inf
entries stay, so a check that meets one fails.  ``commutator`` returns
a fresh, writable matrix for ``max_abs`` or ``fro_norm`` to read;
``commutator_norm`` is the ``fro_norm`` of it, read off the scaled
entries without a matrix when the second operand is diagonal.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, position


def max_abs(m: sp.spmatrix) -> float:
    """Largest stored-entry magnitude of ``m`` (0 when it stores none)."""
    return float(np.max(np.abs(m.data))) if m.nnz else 0.0


def fro_norm(m: sp.csr_matrix) -> float:
    """Frobenius norm over the stored entries of ``m``, summed in row-major
    order: the column indices of each row are sorted in place first."""
    m.sort_indices()
    return _norm(m.data)


def _norm(values: np.ndarray) -> float:
    """sqrt(sum |v|^2) over ``values`` in their order, except when that sum
    overflows: then the entries are first scaled by the largest
    magnitude, so a norm that fits in a double comes out finite."""
    mags = np.abs(values)
    with np.errstate(over="ignore"):
        total = np.sum(mags ** 2)
    if np.isinf(total) and np.isfinite(mags.max()):
        big = mags.max()
        return float(big * np.sqrt(np.sum((mags / big) ** 2)))
    return float(np.sqrt(total))


def canonical(m: sp.spmatrix) -> sp.csr_matrix:
    """Sort, merge duplicates, drop exact zeros and freeze a fresh matrix.

    ``m`` must not be shared with any other operator: it is modified in
    place.
    """
    m = m.tocsr()
    m.sum_duplicates()
    m.eliminate_zeros()
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return m


def row_indices(m: sp.csr_matrix) -> np.ndarray:
    """Row index of every stored entry of ``m``, in row-major order."""
    return np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))


def from_entries(dim: int, rows, cols, vals) -> sp.csr_matrix:
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
    return canonical(m)


def _frozen(dim: int, data, indices, indptr) -> sp.csr_matrix:
    """A canonical matrix from arrays already in canonical order."""
    m = sp.csr_matrix((np.asarray(data, dtype=np.complex128), indices, indptr),
                      shape=(dim, dim))
    return canonical(m)


def annihilation(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Lowering operator of one mode: a_k |..n_k..> = sqrt(n_k) |..n_k - 1..>.

    States with n_k = 0 are annihilated.  The matrix never connects
    different total-occupation blocks upward, so it is exact everywhere
    in the truncated space.  Row r holds one entry, sqrt(n_k + 1) at the
    state one quantum above r, for every r below the top shell, so the
    arrays are written in canonical order directly.
    """
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    n1, n2, _ = basis.occupations()
    below = position(basis.n_max, 0)  # the states with n1 + n2 < n_max
    n1, n2 = n1[:below], n2[:below]
    raised = (n1 + 1, n2) if mode == 1 else (n1, n2 + 1)
    nk = raised[mode - 1]
    indptr = np.append(np.arange(below + 1), np.full(basis.size - below, below))
    return _frozen(basis.size, np.sqrt(nk), position(*raised), indptr)


def diagonal(values: np.ndarray) -> sp.csr_matrix:
    """The canonical diagonal matrix of ``values``, exact zeros dropped."""
    rows = np.flatnonzero(values)
    indptr = np.append(0, np.cumsum(values != 0))
    return _frozen(len(values), values[rows], rows, indptr)


def number_operator(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Diagonal occupation operator n_k; equals a_k^dag a_k exactly."""
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")
    n1, n2, _ = basis.occupations()
    return diagonal(n1 if mode == 1 else n2)


def _check_dims(a: sp.spmatrix, b: sp.spmatrix):
    if a.shape != b.shape:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def _is_diagonal(m: sp.csr_matrix) -> bool:
    """True when ``m`` stores no entry off its diagonal: the rows that
    hold an entry are as many as its entries, so each holds one, and
    they are its columns."""
    return np.array_equal(np.flatnonzero(np.diff(m.indptr)), m.indices)


def _scaled_commutator(a: sp.csr_matrix, delta: np.ndarray) -> np.ndarray:
    """a_ij delta_j - delta_i a_ij on the index arrays of ``a``."""
    return a.data * delta[a.indices] - np.repeat(delta, np.diff(a.indptr)) * a.data


def commutator(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """ab - ba as a fresh matrix.

    When ``b`` stores no entry off its diagonal delta, the result is
    a_ij delta_j - delta_i a_ij on the index arrays of ``a``, each term
    rounded as the products ab and ba round it, with exact zeros
    dropped; otherwise it is the products themselves.  NaN and inf
    entries stay.
    """
    _check_dims(a, b)
    if not _is_diagonal(b):
        return a @ b - b @ a
    vals = _scaled_commutator(a, b.diagonal())
    out = sp.csr_matrix((vals, a.indices, a.indptr), shape=a.shape, copy=True)
    out.eliminate_zeros()
    return out


def commutator_norm(a: sp.csr_matrix, b: sp.csr_matrix) -> float:
    """``fro_norm(commutator(a, b))`` for a canonical ``a``, bit for bit.

    When ``b`` is diagonal the norm is taken straight from the scaled
    entries, exact zeros dropped, in the row-major order the matrix
    would hold them in; no matrix is built.
    """
    _check_dims(a, b)
    if not _is_diagonal(b):
        return fro_norm(commutator(a, b))
    vals = _scaled_commutator(a, b.diagonal())
    return _norm(vals[vals != 0])
