"""Sparse complex operators over a truncated two-mode Fock basis.

Every operator is one canonical, read-only ``scipy.sparse.csr_matrix``:
column indices sorted within each row, duplicate positions merged, exact
zeros dropped, and its ``data``, ``indices`` and ``indptr`` frozen.
``canonical`` is the one place that establishes that form; the builders
here and in ``angular`` pass each result through it, and
``annihilation``, ``number_operator`` and ``diagonal`` hand it arrays
already written in that order.  NaN and inf
entries stay, so a check that meets one fails.  ``commutator`` returns
a fresh, writable matrix for ``max_abs`` or ``fro_norm`` to read.

The helpers that read a residual off operators follow one rule: a
diagonal operand is a vector, shared patterns combine data arrays, and
scipy handles products and mismatches.  ``operand`` reads an operator
that stores nothing off its diagonal once, as its diagonal vector, and
the helpers apply that vector elementwise to the other operand's
entries; two operands with the same ``indptr`` and ``indices`` combine
their ``data`` arrays entry by entry; scipy forms only the true
products and the sums whose patterns differ.  Each helper equals the
scipy expression it replaces bit for bit.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .fock import FockBasis, position


def max_abs(m: sp.spmatrix) -> float:
    """Largest stored-entry magnitude of ``m`` (0 when it stores none)."""
    return _max_abs(m.data)


def _max_abs(values: np.ndarray) -> float:
    return float(np.max(np.abs(values), initial=0.0))


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


def _check_dims(a, b):
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def _is_diagonal(m: sp.csr_matrix) -> bool:
    """True when ``m`` stores no entry off its diagonal: the rows that
    hold an entry are as many as its entries, so each holds one, and
    they are its columns."""
    return np.array_equal(np.flatnonzero(np.diff(m.indptr)), m.indices)


# ---------------------------------------------------------------------------
# operands: a canonical matrix, or the diagonal vector of one that stores
# nothing off its diagonal

Operand = sp.csr_matrix | np.ndarray


def operand(m: Operand) -> Operand:
    """``m`` as the helpers below read it: its diagonal as a vector when
    the canonical ``m`` stores nothing off its diagonal, otherwise ``m``
    itself.  A vector is already an operand and comes back as it is.

    The vector keeps every entry: a canonical matrix stores exactly the
    nonzero entries of its diagonal.  Only the sign of a zero real or
    imaginary part is lost, since ``diagonal()`` adds each entry to 0;
    no magnitude, and no sparse product, depends on it.
    """
    if isinstance(m, np.ndarray):
        return m
    return m.diagonal() if _is_diagonal(m) else m


def _matrix(x: Operand) -> sp.csr_matrix:
    """The canonical matrix of an operand."""
    return diagonal(x) if isinstance(x, np.ndarray) else x


def diagonal_of(x: Operand) -> np.ndarray:
    """The diagonal of an operand, as a vector."""
    return x if isinstance(x, np.ndarray) else x.diagonal()


def off_diagonal(x: Operand) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row, column and value of every entry an operand stores off its
    diagonal, in row-major order."""
    if isinstance(x, np.ndarray):
        none = np.zeros(0, dtype=np.int64)
        return none, none, x[:0]
    rows = row_indices(x)
    off = rows != x.indices
    if off.all():
        return rows, x.indices, x.data
    return rows[off], x.indices[off], x.data[off]


def same_pattern(a: sp.spmatrix, b: sp.spmatrix) -> bool:
    """True when two compressed matrices have equal ``indptr`` and
    ``indices``, so their ``data`` arrays line up entry by entry."""
    return np.array_equal(a.indptr, b.indptr) and np.array_equal(a.indices, b.indices)


def _times(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x * y elementwise for complex arrays of one shape, each part
    rounded as scipy's sparse product rounds it: two products and one
    sum.  (numpy's complex multiply may fuse a product into the sum.)"""
    p = np.empty_like(x)
    p.real = x.real * y.real - x.imag * y.imag
    p.imag = x.real * y.imag + x.imag * y.real
    return p


def _square(x: np.ndarray) -> np.ndarray:
    """x * x elementwise, rounded as ``_times`` rounds it."""
    return _times(x, x)


def hermiticity_residual(x: Operand) -> float:
    """``max_abs(m - m.conj().T)`` for the canonical ``m`` of operand
    ``x``, bit for bit.

    A diagonal operand is its own transpose, so the residual is read off
    its vector.  Otherwise the CSC arrays of ``m`` are the CSR arrays of
    its transpose: when they store the same pattern as ``m``, as every
    clean operator's do, max|a_ij - conj(a_ji)| is read off the two data
    arrays; otherwise it is taken from the difference matrix.
    """
    if isinstance(x, np.ndarray):
        data, t_data = x, x
    else:
        t = x.tocsc()
        if not same_pattern(t, x):
            return max_abs(x - x.conj().T)
        data, t_data = x.data, t.data
    return _max_abs(data - t_data.conj())


def _scaled_commutator(a: sp.csr_matrix, delta: np.ndarray) -> np.ndarray:
    """a_ij delta_j - delta_i a_ij on the index arrays of ``a``.

    A real-valued ``delta`` leaves nothing for numpy's complex multiply
    to fuse; a complex one is multiplied as ``_times`` multiplies.
    """
    if delta.imag.any():
        return (_times(a.data, delta[a.indices])
                - _times(np.repeat(delta, np.diff(a.indptr)), a.data))
    return a.data * delta[a.indices] - np.repeat(delta, np.diff(a.indptr)) * a.data


def _commutator_entries(a: sp.csr_matrix, b: Operand):
    """[a, b] as (pattern, values): the values on the index arrays of the
    matrix ``pattern`` in row-major order, exact zeros possibly among
    them.  For a diagonal ``b`` they are ``a``'s entries scaled, each
    term rounded as the products ab and ba round it; otherwise the
    sorted difference of the products, which is taken on their data
    arrays when they store the same pattern."""
    if isinstance(b, np.ndarray):
        return a, _scaled_commutator(a, b)
    m, ba = a @ b, b @ a
    if same_pattern(m, ba):
        m.data -= ba.data
        m.eliminate_zeros()
    else:
        m = m - ba
    m.sort_indices()
    return m, m.data


def _on_pattern(pattern: sp.csr_matrix, values: np.ndarray) -> sp.csr_matrix:
    """A fresh matrix of ``values`` on the index arrays of ``pattern``,
    exact zeros dropped."""
    m = sp.csr_matrix((values, pattern.indices, pattern.indptr),
                      shape=pattern.shape, copy=True)
    m.eliminate_zeros()
    return m


def commutator(a: sp.csr_matrix, b: Operand) -> sp.csr_matrix:
    """ab - ba as a fresh matrix.

    When ``b`` stores no entry off its diagonal delta, the result is
    a_ij delta_j - delta_i a_ij on the index arrays of ``a``, each term
    rounded as the products ab and ba round it, with exact zeros
    dropped; otherwise it is the products themselves.  NaN and inf
    entries stay.
    """
    _check_dims(a, b)
    return _on_pattern(*_commutator_entries(a, operand(b)))


def commutator_norm(a: sp.csr_matrix, b: Operand, c: sp.csr_matrix | None = None,
                    scale: complex = 0.0) -> float:
    """``fro_norm(commutator(a, b) + c * scale)`` for a canonical ``a`` and
    ``c``, bit for bit; with no ``c``, ``fro_norm(commutator(a, b))``.

    No matrix is built unless a product or a mismatch needs one.  When
    ``c`` stores the commutator's pattern, its scaled data are added to
    the commutator's values entry by entry; otherwise the sum is formed
    as a matrix.  Exact zeros are dropped before the norm, so its
    pairwise sum sees the array the matrix would store, in row-major
    order.
    """
    _check_dims(a, b)
    pattern, values = _commutator_entries(a, operand(b))
    if c is not None:
        if not same_pattern(pattern, c):
            return fro_norm(_on_pattern(pattern, values) + c * scale)
        values = values + c.data * scale
    return _norm(values[values != 0])


def square_sum(a: sp.csr_matrix, b: sp.csr_matrix, x: Operand) -> sp.csr_matrix:
    """``canonical(a @ a + b @ b + x @ x)`` for canonical matrices ``a``
    and ``b`` and the canonical matrix of operand ``x``, bit for bit.

    scipy forms the products a @ a and b @ b.  When they store the same
    pattern the second is added to the first's data array in place;
    when that sum and ``x`` are diagonal the square of ``x`` is added on
    the diagonal and written with ``diagonal``.  Otherwise scipy forms
    the sums and x @ x.
    """
    total, bb = a @ a, b @ b
    if same_pattern(total, bb):
        total.data += bb.data
        total.eliminate_zeros()
    else:
        total = total + bb
    del bb  # the products are the largest arrays held here
    x = operand(x)
    if isinstance(x, np.ndarray) and _is_diagonal(total):
        return diagonal(total.diagonal() + _square(x))
    x = _matrix(x)
    return canonical(total + x @ x)


def quadratic_residuals(c: Operand, t: Operand, scale: float) -> tuple[float, float]:
    """``max_abs(c - (t @ t + t * scale))`` and
    ``max_abs((c - t @ t) - t * scale)`` for the canonical matrices of
    operands ``c`` and ``t``, bit for bit.

    When both are diagonal the two are read off vectors; otherwise
    t @ t and t * scale are formed once, as matrices.
    """
    c, t = operand(c), operand(t)
    if isinstance(c, np.ndarray) and isinstance(t, np.ndarray):
        tt, ts = _square(t), t * scale
        return _max_abs(c - (tt + ts)), _max_abs((c - tt) - ts)
    c, t = _matrix(c), _matrix(t)
    tt, ts = t @ t, t * scale
    return max_abs(c - (tt + ts)), max_abs((c - tt) - ts)
