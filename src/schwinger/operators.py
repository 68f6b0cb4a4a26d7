"""Sparse complex operators over a truncated two-mode Fock basis.

Every operator is one canonical, read-only ``scipy.sparse.csr_matrix``:
column indices sorted within each row, duplicate positions merged, exact
zeros dropped, and its ``data``, ``indices`` and ``indptr`` frozen.
``canonical`` puts a matrix of unknown order in that form.  The
builders whose structure is known, ``annihilation``, ``creation``,
``diagonal``, ``number_operator`` and ``mirrored``, write their arrays
in that order directly and only freeze them.  NaN and inf
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
    return _freeze(m)


def _freeze(m: sp.csr_matrix) -> sp.csr_matrix:
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


_INT32_MAX = np.iinfo(np.int32).max


def _index_dtype(dim: int, nnz: int):
    """The index dtype scipy picks for a dim x dim matrix of nnz entries."""
    return np.int32 if max(dim, nnz) <= _INT32_MAX else np.int64


def _frozen(dim: int, data, indices: np.ndarray, indptr: np.ndarray) -> sp.csr_matrix:
    """A frozen matrix from arrays in canonical order: sorted, without
    duplicates or exact zeros.  They are not checked again.

    The index arrays are handed over in the dtype scipy would pick for
    them, so that scipy need not scan them to choose it.
    """
    index = _index_dtype(dim, len(indices))
    m = sp.csr_matrix((np.asarray(data, dtype=np.complex128),
                       indices.astype(index, copy=False), indptr.astype(index, copy=False)),
                      shape=(dim, dim))
    m.has_canonical_format = True
    return _freeze(m)


def _check_mode(mode: int):
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")


def annihilation(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Lowering operator of one mode: a_k |..n_k..> = sqrt(n_k) |..n_k - 1..>.

    States with n_k = 0 are annihilated.  The matrix never connects
    different total-occupation blocks upward, so it is exact everywhere
    in the truncated space.  Row r holds one entry, sqrt(n_k + 1) at the
    state one quantum above r, for every r below the top shell, so the
    arrays are written in canonical order directly.
    """
    _check_mode(mode)
    n1, n2, _ = basis.occupations()
    below = position(basis.n_max, 0)  # the states with n1 + n2 < n_max
    n1, n2 = n1[:below], n2[:below]
    raised = (n1 + 1, n2) if mode == 1 else (n1, n2 + 1)
    nk = raised[mode - 1]
    indptr = np.append(np.arange(below + 1), np.full(basis.size - below, below))
    return _frozen(basis.size, np.sqrt(nk), position(*raised), indptr)


def creation(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Raising operator of one mode, the transpose of ``annihilation``:
    a_k^dag |..n_k..> = sqrt(n_k + 1) |..n_k + 1..> below the top shell.

    Row r holds one entry, sqrt(n_k) at the state one quantum below r,
    for every r with n_k > 0, so the arrays are written in canonical
    order directly.  The mode operators are real, so the transpose is
    the adjoint.
    """
    _check_mode(mode)
    n1, n2, _ = basis.occupations()
    nk = n1 if mode == 1 else n2
    rows = np.flatnonzero(nk)
    lowered = (n1[rows] - 1, n2[rows]) if mode == 1 else (n1[rows], n2[rows] - 1)
    indptr = np.append(0, np.cumsum(nk != 0))
    return _frozen(basis.size, np.sqrt(nk[rows]), position(*lowered), indptr)


def mirrored(u: sp.csr_matrix, *terms: tuple) -> list[sp.csr_matrix]:
    """For each (upper, lower, scale) of ``terms``, the canonical matrix
    of ``upper`` on the pattern of ``u`` and ``lower`` on the pattern of
    its transpose, times ``scale``, exact zeros dropped.

    ``u`` stores at most one entry per row, just right of the diagonal,
    so row i holds the mirror of row i - 1's entry at column i - 1, then
    its own at column i + 1.  The index arrays are written in that order
    once and shared by every matrix that stores no zero; one that does
    is canonicalized from a copy.  Each product is one elementwise
    scaling of the data, as scipy scales a matrix.
    """
    dim, nnz = u.shape[0], 2 * u.nnz
    index = _index_dtype(dim, nnz)
    has_upper = np.diff(u.indptr)
    has_lower = np.zeros_like(has_upper)
    has_lower[1:] = has_upper[:-1]
    indptr = np.zeros(dim + 1, dtype=index)
    np.cumsum(has_upper + has_lower, out=indptr[1:])
    rows = np.flatnonzero(has_upper)
    at_upper, at_lower = indptr[rows] + has_lower[rows], indptr[rows + 1]
    indices = np.empty(nnz, dtype=index)
    indices[at_upper], indices[at_lower] = u.indices, rows
    matrices = []
    for upper, lower, scale in terms:
        data = np.empty(nnz, dtype=np.complex128)
        data[at_upper], data[at_lower] = upper, lower
        data *= scale
        if data.all():
            matrices.append(_frozen(dim, data, indices, indptr))
        else:  # products underflow to 0 at the smallest scales
            matrices.append(canonical(sp.csr_matrix((data, indices, indptr), shape=u.shape,
                                                    copy=True)))
    return matrices


def diagonal(values: np.ndarray) -> sp.csr_matrix:
    """The canonical diagonal matrix of ``values``, exact zeros dropped."""
    rows = np.flatnonzero(values)
    indptr = np.append(0, np.cumsum(values != 0))
    return _frozen(len(values), values[rows], rows, indptr)


def number_operator(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """Diagonal occupation operator n_k; equals a_k^dag a_k exactly."""
    _check_mode(mode)
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


def transpose_order(m: sp.csr_matrix) -> np.ndarray | None:
    """The position in ``m.data`` of each entry of ``m``'s transpose, in
    row-major order, when the transpose stores ``m``'s pattern; None
    when it stores another.

    The CSC arrays of a matrix are the CSR arrays of its transpose, so
    the order is the ``data`` of one ``tocsc()`` of the matrix that
    stores each entry's position on ``m``'s pattern.
    """
    positions = np.arange(m.nnz, dtype=m.indices.dtype)
    t = sp.csr_matrix((positions, m.indices, m.indptr), shape=m.shape).tocsc()
    return t.data if same_pattern(t, m) else None


def hermiticity_residuals(*xs: Operand) -> list[float]:
    """``max_abs(m - m.conj().T)`` for the canonical ``m`` of each
    operand, bit for bit.

    A diagonal operand is its own transpose, so its residual is read off
    its vector.  When the transpose of a matrix stores its pattern, as
    every clean operator's does, max|a_ij - conj(a_ji)| is read off its
    data array through ``transpose_order``; a matrix that stores the
    pattern of the one before it reuses that order, so J_x and J_y take
    one between them.  Otherwise the residual is taken from the
    difference matrix.
    """
    residuals, pattern, order = [], None, None
    for x in xs:
        if isinstance(x, np.ndarray):
            residuals.append(_max_abs(x - x.conj()))
            continue
        if pattern is None or not same_pattern(pattern, x):
            pattern, order = x, transpose_order(x)
        residuals.append(max_abs(x - x.conj().T) if order is None
                         else _adjoint_gap(x.data, order))
    return residuals


def _adjoint_gap(data: np.ndarray, order: np.ndarray) -> float:
    """max|a_ij - conj(a_ji)| from the entries of a matrix and the order
    of its transpose's entries among them, with one temporary array."""
    t_data = data[order]
    np.conjugate(t_data, out=t_data)
    return _max_abs(np.subtract(data, t_data, out=t_data))


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


def square_sum(a: sp.csr_matrix, b: sp.csr_matrix, x: Operand) -> Operand:
    """The operand of ``canonical(a @ a + b @ b + x @ x)`` for canonical
    matrices ``a`` and ``b`` and the canonical matrix of operand ``x``:
    its matrix bit for bit, or its diagonal vector.

    scipy forms the products a @ a and b @ b.  When they store the same
    pattern the second is added to the first's data array in place;
    when that sum and ``x`` are diagonal the square of ``x`` is added on
    the diagonal, and the sum is returned as a vector, whose matrix is
    its ``diagonal``.  Otherwise scipy forms the sums and x @ x.
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
        return total.diagonal() + _square(x)
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
