"""Operators over a truncated two-mode Fock basis.

A mode ladder operator sends each Fock state to exactly one state, so in
the basis order it is a *row map*: a pair of read-only arrays
``(cols, vals)`` of length dim, row r holding ``vals[r]`` at column
``cols[r]``.  ``vals[r] == 0`` means the row is empty, whatever
``cols[r]`` holds.  ``annihilation`` and ``creation`` write the two
arrays directly, and ``row_product`` multiplies two row maps by one
gather.

Everything built from them is a *band*: a dict that maps each offset p
to a complex array of length dim whose entry i is the element
(i, i + p).  An entry of 0 is not stored; an offset whose array is all
zero is left out, and any offset may appear.  Every J operator keeps the
total occupation, so in the basis order it stores only diagonals: J_x
and J_y the first off-diagonals, J_z, J and a clean J^2 the main one.

The band algebra equals scipy's arithmetic on the canonical CSR
matrices (sorted, duplicates merged, exact zeros dropped) bit for bit.
``product`` sums the terms of each output entry from 0 in scipy's
column order, each rounded as scipy's sparse product rounds it, and
forms a term only where both factors store an entry, so NaN and inf
spread as they do through scipy.  ``plus`` and ``minus`` work
elementwise over the union of the offsets, ``scaled`` multiplies as
scipy's scalar product does, and ``adjoint`` conjugates and shifts.
``fro_norm`` and ``max_abs`` read the stored entries in row-major order.
"""

from __future__ import annotations

import numpy as np

from .fock import FockBasis, position

# (cols, vals), as the module docstring says
RowMap = tuple
# offset -> complex array of length dim, as the module docstring says
Band = dict


def _check_mode(mode: int):
    if mode not in (1, 2):
        raise ValueError(f"mode must be 1 or 2, got {mode}")


def _read_only(cols: np.ndarray, vals: np.ndarray) -> RowMap:
    for arr in (cols, vals):
        arr.flags.writeable = False
    return cols, vals


def annihilation(basis: FockBasis, mode: int) -> RowMap:
    """Lowering operator of one mode: a_k |..n_k..> = sqrt(n_k) |..n_k - 1..>.

    States with n_k = 0 are annihilated.  The operator never connects
    different total-occupation blocks upward, so it is exact everywhere
    in the truncated space.  Row r holds sqrt(n_k + 1) at the state one
    quantum above r, for every r below the top shell; the rows of the
    top shell are empty.
    """
    _check_mode(mode)
    n1, n2, total = basis.occupations()
    nk = n1 if mode == 1 else n2
    raised = position(n1 + 1, n2) if mode == 1 else position(n1, n2 + 1)
    below = total < basis.n_max
    return _read_only(np.where(below, raised, 0), np.where(below, np.sqrt(nk + 1), 0.0))


def creation(basis: FockBasis, mode: int) -> RowMap:
    """Raising operator of one mode, the transpose of ``annihilation``:
    a_k^dag |..n_k..> = sqrt(n_k + 1) |..n_k + 1..> below the top shell.

    Row r holds sqrt(n_k) at the state one quantum below r; the rows
    with n_k = 0 are empty.  The mode operators are real, so the
    transpose is the adjoint.
    """
    _check_mode(mode)
    n1, n2, _ = basis.occupations()
    nk = n1 if mode == 1 else n2
    lowered = position(n1 - 1, n2) if mode == 1 else position(n1, n2 - 1)
    return _read_only(np.where(nk > 0, lowered, 0), np.sqrt(nk))


def row_product(a: RowMap, b: RowMap) -> RowMap:
    """The row map of the product ab: row r of ``a`` reaches column
    c = cols_a[r], and row c of ``b`` goes on from there.  Each value is
    the one product vals_a[r] vals_b[c], as scipy forms the one term of
    such an entry."""
    (cols_a, vals_a), (cols_b, vals_b) = a, b
    return cols_b[cols_a], vals_a * vals_b[cols_a]


# ---------------------------------------------------------------------------
# the band algebra

def band(diagonals: dict) -> Band:
    """``diagonals`` without the offsets whose arrays are all zero."""
    return {p: values for p, values in diagonals.items() if values.any()}


def rows_of(p: int, dim: int) -> slice:
    """The rows i whose entry (i, i + p) lies inside a dim x dim matrix;
    ``rows_of(-p, dim)`` are those entries' columns."""
    return slice(max(0, -p), dim - max(0, p))


def _times(x: np.ndarray, y: np.ndarray, out: np.ndarray) -> np.ndarray:
    """x * y elementwise for complex arrays of one shape, written to
    ``out``, each part rounded as scipy's sparse product rounds it: two
    products and one sum.  (numpy's complex multiply may fuse a product
    into the sum.)"""
    np.multiply(x.real, y.real, out=out.real)
    out.real -= x.imag * y.imag
    np.multiply(x.real, y.imag, out=out.imag)
    out.imag += x.imag * y.real
    return out


def _plain(x: np.ndarray) -> bool:
    """True when every entry of ``x`` is real, or every one imaginary:
    then numpy's complex multiply by ``x`` has no product to fuse and
    rounds as ``_times`` does."""
    return not x.imag.any() or not x.real.any()


def product(a: Band, b: Band) -> Band:
    """The band of the matrix product ab.

    Entry (i, i + p + q) gathers the terms a(i, i + p) b(i + p, i + p + q)
    with p ascending, scipy's column order, onto a sum that starts from
    0.  A term is formed only where both factors store an entry: when
    the terms of one (p, q) do not sum to a finite value, those with an
    unstored factor are reset to 0, so a stored inf or NaN meets no
    unstored 0.
    """
    out = {}
    spare = None  # holds a term to add onto a sum already begun
    for p, x in sorted(a.items()):
        dim = len(x)
        rows, cols = rows_of(p, dim), rows_of(-p, dim)
        xs = x[rows]
        x_plain = _plain(xs)
        for q, y in b.items():
            ys = y[cols]
            begun = p + q in out
            if not begun:
                out[p + q] = np.zeros(dim, dtype=np.complex128)
            elif spare is None:
                spare = np.empty(dim, dtype=np.complex128)
            term = (spare if begun else out[p + q])[rows]
            if x_plain or _plain(ys):
                np.multiply(xs, ys, out=term)
            else:
                _times(xs, ys, term)
            if not np.isfinite(term.sum()):
                term[(xs == 0) | (ys == 0)] = 0
            if begun:
                out[p + q][rows] += term
            else:
                term += 0  # the sum starts from 0, which turns a -0.0 part to 0.0
    return band(out)


def _combine(ufunc, a: Band, b: Band, *, into_a: bool = False) -> Band:
    """``ufunc`` of a and b entry by entry over the union of their
    offsets, an unstored entry read as 0, as scipy combines two
    canonical matrices.  With ``into_a`` the arrays of ``a``, which no
    one else holds, take the results."""
    out = {}
    for p in a.keys() | b.keys():
        if p not in b:
            values = ufunc(a[p], 0, out=a[p] if into_a else None)
        elif p not in a:
            values = ufunc(0, b[p])
        else:
            values = ufunc(a[p], b[p], out=a[p] if into_a else None)
        if values.any():
            out[p] = values
    return out


def plus(a: Band, b: Band) -> Band:
    """a + b."""
    return _combine(np.add, a, b)


def minus(a: Band, b: Band) -> Band:
    """a - b."""
    return _combine(np.subtract, a, b)


def scaled(a: Band, c: complex) -> Band:
    """a times the scalar ``c``, multiplied as scipy multiplies a matrix by
    ``complex(c)``."""
    c = complex(c)
    return band({p: x * c for p, x in a.items()})


def adjoint(a: Band) -> Band:
    """The conjugate transpose: entry (i + p, i) is conj(a(i, i + p))."""
    out = {}
    for p, x in a.items():
        dim = len(x)
        out[-p] = np.zeros_like(x)
        np.conjugate(x[rows_of(p, dim)], out=out[-p][rows_of(-p, dim)])
    return out


def commutator(a: Band, b: Band) -> Band:
    """ab - ba."""
    return _combine(np.subtract, product(a, b), product(b, a), into_a=True)


def _stored(a: Band) -> np.ndarray:
    """The stored entries of ``a`` in row-major order."""
    if len(a) == 1:
        (values,) = a.values()
    elif a:
        values = np.stack([a[p] for p in sorted(a)], axis=1).ravel()
    else:
        return np.zeros(0, dtype=np.complex128)
    return values[values != 0]


def max_abs(a: Band) -> float:
    """Largest stored-entry magnitude of ``a`` (0 when it stores none)."""
    return float(np.max([np.max(np.abs(x)) for x in a.values()], initial=0.0))


def fro_norm(a: Band) -> float:
    """Frobenius norm over the stored entries of ``a``, summed in
    row-major order as over the ``data`` of its canonical matrix."""
    return _norm(_stored(a))


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

