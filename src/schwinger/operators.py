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
``product`` adds the terms of each output entry onto a zero in scipy's
column order, each term formed in one buffer and rounded as scipy's
sparse product rounds it, and forms a term only where both factors
store an entry, so NaN and inf spread as they do through scipy.
``plus`` and ``minus`` work elementwise over the union of the offsets,
``scaled`` multiplies as scipy's scalar product does, and ``adjoint``
conjugates and shifts.
``max_abs`` reads the largest magnitude among the stored entries.

``product`` takes two facts about every factor from its whole array:
whether every entry is real or every one imaginary (then numpy's
complex multiply rounds as scipy's product does) and whether every
entry is finite.  ``frozen`` works out the facts of a band's arrays as
it makes them read-only and returns the band to use, a ``Frozen`` band
holding them; ``product`` trusts them while an array stays read-only
and owns its data, and probes any other array whole on every call.
The reset that keeps a stored inf or NaN from meeting an unstored 0
runs exactly for the terms of a factor that stores a non-finite entry.
``commutator`` drops the all-zero offsets of its result once, in its
subtraction, not in each product.

``product``, ``adjoint`` and ``commutator`` evaluate their result over
one row window ``rows=slice(r0, r1)``, every row by default: a band
whose arrays have length r1 - r0, entry k holding the element
(r0 + k, r0 + k + p), read off the factors' whole arrays at the shifted
rows.  Its rows equal rows r0:r1 of the whole result bit for bit.
``row_windows`` cuts a basis into slices of ``WINDOW_ROWS`` rows, so
the temporaries of a long chain of operations stay small and are
reused, not faulted in afresh.
"""

from __future__ import annotations

import numpy as np

from .fock import FockBasis, position

# (cols, vals), as the module docstring says
RowMap = tuple
# offset -> complex array of length dim, as the module docstring says
Band = dict

# rows per window of ``row_windows``: a window's complex array is 128 KiB.
# ``cli._blocks`` reads the block table in groups of whole blocks of at
# most this many rows
WINDOW_ROWS = 8192


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


class Frozen(dict):
    """A band made by ``frozen``: its arrays read-only, and ``facts[p]`` the
    ``_facts`` of its array at offset p, worked out as it was made."""

    facts: dict


def frozen(a: Band) -> Frozen:
    """``a`` as a ``Frozen`` band, the one to use: its arrays made
    read-only and their facts worked out once, for ``product`` to trust
    while an array stays read-only and owns its data.  An array changed
    after ``frozen`` must pass through it again."""
    out = Frozen(a)
    out.facts = {}
    for p, values in out.items():
        values.flags.writeable = False
        out.facts[p] = _facts(values)
    return out


def rows_of(p: int, dim: int, rows: slice = slice(None)) -> slice:
    """The rows i whose entry (i, i + p) lies inside a dim x dim matrix
    and inside the row window ``rows``, every row by default (an empty
    slice when none does); ``rows_of(-p, dim)`` are those entries'
    columns."""
    r0, r1, _ = rows.indices(dim)
    start = max(r0, -p)
    return slice(start, max(start, min(r1, dim - p)))


def row_windows(dim: int) -> list:
    """Row windows of ``WINDOW_ROWS`` rows covering a dim x dim matrix in
    order, each a slice; the last may reach past row dim, which cuts it
    short, so a basis of at most ``WINDOW_ROWS`` rows is one window."""
    return [slice(r, r + WINDOW_ROWS) for r in range(0, dim, WINDOW_ROWS)]


def window(a: Band, rows: slice) -> Band:
    """Rows ``rows`` of the band ``a``, as views of its arrays.  An array
    may be all zero there; ``minus`` and ``max_abs`` read it as an
    unstored offset."""
    return {p: x[rows] for p, x in a.items()}


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


def _facts(x: np.ndarray) -> tuple[bool, bool]:
    """(plain, finite) of the whole array ``x``: ``_plain(x)``, and whether
    no entry is inf or NaN."""
    return _plain(x), bool(np.isfinite(x).all())


def _facts_in(a: Band, p: int) -> tuple[bool, bool]:
    """The ``_facts`` of ``a[p]``: those ``frozen`` kept when ``a`` is
    ``Frozen`` and the array is still read-only and owns its data, else
    probed now, as a writable array or a view may have changed."""
    x = a[p]
    if isinstance(a, Frozen) and not x.flags.writeable and x.base is None:
        return a.facts[p]
    return _facts(x)


def product(a: Band, b: Band, rows: slice = slice(None)) -> Band:
    """The band of the matrix product ab, over the row window ``rows``
    (every row by default).

    Entry (i, i + p + q) gathers the terms a(i, i + p) b(i + p, i + p + q)
    with p ascending, scipy's column order, onto a sum that starts from
    0.  A term is formed only where both factors store an entry: when
    the terms of one (p, q) do not sum to a finite value, those with an
    unstored factor are reset to 0, so a stored inf or NaN meets no
    unstored 0.  Every step is elementwise, so a window's entries do not
    depend on where the window lies.
    """
    return band(_product(a, b, rows))


def _product(a: Band, b: Band, rows: slice) -> dict:
    """``product`` with the offsets that are all zero kept.

    Every output offset starts as +0, and each term is formed in one
    buffer and added onto it: a sum that starts from +0 never reads -0,
    and the rows outside every term's range stay +0.  One shortcut keeps
    its bits: a factor's plainness and finiteness are those of its whole
    array (``_facts_in``), not of its window.  Every window of a plain
    array is plain; where the window of an array that is not plain is
    plain, ``_times`` runs in place of numpy's multiply, and both round as
    scipy does there.  The reset runs exactly when a factor stores an inf or a
    NaN anywhere: where both factors of a term are finite, an unstored
    factor makes the term a zero, and the reset could only turn a -0
    into +0, which a sum that starts from +0 cannot tell.
    """
    out = {}
    spare = None  # the term buffer
    for p, x in sorted(a.items()):
        r0, r1, _ = rows.indices(len(x))
        own = rows_of(p, len(x), rows)
        lo, hi = own.start, own.stop
        if lo == hi:
            continue
        xs = x[lo:hi]
        x_plain, x_finite = _facts_in(a, p)
        for q, y in b.items():
            ys = y[lo + p:hi + p]
            y_plain, y_finite = _facts_in(b, q)
            if p + q not in out:
                out[p + q] = np.zeros(r1 - r0, dtype=np.complex128)
            if spare is None:
                spare = np.empty(r1 - r0, dtype=np.complex128)
            term = spare[lo - r0:hi - r0]
            if x_plain or y_plain:
                np.multiply(xs, ys, out=term)
            else:
                _times(xs, ys, term)
            if not (x_finite and y_finite):
                term[(xs == 0) | (ys == 0)] = 0
            out[p + q][lo - r0:hi - r0] += term
    return out


def _combine(ufunc, a: Band, b: Band) -> Band:
    """``ufunc`` of a and b entry by entry over the union of their
    offsets, an unstored entry read as 0, as scipy combines two
    canonical matrices."""
    out = {}
    for p in a.keys() | b.keys():
        values = ufunc(a.get(p, 0), b.get(p, 0))
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


def adjoint(a: Band, rows: slice = slice(None)) -> Band:
    """The conjugate transpose over the row window ``rows`` (every row by
    default): entry (i + p, i) is conj(a(i, i + p))."""
    out = {}
    for p, x in a.items():
        r0, r1, _ = rows.indices(len(x))
        own = rows_of(-p, len(x), rows)
        lo, hi = own.start, own.stop
        if lo < hi:
            out[-p] = np.zeros(r1 - r0, dtype=np.complex128)
            np.conjugate(x[lo - p:hi - p], out=out[-p][lo - r0:hi - r0])
    return band(out)


def commutator(a: Band, b: Band, rows: slice = slice(None)) -> Band:
    """ab - ba, over the row window ``rows`` (every row by default).

    The products keep their offsets that are all zero, and the
    subtraction drops those of the difference: an all-zero offset of a
    product holds +0 in every entry (a sum that starts from +0 never
    reads -0), so subtracting it, or from it, gives the bits of
    subtracting 0 as the offset's absence does."""
    return minus(_product(a, b, rows), _product(b, a, rows))


def max_abs(a: Band) -> float:
    """Largest stored-entry magnitude of ``a`` (0 when it stores none)."""
    return float(np.max([np.max(np.abs(x)) for x in a.values()], initial=0.0))
