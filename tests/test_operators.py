import dataclasses
import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import schwinger.operators as operators
from schwinger import annihilation, build_basis, build_set, casimir
from schwinger.fock import position
from schwinger.operators import creation, row_product

from conftest import dense_annihilation, dense_number, max_entry_diff
from oracles import (
    add,
    adjoint,
    band_of,
    canonical,
    commutator as algebra_commutator,
    csr_set,
    equal,
    from_entries,
    identical,
    identity,
    index_of,
    ladder,
    max_abs,
    multiply,
    row_indices,
    row_map_csr,
    scale,
    states,
    to_csr,
    triplet_annihilation,
    triplet_number_operator,
    zero,
)


def entry(op, i, j):
    return op.toarray()[i, j]


class TestLadder:
    def test_sqrt1_entry(self):
        basis = build_basis(1)
        a1 = ladder(basis, 1)
        assert entry(a1, index_of(basis, (0, 0)), index_of(basis, (1, 0))) == 1.0
        assert a1.nnz == 1

    def test_sqrt2_entry(self):
        basis = build_basis(2)
        a1 = ladder(basis, 1)
        got = entry(a1, index_of(basis, (1, 0)), index_of(basis, (2, 0)))
        assert got == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_mode2_entry(self):
        basis = build_basis(2)
        a2 = ladder(basis, 2)
        assert entry(a2, index_of(basis, (1, 0)), index_of(basis, (1, 1))) == 1.0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            annihilation(build_basis(1), 3)


class TestDirectBuilders:
    """The ladder operators, written as row maps, hold the matrices
    ``from_entries`` makes of their triplets, to the bit."""

    @pytest.mark.parametrize("mode", [1, 2])
    def test_match_triplets(self, mode):
        for n_max in range(41):
            basis = build_basis(n_max)
            cols, vals = annihilation(basis, mode)
            assert len(cols) == len(vals) == basis.size
            assert cols.dtype == np.int64 and vals.dtype == np.float64
            assert identical(ladder(basis, mode), triplet_annihilation(basis, mode)), n_max

    @pytest.mark.parametrize("mode", [1, 2])
    def test_creation_is_the_transpose(self, mode):
        # the mode operators are real: the transpose is the adjoint, and
        # the .conj() form differs only in the sign of each zero
        # imaginary part
        for n_max in range(41):
            basis = build_basis(n_max)
            raising = row_map_csr(creation(basis, mode))
            assert identical(raising, canonical(ladder(basis, mode).T.tocsr())), n_max

    def test_creation_bad_mode(self):
        with pytest.raises(ValueError):
            creation(build_basis(1), 0)


class TestRowProduct:
    """U = a1^dag a2 from the two row maps is scipy's product of the two
    triplet-built mode operators to the bit, one entry a row just right
    of the diagonal."""

    @staticmethod
    def assert_scipy_bits(n_max):
        basis = build_basis(n_max)
        cols, vals = row_product(creation(basis, 1), annihilation(basis, 2))
        a1, a2 = triplet_annihilation(basis, 1), triplet_annihilation(basis, 2)
        assert identical(row_map_csr((cols, vals)), canonical(a1.conj().T @ a2)), n_max
        stored = np.flatnonzero(vals)
        assert np.array_equal(cols[stored], stored + 1), n_max
        return vals

    def test_small_cutoffs(self):
        for n_max in range(41):
            self.assert_scipy_bits(n_max)

    @pytest.mark.parametrize("n_max", [500, 1000])
    def test_at_the_cap(self, n_max):
        # at hbar 2, J_x's offset 1 is U times 1.0
        vals = self.assert_scipy_bits(n_max)
        jx = build_set(build_basis(n_max), 2.0).jx
        assert jx[1].tobytes() == vals.astype(complex).tobytes()


class TestAdjoint:
    def test_creation_entry(self):
        basis = build_basis(1)
        a1d = adjoint(ladder(basis, 1))
        assert entry(a1d, index_of(basis, (1, 0)), index_of(basis, (0, 0))) == 1.0

    def test_involution(self):
        basis = build_basis(4)
        for op in (ladder(basis, 1), ladder(basis, 2),
                   triplet_number_operator(basis, 1)):
            assert equal(adjoint(adjoint(op)), op)

    def test_real_diagonal_self_adjoint(self):
        n1 = triplet_number_operator(build_basis(3), 1)
        assert equal(adjoint(n1), n1)

    def test_product_rule(self):
        basis = build_basis(4)
        a = ladder(basis, 1)
        b = adjoint(ladder(basis, 2))
        lhs = adjoint(multiply(a, b)).toarray()
        rhs = multiply(adjoint(b), adjoint(a)).toarray()
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestNumberOperator:
    """n_k is a_k^dag a_k, the ``row_product`` of the two row maps."""

    @staticmethod
    def number(basis, mode):
        return row_product(creation(basis, mode), annihilation(basis, mode))

    def test_diagonal_values(self):
        basis = build_basis(2)
        cols, vals = self.number(basis, 1)
        assert np.array_equal(cols[vals != 0], np.flatnonzero(vals))
        assert np.allclose(vals, [0, 1, 0, 2, 1, 0])

    def test_equals_adag_a(self):
        basis = build_basis(4)
        a1 = ladder(basis, 1)
        got = multiply(adjoint(a1), a1)
        oracle = dense_annihilation(basis, 1).conj().T @ dense_annihilation(basis, 1)
        assert max_entry_diff(oracle, got) < 1e-13
        assert max_entry_diff(oracle, row_map_csr(self.number(basis, 1))) < 1e-13

    def test_total_occupation_trace(self):
        basis = build_basis(2)
        total = add(row_map_csr(self.number(basis, 1)), row_map_csr(self.number(basis, 2)))
        assert np.trace(total.toarray()).real == pytest.approx(8.0)


class TestAlgebra:
    def test_identity_law(self):
        basis = build_basis(3)
        a1 = ladder(basis, 1)
        assert equal(multiply(identity(basis.size), a1), a1)
        assert equal(multiply(a1, identity(basis.size)), a1)

    def test_additive_inverse(self):
        a1 = ladder(build_basis(3), 1)
        diff = add(a1, scale(a1, -1.0))
        assert diff.nnz == 0
        assert equal(diff, zero(a1.shape[0]))

    def test_a_adag_interior_diagonal(self):
        basis = build_basis(4)
        a1 = ladder(basis, 1)
        prod = multiply(a1, adjoint(a1))
        pos = index_of(basis, (2, 1))
        # n1 + 1 with n1 = 2 on an interior state
        assert entry(prod, pos, pos) == pytest.approx(3.0, abs=1e-13)

    def test_scale_by_scalar(self):
        basis = build_basis(2)
        n1 = triplet_number_operator(basis, 1)
        assert np.allclose(scale(n1, 2j).toarray(), 2j * n1.toarray())

    def test_dimension_mismatch(self):
        a = ladder(build_basis(2), 1)
        b = ladder(build_basis(3), 1)
        for op in (multiply, add, algebra_commutator):
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(a, b)


class TestCommutator:
    def test_self_commutator(self):
        a1 = ladder(build_basis(3), 1)
        assert algebra_commutator(a1, a1).nnz == 0

    def test_canonical_below_top_shell(self):
        basis = build_basis(4)
        a1 = ladder(basis, 1)
        comm = algebra_commutator(a1, adjoint(a1)).toarray()
        for pos, pair in enumerate(states(basis)):
            if pair.total <= basis.n_max - 1:
                assert comm[pos, pos] == pytest.approx(1.0, abs=1e-13)
        # strictly off-diagonal entries vanish everywhere
        off = comm - np.diag(np.diag(comm))
        assert np.max(np.abs(off)) == 0.0

    def test_top_shell_deviation(self):
        # on the top shell the truncated creation operator annihilates, so
        # [a1, a1^dag] picks up -n1 instead of +1 there; assert it, never
        # hide it
        basis = build_basis(4)
        a1 = ladder(basis, 1)
        comm = algebra_commutator(a1, adjoint(a1)).toarray()
        for pos, (n1, n2) in enumerate(states(basis)):
            if n1 + n2 == basis.n_max:
                assert comm[pos, pos] == pytest.approx(-n1, abs=1e-13)

    def test_cross_mode_commutator_vanishes_below_top_shell(self):
        # [a1, a2^dag] = 0 column by column except on the top shell, where
        # the truncated a2^dag annihilates and leaves -a2^dag a1 behind
        basis = build_basis(4)
        a1 = ladder(basis, 1)
        a2 = ladder(basis, 2)
        comm = algebra_commutator(a1, adjoint(a2))
        totals = np.array([p.total for p in states(basis)])
        assert comm.nnz > 0
        assert np.all(totals[comm.indices] == basis.n_max)
        for row, col, val in zip(row_indices(comm), comm.indices, comm.data):
            n1, n2 = states(basis)[col]
            assert states(basis)[row] == (n1 - 1, n2 + 1)
            assert val == pytest.approx(-np.sqrt(n1 * (n2 + 1)), abs=1e-13)


# Gaussian integers in -4..4, whose products and sums are all exact
SMALL = st.builds(complex, st.integers(-4, 4), st.integers(-4, 4))
NON_FINITE = st.sampled_from([complex(np.nan, 0), complex(np.inf, 0),
                              complex(-np.inf, 1), complex(0, np.inf)])
# entries with a -0.0 part, whose sign can show in the bits
SIGNED_ZERO = st.sampled_from([complex(-0.0, 1), complex(2, -0.0), complex(-0.0, -3),
                               complex(-1, -0.0)])
VALUE = st.one_of(SMALL, SIGNED_ZERO)
# each drawn operand is scaled by a non-dyadic factor, so the order of a
# sum, a fused multiply-add or a dropped zero shows in the last bits
FACTORS = (0.1, 0.7)
# hbar 5e-324 underflows every entry of J_x, J_y, J_z and J to 0
HBARS = (0.1, 0.3, 1.0, 2.0, 1e-30, 1e30, 5e-324)
SCALARS = (-1.0, 0.5, 0.0, 1e-300, -1j, 0.3 - 0.7j)


def bits(x) -> bytes:
    return np.float64(x).tobytes()


def same_float(got: float, want: float) -> bool:
    """Equal to the bit, any two NaNs counting as equal."""
    return bits(got) == bits(want) or (math.isnan(got) and math.isnan(want))


def nan_parts_unsigned(m: sp.csr_matrix) -> sp.csr_matrix:
    """``m`` on the same index arrays, with every NaN real or imaginary
    part made the positive quiet NaN and its data as writeable as m's."""
    parts = m.data.view(np.float64).copy()
    parts[np.isnan(parts)] = np.nan
    out = sp.csr_matrix((parts.view(np.complex128), m.indices, m.indptr), shape=m.shape)
    out.data.flags.writeable = m.data.flags.writeable
    return out


def assert_band(b: dict, dim: int):
    """``b`` keeps the band invariant: one complex array of length dim per
    offset, none all zero, and 0 wherever (i, i + p) lies outside."""
    for p, values in b.items():
        assert values.dtype == np.complex128 and values.shape == (dim,)
        assert values.any(), p
        outside = np.ones(dim, dtype=bool)
        outside[operators.rows_of(p, dim)] = False
        assert not values[outside].any(), p


def assert_band_of(b: dict, want: sp.csr_matrix):
    """``b`` is a band whose canonical matrix is ``want`` to the bit: data,
    index dtypes and read-only flags, with only the sign of a NaN part
    free (when both terms of a sum are NaN, which one numpy's
    vectorized add passes on is its own choice, and no output shows a
    NaN's sign)."""
    dim = want.shape[0]
    assert_band(b, dim)
    assert identical(nan_parts_unsigned(to_csr(b, dim)), nan_parts_unsigned(want))


def from_scaled_entries(dim: int, entries, f: float) -> sp.csr_matrix:
    """The canonical matrix of the (row, col, value) ``entries`` with each
    value scaled by ``f`` part by part, which keeps the sign of a zero
    part."""
    entries = [(i, j, complex(v.real * f, v.imag * f)) for i, j, v in entries]
    return from_entries(dim, *zip(*entries)) if entries else zero(dim)


@st.composite
def set_operands(draw, count: int):
    """``count`` canonical matrices over the basis of an n_max in 0..40:
    J_x, J_y, J_z, J, J_x + J_y or nothing at an hbar of ``HBARS``, plus
    up to six ``VALUE`` entries near its band or anywhere and maybe one NaN
    or infinite entry, all scaled by a factor of ``FACTORS``."""
    basis = build_basis(draw(st.integers(0, 40)))
    dim = basis.size
    amset = csr_set(build_set(basis, draw(st.sampled_from(HBARS))))
    row = st.integers(0, dim - 1)
    offset = st.one_of(st.integers(-3, 3), st.integers(1 - dim, dim - 1))
    out = []
    for _ in range(count):
        f = draw(st.sampled_from(FACTORS))
        entries = [(i, (i + p) % dim, v)
                   for i, p, v in draw(st.lists(st.tuples(row, offset, VALUE), max_size=6))]
        if draw(st.booleans()):
            entries.append((draw(row), draw(row), draw(NON_FINITE)))
        m = from_scaled_entries(dim, entries, f)
        # J_x + J_y stores complex entries, whose products round through _times
        names = draw(st.sampled_from(["", "jx", "jy", "jz", "jtot", "jx jy"]))
        base = sum((getattr(amset, name) for name in names.split()), zero(dim))
        out.append(canonical(base * f + m))
    return out


# Each check holds a band operation, or a residual's form, to the bits of
# its scipy expression; NaN and inf are drawn on purpose, so none warns.
# A product takes only finite ``Frozen`` bands, so its checks read the
# finite part of each operand, after checking that ``frozen`` refuses
# the whole (``finite_operands``).

def check_round_trip(m):
    """``band_of`` and ``to_csr`` carry ``m`` to its band and back to the
    bit; the band stores offset 0 alone exactly when m is diagonal, and
    offset 0 is m's diagonal."""
    dim = m.shape[0]
    b = band_of(m)
    assert_band(b, dim)
    assert identical(to_csr(b, dim), m)
    assert (set(b) <= {0}) == np.array_equal(row_indices(m), m.indices)
    # diagonal() adds each entry to 0, so only a -0.0 part turns +0.0
    main = b.get(0, np.zeros(dim, dtype=complex))
    assert (main + 0).tobytes() == m.diagonal().tobytes()


def finite_operands(*ms) -> list:
    """``ms`` with their inf and NaN entries dropped.  ``frozen`` refuses
    the band of a matrix that stores one with OverflowError, and leaves
    its arrays writable."""
    out = []
    for m in ms:
        keep = np.isfinite(m.data)
        if not keep.all():
            b = band_of(m)
            with pytest.raises(OverflowError, match="non-finite"):
                operators.frozen(b)
            assert all(x.flags.writeable for x in b.values())
            m = from_entries(m.shape[0], row_indices(m)[keep], m.indices[keep], m.data[keep])
        out.append(m)
    return out


def frozen_bands(*ms) -> list:
    """The ``Frozen`` bands of the finite matrices ``ms``, the factors
    ``product`` takes."""
    return [operators.frozen(band_of(m)) for m in ms]


@np.errstate(all="ignore")
def check_product(a, b):
    """ab of the frozen bands of a's and b's finite parts, twice over the
    plainness ``frozen`` worked out once."""
    a, b = finite_operands(a, b)
    A, B = frozen_bands(a, b)
    want = canonical(a @ b)
    for _ in range(2):
        assert_band_of(operators.product(A, B), want)


@np.errstate(all="ignore")
def check_sums(a, b):
    assert_band_of(operators.plus(band_of(a), band_of(b)), canonical(a + b))
    assert_band_of(operators.minus(band_of(a), band_of(b)), canonical(a - b))


@np.errstate(all="ignore")
def check_scaled(a, c):
    assert_band_of(operators.scaled(band_of(a), c), canonical(a * complex(c)))


@np.errstate(all="ignore")
def check_adjoint(a):
    """The adjoint, and the battery's Hermiticity residual read from it."""
    b = band_of(a)
    assert_band_of(operators.adjoint(b), canonical(a.conj().T))
    got = operators.max_abs(operators.minus(b, operators.adjoint(b)))
    assert same_float(got, max_abs(a - a.conj().T))


@np.errstate(all="ignore")
def check_commutator(a, b):
    """[a, b] of a's and b's finite parts, and its largest entry, the
    battery's residual of it."""
    a, b = finite_operands(a, b)
    got, want = operators.commutator(*frozen_bands(a, b)), canonical(a @ b - b @ a)
    assert_band_of(got, want)
    assert same_float(operators.max_abs(got), max_abs(want))


# rows per window of the windowed ``max_abs`` check
NORM_WINDOW = 7


@np.errstate(all="ignore")
def check_norms(a):
    """The ``max_abs`` of the band of the canonical matrix ``a``, and of
    each window of ``NORM_WINDOW`` rows (an offset may be all zero
    there): the largest magnitude among a's stored entries of those
    rows, to the bit."""
    b = band_of(a)
    assert same_float(operators.max_abs(b), max_abs(a))
    for r0 in range(0, a.shape[0], NORM_WINDOW):
        rows = slice(r0, r0 + NORM_WINDOW)
        got = operators.max_abs(operators.window(b, rows))
        assert same_float(got, max_abs(a[rows])), rows


@np.errstate(all="ignore")
def check_commutator_plus_term(a, b, c, s):
    """The largest entry of ``plus(commutator(a, b), scaled(c, s))``, the
    form of the su(2) residuals, and of ``c * -s - [a, b]`` is that of
    scipy's ``(ab - ba) + c * s``, with a's and b's finite parts."""
    a, b = finite_operands(a, b)
    ab = operators.commutator(*frozen_bands(a, b))
    got = operators.max_abs(operators.plus(ab, operators.scaled(band_of(c), s)))
    flipped = operators.max_abs(operators.minus(operators.scaled(band_of(c), -s), ab))
    want = max_abs(canonical(a @ b - b @ a + c * s))
    assert same_float(got, want) and same_float(flipped, want)


@np.errstate(all="ignore")
def check_square_sum(a, b, c):
    """``plus(plus(product(a, a), product(b, b)), product(c, c))``, the form
    of J^2, is scipy's ``a @ a + b @ b + c @ c``, with the finite parts."""
    a, b, c = finite_operands(a, b, c)
    a_, b_, c_ = frozen_bands(a, b, c)
    got = operators.plus(operators.plus(operators.product(a_, a_), operators.product(b_, b_)),
                         operators.product(c_, c_))
    assert_band_of(got, canonical(a @ a + b @ b + c @ c))


@np.errstate(all="ignore")
def check_quadratic(c, t, s):
    """The battery's two groupings of J^2 - J J - hbar J are scipy's
    ``max_abs(c - (t @ t + t * s))`` and ``max_abs((c - t @ t) - t * s)``,
    with t's finite part."""
    t, = finite_operands(t)
    cb, tb = band_of(c), operators.frozen(band_of(t))
    tt, ts = operators.product(tb, tb), operators.scaled(tb, s)
    got = (operators.max_abs(operators.minus(cb, operators.plus(tt, ts))),
           operators.max_abs(operators.minus(operators.minus(cb, tt), ts)))
    tt, ts = t @ t, t * s
    assert all(map(same_float, got, (max_abs(c - (tt + ts)), max_abs((c - tt) - ts))))


# window sizes of the windowed operations; 10**6 rows cover every basis drawn
WINDOW_SIZES = (1, 2, 3, 7, 64, 10**6)


@np.errstate(all="ignore")
def check_windows(a, b, r0: int):
    """``adjoint`` of a, and ``product`` and ``commutator`` of the frozen
    bands of a's and b's finite parts, are scipy's, and over rows
    r0:r0 + size they are those rows of the whole result bit for bit,
    for every size of ``WINDOW_SIZES``, and over the last window of each
    size too."""
    dim = a.shape[0]
    fa, fb = finite_operands(a, b)
    A, B = frozen_bands(fa, fb)
    wholes = [(operators.product, (A, B), fa @ fb), (operators.product, (B, A), fb @ fa),
              (operators.adjoint, (band_of(a),), a.conj().T),
              (operators.commutator, (A, B), fa @ fb - fb @ fa)]
    for op, args, matrix in wholes:
        whole = op(*args)
        assert_band_of(whole, canonical(matrix))
        for size in WINDOW_SIZES:
            for start in (r0, max(0, dim - size)):
                rows = slice(start, start + size)
                got = op(*args, rows=rows)
                want = operators.band(operators.window(whole, rows))
                assert got.keys() == want.keys(), (op.__name__, rows)
                for p, values in got.items():
                    assert values.tobytes() == want[p].tobytes(), (op.__name__, rows, p)


def check_every_operation(ms):
    """Every operation on each of ``ms`` and on each ordered pair of them."""
    for a in ms:
        check_round_trip(a)
        check_norms(a)
        check_adjoint(a)
        for c in SCALARS:
            check_scaled(a, c)
    for a, b in itertools.product(ms, repeat=2):
        check_product(a, b)
        check_sums(a, b)
        check_commutator(a, b)


def complex_operands(seed: int) -> list:
    """A with 300 random complex entries and a diagonal D of 40: the
    non-dyadic complex entries on both sides show where numpy's complex
    multiply fuses a product into the sum, which scipy's does not, and
    A @ A sums many terms."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, 40, (2, 300))
    a = from_entries(40, rows, cols, rng.normal(size=300) + 1j * rng.normal(size=300))
    d = from_entries(40, range(40), range(40), rng.normal(size=40) + 1j * rng.normal(size=40))
    return [a, d]


def exact_zero_operands(seed: int) -> list:
    """A with 600 random complex entries and a diagonal D of 60 values in
    0.3, 0.6 and 0.9: the entries of [A, D] between rows of equal D are
    exact zeros, and past 8 values the norm's pairwise sum rounds
    otherwise with them kept (seeds 6 and 7 show it)."""
    rng = np.random.default_rng(seed)
    rows, cols = rng.integers(0, 60, (2, 600))
    a = from_entries(60, rows, cols, rng.normal(size=600) + 1j * rng.normal(size=600))
    d = from_entries(60, range(60), range(60), 0.3 * rng.integers(1, 4, 60))
    return [a, d]


def non_finite_operands(seed: int) -> list:
    """J_x + J_y at n_max 10, scaled by 0.7, with an inf or a NaN at two
    random entries on or near its band, among exact zeros; and a
    diagonal D of 0.3, 0.6, 0.9 or an exact 0.  ``frozen`` refuses J, and
    the products of its finite part meet D's exact zeros."""
    rng = np.random.default_rng(seed)
    amset = csr_set(build_set(build_basis(10), 1.0))
    dim = amset.jx.shape[0]
    rows = rng.integers(0, dim, 2)
    cols = np.clip(rows + rng.integers(-2, 3, 2), 0, dim - 1)
    bad = rng.choice([np.inf, -np.inf, np.nan, complex(0, np.inf)], 2)
    j = canonical((amset.jx + amset.jy) * 0.7 + from_entries(dim, rows, cols, bad))
    d = from_entries(dim, range(dim), range(dim), 0.3 * rng.integers(0, 4, dim))
    return [j, d]


def window_fact_operands(seed: int) -> list:
    """Two bands at n_max 10 whose windows' plainness is not their whole
    arrays': C stores real entries on and near its band up to row 40 and
    complex ones past it, so a window of the first 40 rows is plain while
    C is not; F stores complex entries, one of them an inf past row
    60, at every other place of C's pattern, so ``frozen`` refuses F and
    the products read its finite part."""
    rng = np.random.default_rng(seed)
    dim = build_basis(10).size
    rows = np.repeat(np.arange(dim), 3)
    cols = np.clip(rows + np.tile([-1, 0, 1], dim), 0, dim - 1)
    parts = 0.7 * rng.normal(size=(2, len(rows)))
    c = from_entries(dim, rows, cols, parts[0] + 1j * np.where(rows < 40, 0.0, parts[1]))
    rows, cols = rows[::2], cols[::2]
    values = 0.1 * rng.normal(size=len(rows)) + 0.3j * rng.normal(size=len(rows))
    values[rng.choice(np.flatnonzero(rows > 60))] = rng.choice([np.inf, complex(0, -np.inf)])
    return [c, from_entries(dim, rows, cols, values)]


def magnitude_operands() -> list:
    """Bands of 0, 1 and 3 offsets over 20 rows, with -0.0 parts,
    subnormal, inf and NaN entries; offset 9 of the last is stored in
    rows 0 and 2 alone (row 1 adds an exact zero), so it is all zero in
    every later window."""
    special = [complex(-0.0, 0.3), complex(0.7, -0.0), 5e-324, complex(-0.0, -5e-324),
               np.inf, complex(0, -np.inf), np.nan, complex(np.nan, 1), complex(np.inf, np.nan)]
    rng = np.random.default_rng(27)
    rows = np.arange(20)
    values = 0.1 * rng.normal(size=20) + 0.7j * rng.normal(size=20)
    values[::2] = special + [0.1]
    three = from_entries(20, [*rows, *rows[1:], 0, 1, 2], [*rows, *rows[1:] - 1, 9, 10, 11],
                         [*values, *values[::-1][1:], -0.3, complex(0, -0.0), np.nan])
    return [zero(20), from_entries(20, rows, rows, values), three]


class TestBandAlgebra:
    """Every band operation holds the bits of the scipy expression it
    stands for over the canonical matrices, exact cancellations and
    entries far off the band included, on drawn operands scaled by
    non-dyadic factors and on fixed ones.  NaN and inf entries are drawn
    too: ``frozen`` refuses them, so a product reads the finite part of
    its operands, and the other operations take them whole."""

    @settings(deadline=None)
    @given(set_operands(1))
    def test_to_csr_round_trip(self, ms):
        check_round_trip(*ms)

    @settings(deadline=None)
    @given(set_operands(2))
    def test_product(self, ms):
        check_product(*ms)

    @settings(deadline=None)
    @given(set_operands(2))
    def test_plus_and_minus(self, ms):
        check_sums(*ms)

    @settings(deadline=None)
    @given(set_operands(1), st.sampled_from(SCALARS))
    def test_scaled(self, ms, c):
        check_scaled(*ms, c)

    @settings(deadline=None)
    @given(set_operands(1))
    def test_adjoint(self, ms):
        check_adjoint(*ms)

    @settings(deadline=None)
    @given(set_operands(2))
    def test_commutator(self, ms):
        check_commutator(*ms)

    @settings(deadline=None)
    @given(set_operands(1))
    def test_norms(self, ms):
        check_norms(*ms)

    def test_norms_of_fixed_bands(self):
        for a in magnitude_operands():
            check_norms(a)

    @settings(deadline=None)
    @given(set_operands(3), st.sampled_from(SCALARS))
    def test_battery_forms(self, ms, s):
        a, b, c = ms
        check_commutator_plus_term(a, b, c, s)
        check_square_sum(a, b, c)
        check_quadratic(c, a, s)

    @settings(deadline=None)
    @given(set_operands(2), st.data())
    def test_windows(self, ms, data):
        check_windows(*ms, data.draw(st.integers(0, ms[0].shape[0] - 1)))

    @pytest.mark.parametrize("seed", range(4))
    def test_windows_of_fixed_operands(self, seed):
        for ms in (complex_operands(seed), exact_zero_operands(seed + 4),
                   non_finite_operands(seed), window_fact_operands(seed)):
            for a, b in itertools.permutations(ms):
                check_windows(a, b, 5 + 9 * seed)

    @pytest.mark.parametrize("n_max", [0, 126, 127, 200, 500, 1000])
    def test_shell_windows_tile_the_rows(self, monkeypatch, n_max):
        """``shell_windows`` from any first shell gives windows that start
        at that shell's first row and follow on one from the next.  Each
        holds consecutive whole shells, at most ``WINDOW_ROWS`` rows of
        them or one shell, and stops only where the next shell would pass
        that.  Together they cover every row from there exactly once."""
        size = build_basis(n_max).size
        for cap in (operators.WINDOW_ROWS, 64, 7, 1):
            monkeypatch.setattr(operators, "WINDOW_ROWS", cap)
            for first in sorted({0, 1, n_max // 2, n_max - 1, n_max} & set(range(n_max + 1))):
                windows = operators.shell_windows(n_max, first)
                assert [n for shells, _ in windows for n in shells] == list(range(first, n_max + 1))
                assert windows[0][1].start == position(first, 0)
                for shells, rows in windows:
                    assert isinstance(shells, range) and isinstance(rows, slice)
                    assert (rows.start, rows.stop) == (position(shells.start, 0),
                                                       position(shells.stop, 0))
                    assert rows.stop - rows.start <= cap or len(shells) == 1
                for (_, rows), (after, _) in zip(windows, windows[1:]):
                    assert rows.stop - rows.start + after.start + 1 > cap
                covered = np.concatenate([np.arange(size)[rows] for _, rows in windows])
                assert np.array_equal(covered, np.arange(position(first, 0), size))

    @pytest.mark.parametrize("seed", range(4))
    def test_non_finite_entries_among_zeros(self, seed):
        for a, b in itertools.product(non_finite_operands(seed), repeat=2):
            check_product(a, b)

    @np.errstate(all="ignore")
    def test_product_reads_what_a_band_holds_now(self):
        """A frozen band's array is made writable, changed and frozen
        again: the product is that of the band's contents after the
        change, its plainness worked out afresh.  Frozen again after an
        inf or a NaN is written, the band is refused, its arrays left
        writable."""
        amset = csr_set(build_set(build_basis(6), 1.0))
        a, b = canonical(amset.jx * 0.7), canonical(amset.jx * 0.3 + amset.jy * 0.1)
        A, B = frozen_bands(a, b)
        assert_band_of(operators.product(A, B), canonical(a @ b))
        A[1].flags.writeable = True
        # complex entries at rows where B stores entries and where it
        # stores none, in a real array
        A[1][2], A[1][3], A[1][5] = complex(0.3, 0.7), 0.9, complex(0, -0.1)
        got = to_csr(A, a.shape[0])
        A = operators.frozen(A)
        assert_band_of(operators.product(A, B), canonical(got @ b))
        for bad in (np.inf, np.nan):
            A[1].flags.writeable = True
            A[1][3] = bad
            with pytest.raises(OverflowError):
                operators.frozen(A)
            assert A[1].flags.writeable

    def test_frozen_facts_are_probed_once(self, monkeypatch):
        """``frozen`` probes each array of a band once, and products of the
        ``Frozen`` band it returns probe nothing."""
        amset = build_set(build_basis(6), 0.3)
        jx, jy = amset.jx, amset.jy
        probed = []
        probe = operators._plain
        monkeypatch.setattr(operators, "_plain", lambda x: probed.append(x) or probe(x))
        for _ in range(3):
            operators.product(jx, jy)
            operators.commutator(jy, jx)
        assert probed == []
        fresh = operators.frozen({p: x.copy() for p, x in jx.items()})
        assert [id(x) for x in probed] == [id(x) for x in fresh.values()]

    def test_products_take_frozen_factors_only(self):
        """``product`` and ``commutator`` raise TypeError on a band that did
        not pass through ``frozen``, on either side, writable or
        read-only, whole or windowed."""
        jx = build_set(build_basis(4), 0.3).jx
        for unfrozen in ({p: x.copy() for p, x in jx.items()}, dict(jx), {}):
            for op in (operators.product, operators.commutator):
                for args in ((unfrozen, jx), (jx, unfrozen)):
                    for rows in (slice(None), slice(2, 5)):
                        with pytest.raises(TypeError, match="Frozen"):
                            op(*args, rows=rows)

    @pytest.mark.parametrize("bad", [complex(np.nan, 0), complex(np.inf, 0),
                                     complex(-np.inf, 1), complex(0, np.inf),
                                     complex(0, np.nan)])
    def test_frozen_refuses_non_finite_entries(self, bad):
        """``frozen`` raises OverflowError on a band that stores inf or NaN in
        any of its arrays, and makes none of them read-only."""
        values = np.arange(1, 7, dtype=np.complex128)
        for at in (0, 5):
            band = {-1: values.copy(), 0: values.copy(), 2: values.copy()}
            band[0][at] = bad
            with pytest.raises(OverflowError, match="non-finite"):
                operators.frozen(band)
            assert all(x.flags.writeable for x in band.values())

    def test_empty_band(self):
        for dim in (0, 1, 6):
            assert identical(to_csr({}, dim), zero(dim))
        empty = operators.frozen({})
        assert operators.product(empty, empty) == operators.plus({}, {}) == {}
        assert operators.max_abs({}) == max_abs(zero(6)) == 0.0

    @pytest.mark.parametrize("seed", range(4))
    def test_complex_diagonal_rounds_as_products(self, seed):
        check_every_operation(complex_operands(seed))

    @pytest.mark.parametrize("seed", [6, 7])
    def test_exact_zeros_among_many_entries(self, seed):
        check_every_operation(exact_zero_operands(seed))


# The classes below group the fixed and drawn cases of each operation
# under the names their tests have long carried; every case runs the
# check functions above.

@st.composite
def near_diagonal_operands(draw, off_diagonal: tuple, non_finite: bool = False):
    """One canonical matrix per entry of ``off_diagonal``, all of one size
    in 1..7 and each scaled by a factor of ``FACTORS``: a diagonal of
    ``VALUE``s, up to that many ``VALUE`` entries off it and, with
    ``non_finite``, maybe one NaN or infinite entry."""
    dim = draw(st.integers(1, 7))
    index = st.integers(0, dim - 1)
    out = []
    for count in off_diagonal:
        entries = [(i, i, draw(VALUE)) for i in range(dim)]
        if dim > 1:
            shifted = st.tuples(index, st.integers(1, dim - 1), VALUE)
            entries += [(i, (i + shift) % dim, v)
                        for i, shift, v in draw(st.lists(shifted, max_size=count))]
        if non_finite and draw(st.booleans()):
            entries.append((draw(index), draw(index), draw(NON_FINITE)))
        out.append(from_scaled_entries(dim, entries, draw(st.sampled_from(FACTORS))))
    return out


@st.composite
def transpose_closed_operands(draw, count: int):
    """``count`` canonical matrices of one size in 1..7 on one drawn
    pattern that holds (j, i) with every (i, j), so their products store
    one pattern as J_x J_y and J_y J_x do; nonzero ``VALUE``s, each
    matrix scaled by a factor of ``FACTORS``."""
    dim = draw(st.integers(1, 7))
    index = st.integers(0, dim - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * dim))
    pattern = sorted({*pairs, *((j, i) for i, j in pairs)})
    values = st.lists(VALUE.filter(bool), min_size=len(pattern), max_size=len(pattern))
    return [from_scaled_entries(dim, [(i, j, v) for (i, j), v in zip(pattern, draw(values))],
                                draw(st.sampled_from(FACTORS)))
            for _ in range(count)]


def square_operands(off_diagonal: int, non_finite: bool = False):
    """Three near-diagonal operands, or three on one transposition-closed
    pattern, whose squares then store one pattern as J_x^2 and J_y^2 do."""
    return st.one_of(near_diagonal_operands((off_diagonal,) * 3, non_finite),
                     transpose_closed_operands(3))


def on_the_pattern(data, m: sp.csr_matrix) -> sp.csr_matrix:
    """Nonzero drawn ``VALUE``s, scaled by 0.3, on the pattern of ``m``."""
    values = data.draw(st.lists(VALUE.filter(bool), min_size=m.nnz, max_size=m.nnz))
    return from_scaled_entries(m.shape[0], zip(row_indices(m), m.indices, values), 0.3)


J_HBARS = (0.3, 1.0, 1e-30)


def angular_momentum_sets(hbar: float):
    """A clean set at n_max 6, and that set with an entry off J_x's band
    at (3, 8) or off J's diagonal at (3, 4)."""
    clean = build_set(build_basis(6), hbar)
    bump = np.where(np.arange(clean.basis.size) == 3, 1e-3 * hbar, 0j)
    return (clean, dataclasses.replace(clean, jx=operators.frozen({**clean.jx, 5: bump})),
            dataclasses.replace(clean, jtot=operators.frozen({**clean.jtot, 1: bump})))


def set_bands(amset) -> tuple:
    return amset.jx, amset.jy, amset.jz, amset.jtot, casimir(amset)


def angular_momentum_operands(hbar: float):
    """J_x, J_y, J_z, J and J^2 of each of ``angular_momentum_sets`` as
    matrices, as built and scaled by ``FACTORS``."""
    for amset in angular_momentum_sets(hbar):
        built = [to_csr(op, amset.basis.size) for op in set_bands(amset)]
        yield built
        yield [canonical(m * f) for m, f in zip(built, itertools.cycle(FACTORS))]


class TestIsDiagonal:
    """A band stores offset 0 alone exactly when its matrix stores no entry
    off the diagonal."""

    @pytest.mark.parametrize("rows, cols", [
        ([], []),
        ([0, 1, 2, 3], [0, 1, 2, 3]),
        ([1, 3], [1, 3]),
        ([1], [2]),                # one entry per row, off the diagonal
        ([0, 1, 2, 3], [0, 2, 1, 3]),
        ([2, 2], [2, 3]),          # two entries in one row
        ([0, 3], [0, 2]),
    ])
    def test_matches_entry_rows(self, rows, cols):
        check_round_trip(from_entries(4, rows, cols, np.ones(len(rows))))


class TestOperand:
    """``band_of`` and ``to_csr`` carry a canonical matrix to its band and
    back with every stored entry kept to the bit, signed zero parts
    included, and the band's offset 0 is the matrix's diagonal."""

    @settings(deadline=None)
    @given(near_diagonal_operands((2, 2), non_finite=True))
    def test_reads_diagonal_matrices_as_vectors(self, ms):
        for m in ms:
            check_round_trip(m)

    def test_angular_momentum_operators(self):
        for hbar in J_HBARS:
            for amset in angular_momentum_sets(hbar):
                for op in set_bands(amset):
                    back = band_of(to_csr(op, amset.basis.size))
                    assert [(p, x.tobytes()) for p, x in sorted(back.items())] \
                        == [(p, x.tobytes()) for p, x in sorted(op.items())]
            for ms in angular_momentum_operands(hbar):
                for m in ms:
                    check_round_trip(m)


class TestTransposeOrder:
    """``adjoint`` moves each entry of a band to its mirror, on any
    pattern, so the Hermiticity residual is read off the bands alone."""

    @settings(deadline=None)
    @given(st.one_of(near_diagonal_operands((21,)), transpose_closed_operands(1)))
    def test_matches_tocsc(self, ms):
        check_adjoint(*ms)

    def test_asymmetric_pattern_takes_the_difference_matrix(self):
        check_adjoint(from_entries(4, [0, 1, 1], [1, 0, 3], [1.0, 2j, -0.5]))

    def test_one_order_serves_jx_and_jy(self):
        for hbar in J_HBARS:
            for ms in angular_momentum_operands(hbar):
                for m in ms:
                    check_adjoint(m)
            clean = angular_momentum_sets(hbar)[0]
            for op in (clean.jx, clean.jy):
                mirrored = operators.adjoint(op)
                assert mirrored.keys() == op.keys()
                assert all(np.array_equal(mirrored[p], op[p]) for p in op)
            assert [operators.max_abs(operators.minus(op, operators.adjoint(op)))
                    for op in (clean.jx, clean.jy, clean.jz, clean.jtot)] == [0.0] * 4


class TestCommutatorRule:
    """``commutator`` holds the bits of scipy's ab - ba, whether ``b`` is
    diagonal or not; an operand with a NaN or inf entry is refused by
    ``frozen`` and its finite part taken."""

    @settings(deadline=None)
    @given(near_diagonal_operands((21, 0)))
    def test_diagonal(self, ms):
        check_commutator(*ms)

    @settings(deadline=None)
    @given(near_diagonal_operands((21, 3)))
    def test_few_off_diagonal_entries(self, ms):
        check_commutator(*ms)

    @settings(deadline=None)
    @given(near_diagonal_operands((21, 2), non_finite=True))
    def test_non_finite_entries_kept(self, ms):
        check_commutator(*ms)

    def test_angular_momentum_operands(self):
        # every product, sum and commutator of two of J_x, J_y, J_z, J, J^2
        for hbar in J_HBARS:
            for ms in angular_momentum_operands(hbar):
                for a, b in itertools.product(ms, repeat=2):
                    check_product(a, b)
                    check_sums(a, b)
                    check_commutator(a, b)


class TestCommutatorNorm:
    """``max_abs(commutator(d, a))`` is the largest entry of scipy's
    da - ad to the bit, the near-diagonal operand first."""

    @settings(deadline=None)
    @given(near_diagonal_operands((0, 21)))
    def test_diagonal(self, ms):
        check_commutator(*ms)

    @settings(deadline=None)
    @given(near_diagonal_operands((3, 21)))
    def test_few_off_diagonal_entries(self, ms):
        check_commutator(*ms)

    @settings(deadline=None)
    @given(near_diagonal_operands((2, 21), non_finite=True))
    def test_non_finite_entries(self, ms):
        check_commutator(*ms)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_zeros_among_many_entries(self, seed):
        a, d = exact_zero_operands(seed)
        check_commutator(d, a)
        check_commutator(a, d)

    def test_angular_momentum_operands(self):
        for hbar in J_HBARS:
            for ms in angular_momentum_operands(hbar):
                for m in ms:
                    check_norms(m)


class TestCommutatorPlusTerm:
    """The largest entry of ``plus(commutator(a, b), scaled(c, s))`` is that
    of scipy's ``(ab - ba) + c * s`` to the bit, whether ``c`` stores the
    commutator's pattern or not.  It also equals that of
    ``c * -s - [a, b]``, the other form of the same residual."""

    @settings(deadline=None)
    @given(near_diagonal_operands((21, 2), non_finite=True), st.sampled_from(SCALARS),
           st.data())
    def test_on_the_pattern(self, ms, s, data):
        a, b = ms
        with np.errstate(all="ignore"):
            c = on_the_pattern(data, canonical(a @ b - b @ a))
        check_commutator_plus_term(a, b, c, s)

    @settings(deadline=None)
    @given(near_diagonal_operands((21, 2, 21), non_finite=True), st.sampled_from(SCALARS))
    def test_off_the_pattern(self, ms, s):
        check_commutator_plus_term(*ms, s)

    @settings(deadline=None)
    @given(transpose_closed_operands(2), st.sampled_from(SCALARS), st.data())
    def test_products_on_one_pattern(self, ms, s, data):
        a, b = ms
        check_commutator_plus_term(a, b, on_the_pattern(data, canonical(a @ b - b @ a)), s)
        check_commutator_plus_term(a, b, a, s)

    @pytest.mark.parametrize("hbar", J_HBARS)
    def test_angular_momentum_operands(self, hbar):
        # the su(2) residuals, and every operand scaled
        for ms in angular_momentum_operands(hbar):
            jx, jy, jz = ms[:3]
            for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
                check_commutator_plus_term(a, b, c, -1j * hbar)
            for m in ms:
                for c in SCALARS:
                    check_scaled(m, c)


class TestSquareSum:
    """``plus(plus(product(a, a), product(b, b)), product(x, x))``, the form
    of J^2, is ``canonical(a @ a + b @ b + x @ x)`` to the bit: data,
    index dtypes and read-only flags, only the sign of a NaN part free."""

    @settings(deadline=None)
    @given(square_operands(0))
    def test_diagonal(self, ms):
        check_square_sum(*ms)

    @settings(deadline=None)
    @given(square_operands(2))
    def test_few_off_diagonal_entries(self, ms):
        check_square_sum(*ms)

    @settings(deadline=None)
    @given(square_operands(1, non_finite=True))
    def test_non_finite_entries(self, ms):
        check_square_sum(*ms)


class TestQuadraticResiduals:
    """The battery's two groupings of J^2 - J J - hbar J are
    ``max_abs(c - (t @ t + t * s))`` and ``max_abs((c - t @ t) - t * s)``
    of scipy to the bit."""

    @settings(deadline=None)
    @given(near_diagonal_operands((0, 0)), st.sampled_from(HBARS))
    def test_diagonal(self, ms, s):
        check_quadratic(*ms, s)

    @settings(deadline=None)
    @given(near_diagonal_operands((2, 2)), st.sampled_from(HBARS))
    def test_few_off_diagonal_entries(self, ms, s):
        check_quadratic(*ms, s)

    @settings(deadline=None)
    @given(near_diagonal_operands((1, 1), non_finite=True), st.sampled_from(HBARS))
    def test_non_finite_entries(self, ms, s):
        check_quadratic(*ms, s)

    @pytest.mark.parametrize("hbar", J_HBARS)
    def test_angular_momentum_operands(self, hbar):
        # J^2 as its square sum, and both groupings of J^2 - J J - hbar J
        for ms in angular_momentum_operands(hbar):
            jx, jy, jz, jt, cas = ms
            check_square_sum(jx, jy, jz)
            check_quadratic(cas, jt, hbar)


class TestCleanSetsAtTheCap:
    """J^2 and the residuals the battery takes of clean sets at n_max 500
    and at the 1000 cap, against scipy over their matrices."""

    @pytest.mark.parametrize("n_max", [500, 1000])
    def test_battery_operations(self, n_max):
        hbar = 0.3
        amset = build_set(build_basis(n_max), hbar)
        m, cas = csr_set(amset), casimir(amset)
        assert set(cas) == {0}
        assert_band_of(cas, canonical(m.jx @ m.jx + m.jy @ m.jy + m.jz @ m.jz))
        check_commutator_plus_term(m.jx, m.jy, m.jz, -1j * hbar)
        cas_m = to_csr(cas, amset.basis.size)
        for op in (m.jx, m.jz):
            check_commutator(cas_m, op)
        check_adjoint(m.jy)
        check_quadratic(cas_m, m.jtot, hbar)


class TestBlockConservation:
    def test_hop_operator_preserves_blocks(self):
        basis = build_basis(6)
        hop = multiply(adjoint(ladder(basis, 1)), ladder(basis, 2))
        totals = np.array([p.total for p in states(basis)])
        assert hop.nnz > 0
        assert np.array_equal(totals[row_indices(hop)], totals[hop.indices])


class TestCanonicalForm:
    def test_duplicates_merge(self):
        op = from_entries(2, [0, 0, 1], [1, 1, 0], [1.0, 2.0, 5.0])
        assert op.nnz == 2
        assert entry(op, 0, 1) == 3.0

    def test_small_entries_kept(self):
        op = from_entries(2, [0, 1], [0, 1], [1e-16, 1.0])
        assert op.nnz == 2
        assert entry(op, 0, 0) == 1e-16

    def test_non_finite_entries_kept(self):
        op = from_entries(3, [0, 1, 2], [0, 1, 2], [np.nan, np.inf, 0.0])
        assert op.nnz == 2
        assert np.isnan(entry(op, 0, 0)) and entry(op, 1, 1) == np.inf
        assert np.isnan(max_abs(op))

    def test_exact_cancellation_pruned(self):
        op = from_entries(2, [0, 0], [0, 0], [1.0, -1.0])
        assert op.nnz == 0

    def test_triplets_sorted_row_major(self):
        op = from_entries(3, [2, 0, 1, 0], [0, 2, 1, 0], [1, 2, 3, 4])
        assert list(row_indices(op)) == [0, 0, 1, 2]
        assert list(op.indices) == [0, 2, 1, 0]

    def test_out_of_range_triplet(self):
        with pytest.raises(ValueError):
            from_entries(2, [0], [2], [1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_max_abs_of_entries_whose_squares_overflow(self):
        def norm(*entries):
            m = from_entries(2, [0, 1][:len(entries)], [0, 1][:len(entries)], entries)
            got = operators.max_abs(band_of(m))
            assert same_float(got, max_abs(m))
            return got
        assert norm(3e200, 4e200) == 4e200
        assert norm(np.inf) == np.inf
        assert norm(3.0, 4.0) == 4.0

    def test_values_immutable(self):
        basis = build_basis(2)
        amset = build_set(basis, 1.0)
        arrays = [*annihilation(basis, 1), *creation(basis, 2)]
        for band in (amset.jx, amset.jy, amset.jz, amset.jtot):
            arrays += band.values()
        for arr in arrays:
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 1


class TestDenseOracle:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 5, 6])
    def test_entrywise_agreement(self, n_max):
        basis = build_basis(n_max)
        a1 = ladder(basis, 1)
        a2 = ladder(basis, 2)
        d1 = dense_annihilation(basis, 1)
        d2 = dense_annihilation(basis, 2)
        checks = [
            (d1, a1),
            (d2, a2),
            (d1.conj().T, adjoint(a1)),
            (dense_number(basis, 1), triplet_number_operator(basis, 1)),
            (d1.conj().T @ d2, multiply(adjoint(a1), a2)),
            (d1 + d2, add(a1, a2)),
            (2.5j * d1, scale(a1, 2.5j)),
            (d1 @ d2 - d2 @ d1, algebra_commutator(a1, a2)),
            (d1 @ d1.conj().T - d1.conj().T @ d1, algebra_commutator(a1, adjoint(a1))),
        ]
        for dense, sparse in checks:
            assert max_entry_diff(dense, sparse) < 1e-13
