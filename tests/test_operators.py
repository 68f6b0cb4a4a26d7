import dataclasses
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import schwinger.operators as operators
from schwinger import annihilation, build_basis, build_set, casimir
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
    fro_norm,
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
        m = from_entries(4, rows, cols, np.ones(len(rows)))
        b = band_of(m)
        assert (set(b) <= {0}) == (not np.any(row_indices(m) != m.indices))
        assert identical(to_csr(b, 4), m)

    def test_angular_momentum_operators(self):
        amset = build_set(build_basis(7), 0.3)
        assert set(amset.jz) == set(amset.jtot) == set(casimir(amset)) == {0}
        assert set(amset.jx) == set(amset.jy) == {-1, 1}


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


# Gaussian integers in -4..4: every product and sum of them below is exact,
# so only a non-dyadic factor makes the order of a sum show in the bits
SMALL = st.builds(complex, st.integers(-4, 4), st.integers(-4, 4))
NON_FINITE = st.sampled_from([complex(np.nan, 0), complex(np.inf, 0),
                              complex(-np.inf, 1), complex(0, np.inf)])
# entries with a -0.0 part beside the Gaussian integers: every sum and
# product stays exact, but the sign of a zero part can show in the bits
SIGNED_ZERO = st.sampled_from([complex(-0.0, 1), complex(2, -0.0), complex(-0.0, -3),
                               complex(-1, -0.0)])
VALUE = st.one_of(SMALL, SIGNED_ZERO)
# the non-dyadic factors make products and sums round, so their order,
# a fused multiply-add or a dropped zero shows in the last bits
FACTORS = ((1.0, 1.0), (0.1, 0.7))
# hbar 5e-324 underflows every entry of J_x, J_y, J_z and J to 0
HBARS = (0.1, 0.3, 1.0, 2.0, 1e-30, 1e30, 5e-324)


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


@st.composite
def set_operands(draw, count: int):
    """``count`` canonical matrices over the basis of an n_max in 0..40:
    each J_x, J_y, J_z, J or nothing at an hbar of ``HBARS``, plus up to
    six ``VALUE`` entries, near its band or at any offset, and maybe one
    NaN or infinite entry."""
    basis = build_basis(draw(st.integers(0, 40)))
    dim = basis.size
    amset = csr_set(build_set(basis, draw(st.sampled_from(HBARS))))
    row = st.integers(0, dim - 1)
    offset = st.one_of(st.integers(-3, 3), st.integers(1 - dim, dim - 1))
    out = []
    for _ in range(count):
        entries = [(i, (i + p) % dim, v)
                   for i, p, v in draw(st.lists(st.tuples(row, offset, VALUE), max_size=6))]
        if draw(st.booleans()):
            entries.append((draw(row), draw(row), draw(NON_FINITE)))
        m = from_entries(dim, *zip(*entries)) if entries else zero(dim)
        base = draw(st.sampled_from([None, "jx", "jy", "jz", "jtot"]))
        out.append(canonical(getattr(amset, base) + m) if base else m)
    return out


class TestBandAlgebra:
    """Every band operation holds the bits of the scipy expression it
    stands for over the canonical matrices, NaN and inf entries, exact
    cancellations and entries far off the band included."""

    @settings(deadline=None)
    @given(set_operands(2))
    def test_product(self, ms):
        a, b = ms
        with np.errstate(all="ignore"):
            got = operators.product(band_of(a), band_of(b))
            want = canonical(a @ b)
        assert_band_of(got, want)

    @settings(deadline=None)
    @given(set_operands(2))
    def test_plus_and_minus(self, ms):
        a, b = ms
        with np.errstate(all="ignore"):
            assert_band_of(operators.plus(band_of(a), band_of(b)), canonical(a + b))
            assert_band_of(operators.minus(band_of(a), band_of(b)), canonical(a - b))

    @settings(deadline=None)
    @given(set_operands(1), st.sampled_from([-1.0, 0.5, 0.0, 1e-300, -1j, 0.3 - 0.7j]))
    def test_scaled(self, ms, c):
        (a,) = ms
        with np.errstate(all="ignore"):
            assert_band_of(operators.scaled(band_of(a), c), canonical(a * complex(c)))

    @settings(deadline=None)
    @given(set_operands(1))
    def test_adjoint(self, ms):
        (a,) = ms
        assert_band_of(operators.adjoint(band_of(a)), canonical(a.conj().T))

    @settings(deadline=None)
    @given(set_operands(2))
    def test_commutator(self, ms):
        a, b = ms
        with np.errstate(all="ignore"):
            got = operators.commutator(band_of(a), band_of(b))
            want = canonical(a @ b - b @ a)
        assert_band_of(got, want)

    @settings(deadline=None)
    @given(set_operands(1))
    def test_norms(self, ms):
        (a,) = ms
        for f in (1.0, 0.1):
            with np.errstate(all="ignore"):
                m = canonical(a * f)
                assert same_float(operators.fro_norm(band_of(m)), fro_norm(m.copy()))
                assert same_float(operators.max_abs(band_of(m)), max_abs(m))

    @settings(deadline=None)
    @given(set_operands(1))
    def test_to_csr_round_trip(self, ms):
        (a,) = ms
        assert_band(band_of(a), a.shape[0])
        assert identical(to_csr(band_of(a), a.shape[0]), a)

    def test_empty_band(self):
        for dim in (0, 1, 6):
            assert identical(to_csr({}, dim), zero(dim))
        assert operators.product({}, {}) == operators.plus({}, {}) == {}
        assert operators.fro_norm({}) == operators.max_abs({}) == 0.0


class TestCleanSetsAtTheCap:
    """The products, sums and norms the battery takes of clean sets at
    n_max 500 and at the 1000 cap, against scipy over their matrices."""

    @pytest.mark.parametrize("n_max", [500, 1000])
    def test_battery_operations(self, n_max):
        hbar = 0.3
        amset = build_set(build_basis(n_max), hbar)
        m = csr_set(amset)
        jx, jy, jz, jt = amset.jx, amset.jy, amset.jz, amset.jtot
        cas = casimir(amset)
        cas_m = canonical(m.jx @ m.jx + m.jy @ m.jy + m.jz @ m.jz)
        assert_band_of(cas, cas_m)
        assert set(cas) == {0}
        got = operators.fro_norm(operators.plus(operators.commutator(jx, jy),
                                                operators.scaled(jz, -1j * hbar)))
        want = fro_norm(canonical(m.jx @ m.jy - m.jy @ m.jx + m.jz * (-1j * hbar)))
        assert bits(got) == bits(want)
        for op, op_m in ((jx, m.jx), (jz, m.jz)):
            got = operators.fro_norm(operators.commutator(cas, op))
            assert bits(got) == bits(fro_norm(canonical(cas_m @ op_m - op_m @ cas_m)))
        got = operators.max_abs(operators.minus(jy, operators.adjoint(jy)))
        assert bits(got) == bits(max_abs(m.jy - m.jy.conj().T))
        quantum = operators.minus(cas, operators.plus(operators.product(jt, jt),
                                                      operators.scaled(jt, hbar)))
        assert bits(operators.max_abs(quantum)) == bits(max_abs(cas_m - (m.jtot @ m.jtot
                                                                        + m.jtot * hbar)))


@st.composite
def near_diagonal(draw, dim: int, off_diagonal: int, non_finite: bool):
    """A canonical dim x dim matrix with a random diagonal of ``VALUE``s,
    up to ``off_diagonal`` entries off it and, with ``non_finite``, maybe
    one NaN or infinite entry."""
    index = st.integers(0, dim - 1)
    entries = [(i, i, draw(VALUE)) for i in range(dim)]
    if dim > 1:
        shifted = st.tuples(index, st.integers(1, dim - 1), VALUE)
        entries += [(i, (i + shift) % dim, v)
                    for i, shift, v in draw(st.lists(shifted, max_size=off_diagonal))]
    if non_finite and draw(st.booleans()):
        entries.append((draw(index), draw(index), draw(NON_FINITE)))
    return from_entries(dim, *zip(*entries))


@st.composite
def near_diagonal_pair(draw, off_diagonal: int, non_finite: bool):
    dim = draw(st.integers(1, 7))
    return tuple(draw(near_diagonal(dim, off_diagonal, non_finite)) for _ in range(2))


class TestOperand:
    """``band_of`` and ``to_csr`` carry a canonical matrix to its band and
    back with every stored entry kept to the bit, signed zero parts
    included, and the band's offset 0 is the matrix's diagonal."""

    @settings(deadline=None)
    @given(near_diagonal_pair(off_diagonal=2, non_finite=True))
    def test_reads_diagonal_matrices_as_vectors(self, pair):
        for m in pair:
            b = band_of(m)
            assert identical(to_csr(b, m.shape[0]), m)
            # diagonal() adds each entry to 0, so only a -0.0 part turns +0.0
            main = b.get(0, np.zeros(m.shape[0], dtype=complex))
            assert (main + 0).tobytes() == m.diagonal().tobytes()

    def test_angular_momentum_operators(self):
        amset = build_set(build_basis(6), 0.3)
        for op in (amset.jx, amset.jy, amset.jz, amset.jtot):
            back = band_of(to_csr(op, amset.basis.size))
            assert back.keys() == op.keys()
            assert all(back[p].tobytes() == op[p].tobytes() for p in op)


@st.composite
def random_pattern(draw):
    """A canonical matrix of distinct nonzero entries on a random
    pattern, closed under transposition half the time."""
    dim = draw(st.integers(1, 9))
    index = st.integers(0, dim - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=3 * dim))
    if draw(st.booleans()):
        pairs += [(j, i) for i, j in pairs]
    pairs = sorted(set(pairs))
    rows, cols = zip(*pairs) if pairs else ((), ())
    return from_entries(dim, rows, cols, np.arange(1, len(pairs) + 1) * (1 - 0.5j))


def hermiticity(op: dict) -> float:
    """The battery's Hermiticity residual of a band."""
    return operators.max_abs(operators.minus(op, operators.adjoint(op)))


class TestTransposeOrder:
    """``adjoint`` moves each entry of a band to its mirror, on any
    pattern, so the Hermiticity residual is read off the bands alone."""

    @settings(deadline=None)
    @given(random_pattern())
    def test_matches_tocsc(self, m):
        assert_band_of(operators.adjoint(band_of(m)), canonical(m.conj().T))
        assert bits(hermiticity(band_of(m))) == bits(max_abs(m - m.conj().T))

    def test_asymmetric_pattern_takes_the_difference_matrix(self):
        m = from_entries(4, [0, 1, 1], [1, 0, 3], [1.0, 2j, -0.5])
        assert bits(hermiticity(band_of(m))) == bits(max_abs(m - m.conj().T))

    def test_one_order_serves_jx_and_jy(self):
        amset = build_set(build_basis(6), 0.3)
        for op in (amset.jx, amset.jy):
            mirrored = operators.adjoint(op)
            assert mirrored.keys() == op.keys()
            assert all(np.array_equal(mirrored[p], op[p]) for p in op)
        assert [hermiticity(op) for op in (amset.jx, amset.jy, amset.jz, amset.jtot)] \
            == [0.0] * 4


@st.composite
def split_operands(draw, off_diagonal: int, non_finite: bool):
    """(A, D): a random sparse A and a D with a random diagonal, up to
    ``off_diagonal`` entries off it, and with ``non_finite`` one entry of
    D, on or off its diagonal, NaN or infinite."""
    dim = draw(st.integers(1, 7))
    index = st.integers(0, dim - 1)
    a = draw(st.lists(st.tuples(index, index, SMALL), max_size=3 * dim))
    d = [(i, i, draw(SMALL)) for i in range(dim)]
    if dim > 1:
        shifted = st.tuples(index, st.integers(1, dim - 1), SMALL)
        d += [(i, (i + shift) % dim, v)
              for i, shift, v in draw(st.lists(shifted, max_size=off_diagonal))]
    if non_finite:
        d.append((draw(index), draw(index), draw(NON_FINITE)))
    return tuple(from_entries(dim, *zip(*entries)) if entries else zero(dim)
                 for entries in (a, d))


def scipy_commutator(a, b):
    """[a, b] as scipy's sum of its products, canonical."""
    return canonical(a @ b - b @ a)


class TestCommutatorRule:
    """``commutator`` holds the bits of scipy's ab - ba, whether ``b`` is
    diagonal or not, NaN and inf entries included."""

    @staticmethod
    def assert_matches(a, d):
        for fa, fd in FACTORS:
            with np.errstate(invalid="ignore", over="ignore"):
                got = operators.commutator(band_of(a * fa), band_of(d * fd))
                want = scipy_commutator(canonical(a * fa), canonical(d * fd))
            assert_band_of(got, want)

    @settings(deadline=None)
    @given(split_operands(off_diagonal=0, non_finite=False))
    def test_diagonal(self, operands):
        self.assert_matches(*operands)

    @settings(deadline=None)
    @given(split_operands(off_diagonal=3, non_finite=False))
    def test_few_off_diagonal_entries(self, operands):
        self.assert_matches(*operands)

    @settings(deadline=None)
    @given(split_operands(off_diagonal=2, non_finite=True))
    def test_non_finite_entries_kept(self, operands):
        self.assert_matches(*operands)

    @pytest.mark.parametrize("seed", range(4))
    def test_complex_diagonal_rounds_as_products(self, seed):
        # non-dyadic complex entries on both sides: numpy's complex
        # multiply may fuse a product into the sum, scipy's does not
        rng = np.random.default_rng(seed)
        dim = 40
        rows, cols = rng.integers(0, dim, (2, 300))
        a = from_entries(dim, rows, cols, rng.normal(size=300) + 1j * rng.normal(size=300))
        idx = np.arange(dim)
        d = from_entries(dim, idx, idx, rng.normal(size=dim) + 1j * rng.normal(size=dim))
        self.assert_matches(a, d)
        self.assert_matches(d, a)

    def test_angular_momentum_operands(self):
        amset = build_set(build_basis(6), 0.3)
        m, cas = csr_set(amset), to_csr(casimir(amset), amset.basis.size)
        for op in (m.jx, m.jy, m.jz):
            for d in (cas, m.jtot, m.jy):
                self.assert_matches(op, d)


class TestCommutatorNorm:
    """``fro_norm(commutator(a, d))`` is the norm of scipy's ab - ba to the
    bit: the stored entries, exact zeros dropped, in row-major order."""

    @staticmethod
    def assert_same_bits(a, d):
        # the non-dyadic factors make the sum of squares round, so its
        # order and the dropped zeros show in the last bits
        for fa, fd in FACTORS:
            with np.errstate(invalid="ignore", over="ignore"):
                got = operators.fro_norm(operators.commutator(band_of(a * fa), band_of(d * fd)))
                want = fro_norm(scipy_commutator(canonical(a * fa), canonical(d * fd)))
            assert same_float(got, want)

    @settings(deadline=None)
    @given(split_operands(off_diagonal=0, non_finite=False))
    def test_diagonal(self, operands):
        self.assert_same_bits(*operands)

    @settings(deadline=None)
    @given(split_operands(off_diagonal=3, non_finite=False))
    def test_few_off_diagonal_entries(self, operands):
        self.assert_same_bits(*operands)

    @settings(deadline=None)
    @given(split_operands(off_diagonal=2, non_finite=True))
    def test_non_finite_entries(self, operands):
        self.assert_same_bits(*operands)

    @pytest.mark.parametrize("seed", range(8))
    def test_exact_zeros_among_many_entries(self, seed):
        # entries between rows of equal delta give exact zeros; past 8
        # values the pairwise sum rounds differently with them kept
        # (seeds 6 and 7 show it)
        rng = np.random.default_rng(seed)
        dim = 60
        rows, cols = rng.integers(0, dim, (2, 600))
        vals = rng.normal(size=600) + 1j * rng.normal(size=600)
        a = from_entries(dim, rows, cols, vals)
        idx = np.arange(dim)
        d = from_entries(dim, idx, idx, 0.3 * rng.integers(1, 4, dim))
        self.assert_same_bits(a, d)

    def test_angular_momentum_operands(self):
        amset = build_set(build_basis(9), 0.3)
        m, cas = csr_set(amset), to_csr(casimir(amset), amset.basis.size)
        for op in (m.jx, m.jy, m.jz):
            for d in (cas, m.jtot, m.jy):
                self.assert_same_bits(op, d)


@st.composite
def shared_pattern_operands(draw, dim: int | None = None):
    """(A, B) on one pattern that holds (j, i) with every (i, j), so AB
    and BA store the same pattern, as J_x J_y and J_y J_x do."""
    dim = dim or draw(st.integers(1, 7))
    index = st.integers(0, dim - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=2 * dim))
    rows, cols = zip(*{*pairs, *((j, i) for i, j in pairs)}) if pairs else ((), ())
    return tuple(from_entries(dim, rows, cols,
                              draw(st.lists(VALUE.filter(bool), min_size=len(rows),
                                            max_size=len(rows))))
                 for _ in range(2))


class TestCommutatorPlusTerm:
    """The norm of ``plus(commutator(a, b), scaled(c, s))`` is the norm of
    scipy's ``(ab - ba) + c * s`` to the bit, whether ``c`` stores the
    commutator's pattern or not.  It also equals the norm of
    ``c * -s - [a, b]``, the other form of the same residual."""

    @staticmethod
    def assert_same_bits(a, b, c):
        for (fa, fb), s in zip(FACTORS, (-1j, 0.3 - 0.7j)):
            with np.errstate(invalid="ignore", over="ignore"):
                a_, b_, c_ = canonical(a * fa), canonical(b * fb), canonical(c * 0.3)
                ab = operators.commutator(band_of(a_), band_of(b_))
                got = operators.fro_norm(operators.plus(ab, operators.scaled(band_of(c_), s)))
                flipped = operators.fro_norm(operators.minus(operators.scaled(band_of(c_), -s),
                                                             ab))
                want = fro_norm(canonical(a_ @ b_ - b_ @ a_ + c_ * s))
            assert same_float(got, want) and same_float(flipped, want)

    @staticmethod
    def pattern(a, b):
        """The index arrays of scipy's commutator."""
        return scipy_commutator(a, b)

    @settings(deadline=None)
    @given(split_operands(off_diagonal=2, non_finite=True), st.data())
    def test_on_the_pattern(self, operands, data):
        a, b = operands
        with np.errstate(invalid="ignore"):
            p = self.pattern(a, b)
        values = data.draw(st.lists(VALUE.filter(bool), min_size=p.nnz, max_size=p.nnz))
        c = canonical(sp.csr_matrix((np.array(values, dtype=complex), p.indices.copy(),
                                     p.indptr.copy()), shape=p.shape))
        self.assert_same_bits(a, b, c)

    @settings(deadline=None)
    @given(split_operands(off_diagonal=2, non_finite=True), st.data())
    def test_off_the_pattern(self, operands, data):
        a, b = operands
        dim = a.shape[0]
        entries = data.draw(st.lists(st.tuples(st.integers(0, dim - 1), st.integers(0, dim - 1),
                                               VALUE), max_size=3 * dim))
        c = from_entries(dim, *zip(*entries)) if entries else zero(dim)
        self.assert_same_bits(a, b, c)

    @settings(deadline=None)
    @given(shared_pattern_operands(), st.data())
    def test_products_on_one_pattern(self, operands, data):
        a, b = operands
        p = self.pattern(a, b)
        values = data.draw(st.lists(VALUE.filter(bool), min_size=p.nnz, max_size=p.nnz))
        on = canonical(sp.csr_matrix((np.array(values, dtype=complex), p.indices.copy(),
                                      p.indptr.copy()), shape=p.shape))
        self.assert_same_bits(a, b, on)
        self.assert_same_bits(a, b, a)

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 1e-30])
    def test_angular_momentum_operands(self, hbar):
        m = csr_set(build_set(build_basis(9), hbar))
        jx, jy, jz = m.jx, m.jy, m.jz
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jz, jx, jy)):
            self.assert_same_bits(a, b, c)
        # an entry far off J_x's band
        bad = canonical(jx + from_entries(jx.shape[0], [0], [5], [1e-3]))
        self.assert_same_bits(jy, jz, bad)
        self.assert_same_bits(bad, jz, jy)


@st.composite
def square_operands(draw, off_diagonal: int, non_finite: bool):
    """(A, B, X) of one size: A and B either on one pattern that holds
    (j, i) with every (i, j), so A A and B B store the same pattern as
    J_x J_x and J_y J_y do, or drawn like X as ``near_diagonal``."""
    dim = draw(st.integers(1, 7))
    x = draw(near_diagonal(dim, off_diagonal, non_finite))
    if draw(st.booleans()):
        a, b = draw(shared_pattern_operands(dim))
    else:
        a, b = (draw(near_diagonal(dim, off_diagonal, non_finite)) for _ in range(2))
    return a, b, x


class TestSquareSum:
    """``plus(plus(product(a, a), product(b, b)), product(x, x))``, the form
    of J^2, is ``canonical(a @ a + b @ b + x @ x)`` to the bit: data,
    index dtypes and read-only flags, only the sign of a NaN part free."""

    @staticmethod
    def assert_identical(a, b, x):
        for fa, fx in FACTORS:
            with np.errstate(invalid="ignore", over="ignore"):
                a_, b_, x_ = (band_of(canonical(m * f)) for m, f in ((a, fa), (b, fa), (x, fx)))
                got = operators.plus(operators.plus(operators.product(a_, a_),
                                                    operators.product(b_, b_)),
                                     operators.product(x_, x_))
                a_, b_, x_ = a * fa, b * fa, x * fx
                want = canonical(a_ @ a_ + b_ @ b_ + x_ @ x_)
            assert_band_of(got, want)

    @settings(deadline=None)
    @given(square_operands(off_diagonal=0, non_finite=False))
    def test_diagonal(self, operands):
        self.assert_identical(*operands)

    @settings(deadline=None)
    @given(square_operands(off_diagonal=2, non_finite=False))
    def test_few_off_diagonal_entries(self, operands):
        self.assert_identical(*operands)

    @settings(deadline=None)
    @given(square_operands(off_diagonal=1, non_finite=True))
    def test_non_finite_entries(self, operands):
        self.assert_identical(*operands)

    def test_entries_cancelling_off_the_diagonal(self):
        # J_x^2 and J_y^2 store offsets -2, 0 and 2, and cancel at -2 and
        # 2: only their sum is diagonal
        amset = build_set(build_basis(5), 0.3)
        assert set(operators.product(amset.jx, amset.jx)) == {-2, 0, 2}
        assert set(casimir(amset)) == {0}
        m = csr_set(amset)
        self.assert_identical(m.jx, m.jy, m.jz)

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 2.0, 1e-30])
    def test_casimir_bits(self, hbar):
        # J^2 holds the bits of the one scipy expression, clean or with an
        # entry off J_z's diagonal, off J_x's band or on it
        for n_max in (0, 1, 2, 7, 23, 40):
            amset = build_set(build_basis(n_max), hbar)
            sets = [amset]
            if n_max >= 2:
                for name, row, col in (("jz", 1, 2), ("jx", 0, 5), ("jx", 1, 2)):
                    bump = np.zeros(amset.basis.size, dtype=complex)
                    bump[row] = 1e-3 * hbar
                    bumped = operators.plus(getattr(amset, name), {col - row: bump})
                    sets.append(dataclasses.replace(amset, **{name: bumped}))
            for s in sets:
                m = csr_set(s)
                want = canonical(m.jx @ m.jx + m.jy @ m.jy + m.jz @ m.jz)
                assert identical(to_csr(casimir(s), s.basis.size), want), n_max


class TestQuadraticResiduals:
    """The battery's two groupings of J^2 - J J - hbar J are
    ``max_abs(c - (t @ t + t * s))`` and ``max_abs((c - t @ t) - t * s)``
    of scipy to the bit."""

    @staticmethod
    def assert_same_bits(c, t):
        for (fc, ft), s in zip(FACTORS, (1.0, 0.3)):
            with np.errstate(invalid="ignore", over="ignore"):
                c_, t_ = canonical(c * fc), canonical(t * ft)
                cb, tb = band_of(c_), band_of(t_)
                tt, ts = operators.product(tb, tb), operators.scaled(tb, s)
                got = (operators.max_abs(operators.minus(cb, operators.plus(tt, ts))),
                       operators.max_abs(operators.minus(operators.minus(cb, tt), ts)))
                tt, ts = t_ @ t_, t_ * s
                want = (max_abs(c_ - (tt + ts)), max_abs((c_ - tt) - ts))
            assert all(map(same_float, got, want))

    @settings(deadline=None)
    @given(near_diagonal_pair(off_diagonal=0, non_finite=False))
    def test_diagonal(self, pair):
        self.assert_same_bits(*pair)

    @settings(deadline=None)
    @given(near_diagonal_pair(off_diagonal=2, non_finite=False))
    def test_few_off_diagonal_entries(self, pair):
        self.assert_same_bits(*pair)

    @settings(deadline=None)
    @given(near_diagonal_pair(off_diagonal=1, non_finite=True))
    def test_non_finite_entries(self, pair):
        self.assert_same_bits(*pair)

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 1e-30])
    def test_angular_momentum_operands(self, hbar):
        amset = build_set(build_basis(9), hbar)
        cas, jt = to_csr(casimir(amset), amset.basis.size), csr_set(amset).jtot
        self.assert_same_bits(cas, jt)
        bad = canonical(jt + from_entries(jt.shape[0], [3], [4], [1e-3]))
        self.assert_same_bits(cas, bad)


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
    def test_fro_norm_survives_overflowing_squares(self):
        def norm(*entries):
            return operators.fro_norm(band_of(from_entries(2, [0, 1][:len(entries)],
                                                           [0, 1][:len(entries)], entries)))
        assert abs(norm(3e200, 4e200) - 5e200) <= np.spacing(5e200)
        assert norm(np.inf) == np.inf
        assert norm(3.0, 4.0) == 5.0

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
