import contextlib
import dataclasses

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings, strategies as st

import schwinger.operators as operators
from schwinger import (
    annihilation,
    build_basis,
    build_set,
    casimir,
    from_entries,
    number_operator,
)
from schwinger.operators import (
    _is_diagonal,
    canonical,
    commutator,
    commutator_norm,
    creation,
    diagonal,
    diagonal_of,
    fro_norm,
    max_abs,
    off_diagonal,
    operand,
    quadratic_residuals,
    row_indices,
    same_pattern,
    square_sum,
    transpose_order,
)

from conftest import dense_annihilation, dense_number, max_entry_diff
from oracles import (
    add,
    adjoint,
    commutator as algebra_commutator,
    equal,
    identical,
    identity,
    index_of,
    multiply,
    scale,
    states,
    triplet_annihilation,
    triplet_number_operator,
    zero,
)


def entry(op, i, j):
    return op.toarray()[i, j]


class TestLadder:
    def test_sqrt1_entry(self):
        basis = build_basis(1)
        a1 = annihilation(basis, 1)
        assert entry(a1, index_of(basis, (0, 0)), index_of(basis, (1, 0))) == 1.0
        assert a1.nnz == 1

    def test_sqrt2_entry(self):
        basis = build_basis(2)
        a1 = annihilation(basis, 1)
        got = entry(a1, index_of(basis, (1, 0)), index_of(basis, (2, 0)))
        assert got == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_mode2_entry(self):
        basis = build_basis(2)
        a2 = annihilation(basis, 2)
        assert entry(a2, index_of(basis, (1, 0)), index_of(basis, (1, 1))) == 1.0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            annihilation(build_basis(1), 3)


class TestDirectBuilders:
    """The ladder and number operators, written in canonical order, hold
    the arrays ``from_entries`` makes of their triplets, to the bit."""

    @pytest.mark.parametrize("mode", [1, 2])
    def test_match_triplets(self, mode):
        for n_max in range(41):
            basis = build_basis(n_max)
            ladder = annihilation(basis, mode)
            assert identical(ladder, triplet_annihilation(basis, mode)), n_max
            assert identical(number_operator(basis, mode),
                             triplet_number_operator(basis, mode)), n_max
            assert ladder.indices.dtype == ladder.indptr.dtype == np.int32

    @pytest.mark.parametrize("mode", [1, 2])
    def test_creation_is_the_transpose(self, mode):
        # the mode operators are real: the transpose is the adjoint, and
        # the .conj() form differs only in the sign of each zero
        # imaginary part
        for n_max in range(41):
            basis = build_basis(n_max)
            raising = creation(basis, mode)
            assert identical(raising, canonical(annihilation(basis, mode).T.tocsr())), n_max
            assert raising.indices.dtype == raising.indptr.dtype == np.int32

    def test_creation_bad_mode(self):
        with pytest.raises(ValueError):
            creation(build_basis(1), 0)

    def test_diagonal_drops_exact_zeros_keeps_non_finite(self):
        values = np.array([0.0, -0.5, 0.0, np.nan, np.inf, -0.0])
        d = diagonal(values)
        assert identical(d, from_entries(6, range(6), range(6), values))
        assert list(d.indices) == [1, 3, 4]

    def test_diagonal_of_zeros_stores_nothing(self):
        assert identical(diagonal(np.zeros(4)), zero(4))
        assert diagonal(np.zeros(0)).shape == (0, 0)


class TestIsDiagonal:
    """``_is_diagonal`` reads the row counts; the reference compares the
    row of every stored entry with its column."""

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
        assert _is_diagonal(m) == (not np.any(row_indices(m) != m.indices))

    def test_angular_momentum_operators(self):
        amset = build_set(build_basis(7), 0.3)
        assert _is_diagonal(amset.jz) and _is_diagonal(amset.jtot)
        assert _is_diagonal(casimir(amset))
        assert not _is_diagonal(amset.jx) and not _is_diagonal(amset.jy)


class TestAdjoint:
    def test_creation_entry(self):
        basis = build_basis(1)
        a1d = adjoint(annihilation(basis, 1))
        assert entry(a1d, index_of(basis, (1, 0)), index_of(basis, (0, 0))) == 1.0

    def test_involution(self):
        basis = build_basis(4)
        for op in (annihilation(basis, 1), annihilation(basis, 2),
                   number_operator(basis, 1)):
            assert equal(adjoint(adjoint(op)), op)

    def test_real_diagonal_self_adjoint(self):
        n1 = number_operator(build_basis(3), 1)
        assert equal(adjoint(n1), n1)

    def test_product_rule(self):
        basis = build_basis(4)
        a = annihilation(basis, 1)
        b = adjoint(annihilation(basis, 2))
        lhs = adjoint(multiply(a, b)).toarray()
        rhs = multiply(adjoint(b), adjoint(a)).toarray()
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestNumberOperator:
    def test_diagonal_values(self):
        basis = build_basis(2)
        n1 = number_operator(basis, 1)
        assert np.allclose(np.diag(n1.toarray()), [0, 1, 0, 2, 1, 0])

    def test_equals_adag_a(self):
        basis = build_basis(4)
        a1 = annihilation(basis, 1)
        got = multiply(adjoint(a1), a1)
        oracle = dense_annihilation(basis, 1).conj().T @ dense_annihilation(basis, 1)
        assert max_entry_diff(oracle, got) < 1e-13
        assert max_entry_diff(oracle, number_operator(basis, 1)) < 1e-13

    def test_total_occupation_trace(self):
        basis = build_basis(2)
        total = add(number_operator(basis, 1), number_operator(basis, 2))
        assert np.trace(total.toarray()).real == pytest.approx(8.0)


class TestAlgebra:
    def test_identity_law(self):
        basis = build_basis(3)
        a1 = annihilation(basis, 1)
        assert equal(multiply(identity(basis.size), a1), a1)
        assert equal(multiply(a1, identity(basis.size)), a1)

    def test_additive_inverse(self):
        a1 = annihilation(build_basis(3), 1)
        diff = add(a1, scale(a1, -1.0))
        assert diff.nnz == 0
        assert equal(diff, zero(a1.shape[0]))

    def test_a_adag_interior_diagonal(self):
        basis = build_basis(4)
        a1 = annihilation(basis, 1)
        prod = multiply(a1, adjoint(a1))
        pos = index_of(basis, (2, 1))
        # n1 + 1 with n1 = 2 on an interior state
        assert entry(prod, pos, pos) == pytest.approx(3.0, abs=1e-13)

    def test_scale_by_scalar(self):
        basis = build_basis(2)
        n1 = number_operator(basis, 1)
        assert np.allclose(scale(n1, 2j).toarray(), 2j * n1.toarray())

    def test_dimension_mismatch(self):
        a = annihilation(build_basis(2), 1)
        b = annihilation(build_basis(3), 1)
        for op in (multiply, add, algebra_commutator, commutator):
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(a, b)


class TestCommutator:
    def test_self_commutator(self):
        a1 = annihilation(build_basis(3), 1)
        assert algebra_commutator(a1, a1).nnz == 0

    def test_canonical_below_top_shell(self):
        basis = build_basis(4)
        a1 = annihilation(basis, 1)
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
        a1 = annihilation(basis, 1)
        comm = algebra_commutator(a1, adjoint(a1)).toarray()
        for pos, (n1, n2) in enumerate(states(basis)):
            if n1 + n2 == basis.n_max:
                assert comm[pos, pos] == pytest.approx(-n1, abs=1e-13)

    def test_cross_mode_commutator_vanishes_below_top_shell(self):
        # [a1, a2^dag] = 0 column by column except on the top shell, where
        # the truncated a2^dag annihilates and leaves -a2^dag a1 behind
        basis = build_basis(4)
        a1 = annihilation(basis, 1)
        a2 = annihilation(basis, 2)
        comm = algebra_commutator(a1, adjoint(a2))
        totals = np.array([p.total for p in states(basis)])
        assert comm.nnz > 0
        assert np.all(totals[comm.indices] == basis.n_max)
        for row, col, val in zip(row_indices(comm), comm.indices, comm.data):
            n1, n2 = states(basis)[col]
            assert states(basis)[row] == (n1 - 1, n2 + 1)
            assert val == pytest.approx(-np.sqrt(n1 * (n2 + 1)), abs=1e-13)


# Gaussian integers in -4..4: every product and sum of them below is exact,
# so scaled entries and the full products agree to the bit in any order
SMALL = st.builds(complex, st.integers(-4, 4), st.integers(-4, 4))
NON_FINITE = st.sampled_from([complex(np.nan, 0), complex(np.inf, 0),
                              complex(-np.inf, 1), complex(0, np.inf)])


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


class TestCommutatorRule:
    """``commutator(a, d)`` is the operator algebra's commutator entry for
    entry, whether it scales entries (``d`` diagonal) or multiplies."""

    @staticmethod
    def assert_matches(a, d):
        with np.errstate(invalid="ignore"):
            got = commutator(a, d)
            want = algebra_commutator(a, d)
        assert got.nnz == want.nnz and np.all(got.data != 0)
        g, w = got.toarray(), want.toarray()
        finite = np.isfinite(w)
        assert np.array_equal(np.isfinite(g), finite)
        assert np.array_equal(g[finite], w[finite])

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

    def test_angular_momentum_operands(self):
        amset = build_set(build_basis(6), 0.3)
        cas = casimir(amset)
        for op in (amset.jx, amset.jy, amset.jz):
            for d in (cas, amset.jtot):
                self.assert_matches(op, d)
        # J_y stores entries off its diagonal, so these two multiply
        self.assert_matches(amset.jx, amset.jy)
        self.assert_matches(amset.jy, amset.jx)


class TestCommutatorNorm:
    """``commutator_norm(a, d)`` is ``fro_norm(commutator(a, d))`` to the bit,
    whether or not it builds the commutator."""

    @staticmethod
    def assert_same_bits(a, d):
        # the non-dyadic factors make the sum of squares round, so its
        # order and the dropped zeros show in the last bits
        for fa, fd in ((1.0, 1.0), (0.1, 0.7)):
            with np.errstate(invalid="ignore", over="ignore"):
                got = commutator_norm(a * fa, d * fd)
                want = fro_norm(commutator(a * fa, d * fd))
            assert np.float64(got).tobytes() == np.float64(want).tobytes()

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
        cas = casimir(amset)
        for op in (amset.jx, amset.jy, amset.jz):
            for d in (cas, amset.jtot, amset.jy):
                self.assert_same_bits(op, d)


# entries with a -0.0 part beside the Gaussian integers: every sum and
# product stays exact, but the sign of a zero part can show in the bits
SIGNED_ZERO = st.sampled_from([complex(-0.0, 1), complex(2, -0.0), complex(-0.0, -3),
                               complex(-1, -0.0)])
VALUE = st.one_of(SMALL, SIGNED_ZERO)
# the non-dyadic factors make products and sums round, so their order,
# a fused multiply-add or a dropped zero shows in the last bits
FACTORS = ((1.0, 1.0), (0.1, 0.7))


def bits(x) -> bytes:
    return np.float64(x).tobytes()


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


@contextlib.contextmanager
def counting(name: str):
    """Patch ``operators.<name>`` to record the arguments of each call;
    yields the list and the real function."""
    calls = []
    real = getattr(operators, name)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(operators, name, lambda *args: calls.append(args) or real(*args))
        yield calls, real


class TestOperand:
    """``operand`` reads a diagonal matrix as its diagonal vector, which
    keeps every stored entry: the vector rebuilds the matrix, and
    ``diagonal_of`` and ``off_diagonal`` read the same from either form."""

    @settings(deadline=None)
    @given(near_diagonal_pair(off_diagonal=2, non_finite=True))
    def test_reads_diagonal_matrices_as_vectors(self, pair):
        for m in pair:
            x = operand(m)
            assert isinstance(x, np.ndarray) == _is_diagonal(m)
            assert operand(x) is x
            assert diagonal_of(x).tobytes() == m.diagonal().tobytes()
            rows = row_indices(m)
            off = rows != m.indices
            for got, want in zip(off_diagonal(x), (rows[off], m.indices[off], m.data[off])):
                assert got.tobytes() == want.tobytes()
            if isinstance(x, np.ndarray):
                # diagonal() adds each entry to 0, so only a -0.0 part turns +0.0
                rebuilt = operators._matrix(x)
                assert same_pattern(rebuilt, m) and rebuilt.data.tobytes() == (m.data + 0).tobytes()

    def test_angular_momentum_operators(self):
        amset = build_set(build_basis(6), 0.3)
        assert amset.jz_operand is amset.jz_operand
        for m, x in ((amset.jz, amset.jz_operand), (amset.jtot, amset.jtot_operand)):
            assert identical(diagonal(x), m)
        assert operand(amset.jx) is amset.jx


def scipy_commutator(a, b):
    """The expression ``commutator_norm`` replaces: ``commutator`` scales
    entries by a diagonal ``b``; otherwise the plain products."""
    return commutator(a, b) if _is_diagonal(b) else a @ b - b @ a


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


class TestTransposeOrder:
    """``transpose_order(m)`` puts ``m.data`` in the order of
    ``m.tocsc().data`` when the transpose stores m's pattern and is None
    otherwise; ``hermiticity_residuals`` takes one per pattern."""

    @settings(deadline=None)
    @given(random_pattern())
    def test_matches_tocsc(self, m):
        t, order = m.tocsc(), transpose_order(m)
        if same_pattern(t, m):
            assert np.array_equal(m.data[order], t.data)
        else:
            assert order is None

    def test_asymmetric_pattern_takes_the_difference_matrix(self):
        m = from_entries(4, [0, 1, 1], [1, 0, 3], [1.0, 2j, -0.5])
        assert transpose_order(m) is None
        with counting("max_abs") as (fallbacks, real):
            (got,) = operators.hermiticity_residuals(m)
        assert len(fallbacks) == 1 and bits(got) == bits(real(m - m.conj().T))

    def test_one_order_serves_jx_and_jy(self):
        amset = build_set(build_basis(6), 0.3)
        assert same_pattern(amset.jx, amset.jy)
        with counting("transpose_order") as (calls, _), counting("max_abs") as (fallbacks, _):
            residuals = operators.hermiticity_residuals(
                amset.jx, amset.jy, amset.jz_operand, amset.jtot_operand)
        assert len(calls) == 1 and calls[0][0] is amset.jx and not fallbacks
        assert residuals == [0.0] * 4


class TestCommutatorPlusTerm:
    """``commutator_norm(a, b, c, s)`` is the norm of ``[a, b] + c * s``
    taken by scipy to the bit, whether it adds ``c``'s data to the
    commutator's values (``c`` stores the commutator's pattern) or forms
    the sum (it does not), and whether the products' difference is taken
    on their data arrays (they share a pattern) or by scipy.  It also
    equals the norm of ``c * -s - [a, b]``, the form ``commutator_zx_y``
    replaces."""

    @staticmethod
    def pattern(a, b):
        """The index arrays the commutator's values sit on."""
        if _is_diagonal(b):
            return a
        m = a @ b - b @ a
        m.sort_indices()
        return m

    @staticmethod
    def assert_same_bits(a, b, c):
        for (fa, fb), scale in zip(FACTORS, (-1j, 0.3 - 0.7j)):
            with counting("fro_norm") as (fallbacks, norm), \
                    np.errstate(invalid="ignore", over="ignore"):
                a_, b_, c_ = a * fa, b * fb, c * 0.3
                got = commutator_norm(a_, b_, c_, scale)
                from_vector = commutator_norm(a_, operand(b_), c_, scale)
                alone = commutator_norm(a_, b_)
                want = norm(scipy_commutator(a_, b_) + c_ * scale)
                flipped = norm(c_ * -scale - scipy_commutator(a_, b_))
                want_alone = norm(scipy_commutator(a_, b_))
            assert bits(got) == bits(from_vector) == bits(want) == bits(flipped)
            assert bits(alone) == bits(want_alone)
            mismatch = not same_pattern(TestCommutatorPlusTerm.pattern(a_, b_), c_)
            assert len(fallbacks) == 2 * mismatch

    @settings(deadline=None)
    @given(split_operands(off_diagonal=2, non_finite=True), st.data())
    def test_on_the_pattern(self, operands, data):
        a, b = operands
        p = self.pattern(a, b)
        values = data.draw(st.lists(VALUE.filter(bool), min_size=p.nnz, max_size=p.nnz))
        c = canonical(sp.csr_matrix((np.array(values, dtype=complex), p.indices.copy(),
                                     p.indptr.copy()), shape=p.shape))
        assert same_pattern(p, c)
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
        amset = build_set(build_basis(9), hbar)
        jx, jy, jz = amset.jx, amset.jy, amset.jz
        assert same_pattern(jx @ jy, jy @ jx)
        for a, b, c in ((jx, jy, jz), (jy, jz, jx), (jx, jz, jy)):
            self.assert_same_bits(a, b, c)
        # an off-band J_x entry puts J_x off J_y's pattern
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


def nan_parts_unsigned(m: sp.csr_matrix) -> sp.csr_matrix:
    """``m`` on the same index arrays, with every NaN real or imaginary
    part made the positive quiet NaN and its data as writeable as m's."""
    parts = m.data.view(np.float64).copy()
    parts[np.isnan(parts)] = np.nan
    out = sp.csr_matrix((parts.view(np.complex128), m.indices, m.indptr), shape=m.shape)
    out.data.flags.writeable = m.data.flags.writeable
    return out


class TestSquareSum:
    """``square_sum(a, b, x)`` is ``canonical(a @ a + b @ b + x @ x)`` to
    the bit, data, index dtypes and read-only flags, whether it adds on
    arrays (the sum of the squares and x are diagonal), and returns the
    vector whose ``diagonal`` that is, or forms the sums (otherwise),
    and whether the two squares share a pattern.  Only the
    sign of a NaN part may differ: when both terms of a sum are NaN,
    which one numpy's vectorized add passes on is its own choice, and no
    output shows a NaN's sign."""

    @staticmethod
    def assert_identical(a, b, x):
        for fa, fx in FACTORS:
            with counting("_matrix") as (fallbacks, _), \
                    np.errstate(invalid="ignore", over="ignore"):
                a_, b_, x_ = a * fa, b * fa, x * fx
                got = square_sum(a_, b_, x_)
                from_vector = square_sum(a_, b_, operand(x_))
                total = a_ @ a_ + b_ @ b_
                want = canonical(total + x_ @ x_)
            arrays = _is_diagonal(total) and _is_diagonal(x_)
            for sq in (got, from_vector):
                assert isinstance(sq, np.ndarray) == arrays
                m = diagonal(sq) if arrays else sq
                assert identical(nan_parts_unsigned(m), nan_parts_unsigned(want))
            assert len(fallbacks) == 2 * (not arrays)

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
        # J_x^2 and J_y^2 share a pattern and cancel two off the
        # diagonal: only their sum is diagonal
        amset = build_set(build_basis(5), 0.3)
        jx, jy = amset.jx, amset.jy
        assert same_pattern(jx @ jx, jy @ jy) and not _is_diagonal(jx @ jx)
        self.assert_identical(jx, jy, amset.jz)

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 2.0, 1e-30])
    def test_casimir_bits(self, hbar):
        # J^2 holds the bits of the one scipy expression, clean or with
        # J_z or J_x off its pattern
        for n_max in (0, 1, 2, 7, 23, 40):
            amset = build_set(build_basis(n_max), hbar)
            sets = [amset]
            if n_max >= 2:
                for name, row, col in (("jz", 1, 2), ("jx", 0, 5), ("jx", 1, 2)):
                    op = getattr(amset, name)
                    bump = from_entries(op.shape[0], [row], [col], [1e-3 * hbar])
                    sets.append(dataclasses.replace(amset, **{name: canonical(op + bump)}))
            for s in sets:
                jx, jy, jz = s.jx, s.jy, s.jz
                assert identical(casimir(s), canonical(jx @ jx + jy @ jy + jz @ jz)), n_max


class TestQuadraticResiduals:
    """``quadratic_residuals(c, t, s)`` is ``max_abs(c - (t @ t + t * s))``
    and ``max_abs((c - t @ t) - t * s)`` to the bit, whether it reads
    vectors (both are diagonal) or forms the matrices (either is not)."""

    @staticmethod
    def assert_same_bits(c, t):
        for (fc, ft), scale in zip(FACTORS, (1.0, 0.3)):
            with counting("max_abs") as (fallbacks, real), \
                    np.errstate(invalid="ignore", over="ignore"):
                c_, t_ = c * fc, t * ft
                got = quadratic_residuals(c_, t_, scale)
                from_vectors = quadratic_residuals(operand(c_), operand(t_), scale)
                tt, ts = t_ @ t_, t_ * scale
                want = (real(c_ - (tt + ts)), real((c_ - tt) - ts))
            assert [bits(v) for v in got] == [bits(v) for v in from_vectors] \
                == [bits(v) for v in want]
            assert len(fallbacks) == 4 * (not (_is_diagonal(c_) and _is_diagonal(t_)))

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
        self.assert_same_bits(casimir(amset), amset.jtot)
        bad = canonical(amset.jtot + from_entries(amset.jtot.shape[0], [3], [4], [1e-3]))
        self.assert_same_bits(casimir(amset), bad)


class TestBlockConservation:
    def test_hop_operator_preserves_blocks(self):
        basis = build_basis(6)
        hop = multiply(adjoint(annihilation(basis, 1)), annihilation(basis, 2))
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
        op = from_entries(2, [0, 1], [0, 1], [3e200, 4e200])
        assert abs(fro_norm(op) - 5e200) <= np.spacing(5e200)
        assert fro_norm(from_entries(2, [0], [0], [np.inf])) == np.inf
        assert fro_norm(from_entries(2, [0, 1], [0, 1], [3.0, 4.0])) == 5.0

    def test_values_immutable(self):
        op = annihilation(build_basis(2), 1)
        with pytest.raises(ValueError):
            op.data[0] = 7.0
        amset = build_set(build_basis(2), 1.0)
        for m in (op, amset.jx, amset.jy, amset.jz, amset.jtot, casimir(amset)):
            for arr in (m.data, m.indices, m.indptr):
                assert not arr.flags.writeable
                with pytest.raises(ValueError):
                    arr[0] = 1


class TestDenseOracle:
    @pytest.mark.parametrize("n_max", [0, 1, 2, 3, 4, 5, 6])
    def test_entrywise_agreement(self, n_max):
        basis = build_basis(n_max)
        a1 = annihilation(basis, 1)
        a2 = annihilation(basis, 2)
        d1 = dense_annihilation(basis, 1)
        d2 = dense_annihilation(basis, 2)
        checks = [
            (d1, a1),
            (d2, a2),
            (d1.conj().T, adjoint(a1)),
            (dense_number(basis, 1), number_operator(basis, 1)),
            (d1.conj().T @ d2, multiply(adjoint(a1), a2)),
            (d1 + d2, add(a1, a2)),
            (2.5j * d1, scale(a1, 2.5j)),
            (d1 @ d2 - d2 @ d1, algebra_commutator(a1, a2)),
            (d1 @ d1.conj().T - d1.conj().T @ d1, algebra_commutator(a1, adjoint(a1))),
        ]
        for dense, sparse in checks:
            assert max_entry_diff(dense, sparse) < 1e-13
