import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

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
    commutator,
    commutator_norm,
    diagonal,
    fro_norm,
    max_abs,
    row_indices,
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
