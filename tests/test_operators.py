import numpy as np
import pytest

from schwinger import (
    add,
    adjoint,
    annihilation,
    build_basis,
    commutator,
    from_entries,
    identity,
    multiply,
    number_operator,
    scale,
    zero,
)

from conftest import dense_annihilation, dense_number, max_entry_diff


def entry(op, i, j):
    return op.to_dense()[i, j]


class TestLadder:
    def test_sqrt1_entry(self):
        basis = build_basis(1)
        a1 = annihilation(basis, 1)
        assert entry(a1, basis.index_of((0, 0)), basis.index_of((1, 0))) == 1.0
        assert a1.nnz == 1

    def test_sqrt2_entry(self):
        basis = build_basis(2)
        a1 = annihilation(basis, 1)
        got = entry(a1, basis.index_of((1, 0)), basis.index_of((2, 0)))
        assert got == pytest.approx(np.sqrt(2), abs=1e-15)

    def test_mode2_entry(self):
        basis = build_basis(2)
        a2 = annihilation(basis, 2)
        assert entry(a2, basis.index_of((1, 0)), basis.index_of((1, 1))) == 1.0

    def test_bad_mode(self):
        with pytest.raises(ValueError):
            annihilation(build_basis(1), 3)


class TestAdjoint:
    def test_creation_entry(self):
        basis = build_basis(1)
        a1d = adjoint(annihilation(basis, 1))
        assert entry(a1d, basis.index_of((1, 0)), basis.index_of((0, 0))) == 1.0

    def test_involution(self):
        basis = build_basis(4)
        for op in (annihilation(basis, 1), annihilation(basis, 2),
                   number_operator(basis, 1)):
            assert adjoint(adjoint(op)) == op

    def test_real_diagonal_self_adjoint(self):
        n1 = number_operator(build_basis(3), 1)
        assert adjoint(n1) == n1

    def test_product_rule(self):
        basis = build_basis(4)
        a = annihilation(basis, 1)
        b = adjoint(annihilation(basis, 2))
        lhs = adjoint(multiply(a, b)).to_dense()
        rhs = multiply(adjoint(b), adjoint(a)).to_dense()
        assert np.max(np.abs(lhs - rhs)) < 1e-14


class TestNumberOperator:
    def test_diagonal_values(self):
        basis = build_basis(2)
        n1 = number_operator(basis, 1)
        assert np.allclose(np.diag(n1.to_dense()), [0, 1, 0, 2, 1, 0])

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
        assert np.trace(total.to_dense()).real == pytest.approx(8.0)


class TestAlgebra:
    def test_identity_law(self):
        basis = build_basis(3)
        a1 = annihilation(basis, 1)
        assert multiply(identity(basis.size), a1) == a1
        assert multiply(a1, identity(basis.size)) == a1

    def test_additive_inverse(self):
        a1 = annihilation(build_basis(3), 1)
        diff = add(a1, scale(a1, -1.0))
        assert diff.nnz == 0
        assert diff == zero(a1.dim)

    def test_a_adag_interior_diagonal(self):
        basis = build_basis(4)
        a1 = annihilation(basis, 1)
        prod = multiply(a1, adjoint(a1))
        pos = basis.index_of((2, 1))
        # n1 + 1 with n1 = 2 on an interior state
        assert entry(prod, pos, pos) == pytest.approx(3.0, abs=1e-13)

    def test_scale_by_scalar(self):
        basis = build_basis(2)
        n1 = number_operator(basis, 1)
        assert np.allclose(scale(n1, 2j).to_dense(), 2j * n1.to_dense())

    def test_dimension_mismatch(self):
        a = annihilation(build_basis(2), 1)
        b = annihilation(build_basis(3), 1)
        for op in (multiply, add, commutator):
            with pytest.raises(ValueError, match="dimension mismatch"):
                op(a, b)


class TestCommutator:
    def test_self_commutator(self):
        a1 = annihilation(build_basis(3), 1)
        assert commutator(a1, a1).nnz == 0

    def test_canonical_below_top_shell(self):
        basis = build_basis(4)
        a1 = annihilation(basis, 1)
        comm = commutator(a1, adjoint(a1)).to_dense()
        for pos, pair in enumerate(basis.states):
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
        comm = commutator(a1, adjoint(a1)).to_dense()
        for pos, (n1, n2) in enumerate(basis.states):
            if n1 + n2 == basis.n_max:
                assert comm[pos, pos] == pytest.approx(-n1, abs=1e-13)

    def test_cross_mode_commutator_vanishes_below_top_shell(self):
        # [a1, a2^dag] = 0 column by column except on the top shell, where
        # the truncated a2^dag annihilates and leaves -a2^dag a1 behind
        basis = build_basis(4)
        a1 = annihilation(basis, 1)
        a2 = annihilation(basis, 2)
        comm = commutator(a1, adjoint(a2))
        totals = np.array([p.total for p in basis.states])
        assert comm.nnz > 0
        assert np.all(totals[comm.cols] == basis.n_max)
        for row, col, val in zip(comm.rows, comm.cols, comm.vals):
            n1, n2 = basis.states[col]
            assert basis.states[row] == (n1 - 1, n2 + 1)
            assert val == pytest.approx(-np.sqrt(n1 * (n2 + 1)), abs=1e-13)


class TestBlockConservation:
    def test_hop_operator_preserves_blocks(self):
        basis = build_basis(6)
        hop = multiply(adjoint(annihilation(basis, 1)), annihilation(basis, 2))
        totals = np.array([p.total for p in basis.states])
        assert hop.nnz > 0
        assert np.array_equal(totals[hop.rows], totals[hop.cols])


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
        assert np.isnan(op.max_abs())

    def test_exact_cancellation_pruned(self):
        op = from_entries(2, [0, 0], [0, 0], [1.0, -1.0])
        assert op.nnz == 0

    def test_triplets_sorted_row_major(self):
        op = from_entries(3, [2, 0, 1, 0], [0, 2, 1, 0], [1, 2, 3, 4])
        assert list(op.rows) == [0, 0, 1, 2]
        assert list(op.cols) == [0, 2, 1, 0]

    def test_out_of_range_triplet(self):
        with pytest.raises(ValueError):
            from_entries(2, [0], [2], [1.0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_fro_norm_survives_overflowing_squares(self):
        op = from_entries(2, [0, 1], [0, 1], [3e200, 4e200])
        assert abs(op.fro_norm() - 5e200) <= np.spacing(5e200)
        assert from_entries(2, [0], [0], [np.inf]).fro_norm() == np.inf
        assert from_entries(2, [0, 1], [0, 1], [3.0, 4.0]).fro_norm() == 5.0

    def test_values_immutable(self):
        op = annihilation(build_basis(2), 1)
        with pytest.raises(ValueError):
            op.vals[0] = 7.0
        with pytest.raises(ValueError):
            op.to_csr().data[0] = 7.0


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
            (d1 @ d2 - d2 @ d1, commutator(a1, a2)),
            (d1 @ d1.conj().T - d1.conj().T @ d1, commutator(a1, adjoint(a1))),
        ]
        for dense, sparse in checks:
            assert max_entry_diff(dense, sparse) < 1e-13
