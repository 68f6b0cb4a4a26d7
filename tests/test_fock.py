import pytest
from hypothesis import given, strategies as st

from schwinger import build_basis

from oracles import OccupationPair, index_of, states


def test_vacuum_only_basis():
    basis = build_basis(0)
    assert basis.size == 1
    assert states(basis) == (OccupationPair(0, 0),)


def test_ordering_nmax2():
    basis = build_basis(2)
    assert [tuple(s) for s in states(basis)] == [
        (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)
    ]
    assert basis.size == 6


def test_size_nmax40():
    assert build_basis(40).size == 41 * 42 // 2  # 861


def test_ordering_rule_matches_sort_oracle():
    basis = build_basis(7)
    expected = sorted(states(basis), key=lambda p: (p.total, -p.n1))
    assert list(states(basis)) == expected


def test_index_of_examples():
    basis = build_basis(2)
    assert index_of(basis, (0, 0)) == 0
    assert index_of(basis, (1, 1)) == 4
    with pytest.raises(ValueError, match="outside the basis"):
        index_of(basis, (3, 0))
    with pytest.raises(ValueError):
        index_of(basis, (-1, 0))


@given(st.integers(min_value=0, max_value=12))
def test_index_roundtrip(n_max):
    basis = build_basis(n_max)
    for pos, pair in enumerate(states(basis)):
        assert index_of(basis, pair) == pos


@given(st.integers(min_value=0, max_value=25))
def test_occupations_match_states(n_max):
    basis = build_basis(n_max)
    n1, n2, total = basis.occupations()
    assert [tuple(s) for s in states(basis)] == list(zip(n1.tolist(), n2.tolist()))
    assert total.tolist() == [s.total for s in states(basis)]


def test_block_ranges_nmax2():
    basis = build_basis(2)
    assert basis.block_range(1) == range(1, 3)
    assert basis.block_range(2) == range(3, 6)


def test_block_range_length_41():
    assert len(build_basis(40).block_range(40)) == 41


def test_block_range_out_of_range():
    basis = build_basis(2)
    with pytest.raises(ValueError):
        basis.block_range(3)
    with pytest.raises(ValueError):
        basis.block_range(-1)


@given(st.integers(min_value=0, max_value=25))
def test_blocks_partition_basis(n_max):
    basis = build_basis(n_max)
    seen = []
    for n in range(n_max + 1):
        rng = basis.block_range(n)
        assert len(rng) == n + 1
        assert all(states(basis)[p].total == n for p in rng)
        seen.extend(rng)
    assert seen == list(range(basis.size))
    assert basis.size == (n_max + 1) * (n_max + 2) // 2


def test_rebuild_is_identical():
    assert build_basis(9) == build_basis(9)


def test_negative_cutoff_rejected():
    with pytest.raises(ValueError):
        build_basis(-1)


def test_basis_is_immutable():
    basis = build_basis(3)
    with pytest.raises(Exception):
        basis.n_max = 5
