import math
import dataclasses
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import schwinger
import schwinger.angular as angular
import schwinger.classical as classical
import schwinger.cli as cli
import schwinger.fock as fock
import schwinger.operators as operators
import schwinger.spectra as spectra
from schwinger import (
    build_basis,
    build_set,
    cos_theta,
    sum_rule_check,
)

from oracles import (
    analyze_block,
    block_report,
    csr_set,
    diagonal_report,
    extract_block,
    gershgorin_discs,
    jacobi_eigen,
    mean_square_from_spectrum,
    to_csr,
)


class TestJacobiEigen:
    def test_half_pauli_x(self):
        vals, vecs = jacobi_eigen([[0.0, 0.5], [0.5, 0.0]])
        assert np.allclose(vals, [-0.5, 0.5], atol=1e-14)
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(2))) < 1e-12

    def test_scalar_matrix(self):
        vals, vecs = jacobi_eigen([[3.25]])
        assert vals[0] == 3.25
        assert vecs[0, 0] == 1.0

    def test_spin_one_jx_levels(self):
        block = extract_block(build_set(build_basis(2), 1.0), 2)
        vals, _ = jacobi_eigen(block.jx)
        assert np.allclose(vals, [-1.0, 0.0, 1.0], atol=1e-12)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 9, 16])
    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_against_numpy_oracle(self, n, kind):
        rng = np.random.default_rng(1000 * n + (kind == "complex"))
        m = rng.standard_normal((n, n))
        if kind == "complex":
            m = m + 1j * rng.standard_normal((n, n))
        h = (m + m.conj().T) / 2
        tol = 1e-12
        vals, vecs = jacobi_eigen(h, tol)
        assert np.allclose(vals, np.linalg.eigvalsh(h), atol=1e-10)
        scale = max(1.0, float(np.linalg.norm(h, 2)))
        assert np.max(np.abs(vecs.conj().T @ vecs - np.eye(n))) < 10 * tol
        for k in range(n):
            resid = np.linalg.norm(h @ vecs[:, k] - vals[k] * vecs[:, k])
            assert resid < 10 * tol * scale
        rec = vecs @ np.diag(vals) @ vecs.conj().T
        assert np.linalg.norm(rec - h) < 1e-10 * scale

    def test_eigenvalues_ascending(self):
        rng = np.random.default_rng(5)
        m = rng.standard_normal((8, 8))
        vals, _ = jacobi_eigen((m + m.T) / 2)
        assert np.all(np.diff(vals) >= 0)

    def test_degenerate_ties_keep_column_order(self):
        vals, vecs = jacobi_eigen(np.diag([2.0, 2.0, 1.0]))
        assert np.allclose(vals, [1.0, 2.0, 2.0])
        # stable sort: the two tied columns stay in original order
        assert np.allclose(np.abs(vecs), [[0, 1, 0], [0, 0, 1], [1, 0, 0]])

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError, match="Hermitian"):
            jacobi_eigen([[0.0, 1.0], [0.0, 0.0]])

    def test_sweep_cap_raises(self):
        from oracles import ConvergenceError

        with pytest.raises(ConvergenceError):
            jacobi_eigen([[0.0, 0.5], [0.5, 0.0]], max_sweeps=0)

    def test_rejects_non_square(self):
        with pytest.raises(ValueError):
            jacobi_eigen(np.zeros((2, 3)))


class TestAnalyzeBlock:
    @pytest.mark.parametrize(
        "n, casimir, levels",
        [
            (0, 0.0, (0.0,)),
            (1, 0.75, (0.5, -0.5)),
            (2, 2.0, (1.0, 0.0, -1.0)),
        ],
    )
    def test_small_blocks(self, n, casimir, levels):
        amset = build_set(build_basis(max(n, 1)), 1.0)
        report = analyze_block(extract_block(amset, n))
        assert report.two_j == n
        assert report.casimir_value == pytest.approx(casimir, abs=1e-13)
        assert report.jz_eigenvalues == pytest.approx(levels, abs=1e-13)
        assert len(report.jz_eigenvalues) == n + 1
        assert report.max_residual < 1e-12

    def test_spectrum_matches_grid_up_to_nmax12(self):
        amset = build_set(build_basis(12), 1.0)
        for n in range(13):
            report = analyze_block(extract_block(amset, n))
            j = n / 2
            grid = [j - k for k in range(n + 1)]
            assert report.jz_eigenvalues == pytest.approx(grid, abs=1e-10)
            assert report.casimir_value == pytest.approx(j * (j + 1), abs=1e-10)

    def test_inconsistent_block_raises(self):
        block = extract_block(build_set(build_basis(2), 1.0), 2)
        jx = block.jx.copy()
        jx[0, 1] += 1e-3
        jx[1, 0] += 1e-3
        broken = dataclasses.replace(block, jx=jx)
        with pytest.raises(ValueError, match="spread"):
            analyze_block(broken)

    def test_report_records_inconsistency_without_raising(self):
        block = extract_block(build_set(build_basis(2), 1.0), 2)
        jx = block.jx.copy()
        jx[0, 1] += 1e-3
        jx[1, 0] += 1e-3
        report = block_report(dataclasses.replace(block, jx=jx))
        assert report.spread > 1e-6
        assert report.max_residual == report.spread + report.grid_dev
        assert report.grid_dev == report.sum_rule_dev == report.dim_dev == 0.0


class TestSpreadAgainstJacobiOracle:
    """block_report reads J^2 off its Gershgorin discs; Jacobi is the oracle."""

    @staticmethod
    def oracle_eigenvalues(block):
        cas = block.jx @ block.jx + block.jy @ block.jy + block.jz @ block.jz
        vals, _ = jacobi_eigen(0.5 * (cas + cas.conj().T))
        return vals

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    def test_exact_on_unperturbed_blocks(self, hbar):
        amset = build_set(build_basis(6), hbar)
        for n in range(7):
            block = extract_block(amset, n)
            vals = self.oracle_eigenvalues(block)
            report = block_report(block)
            assert abs(report.spread - (vals[-1] - vals[0])) <= 1e-12
            assert abs(report.casimir_value - np.mean(vals)) <= 1e-12

    @pytest.mark.parametrize("seed", range(14))
    def test_bounds_spread_of_perturbed_blocks(self, seed):
        rng = np.random.default_rng(seed)
        n = seed % 7
        size = 10.0 ** -rng.integers(1, 7)
        block = extract_block(build_set(build_basis(n), 1.0), n)
        perturbed = {}
        for name in ("jx", "jy", "jz"):
            shape = (n + 1, n + 1)
            m = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            # Hermitian and dense: entries far off the tridiagonal band too
            perturbed[name] = getattr(block, name) + size * (m + m.conj().T)
        broken = dataclasses.replace(block, **perturbed)
        vals = self.oracle_eigenvalues(broken)
        report = block_report(broken)
        assert report.spread >= vals[-1] - vals[0] - 1e-12
        assert abs(report.casimir_value - np.mean(vals)) <= 1e-12


@st.composite
def block_rows(draw):
    """Consecutive blocks: their two_js, hbar, and the J_z diagonal and
    J^2 discs on their rows.

    Each block starts from its exact levels in a random order, the
    whole block possibly shifted past its neighbours; a level may then
    move by less than hbar/2 (so two levels can fall closer than
    hbar/2), move off the grid by up to 3 hbar, or become NaN.
    """
    two_js = draw(st.lists(st.integers(0, 12), min_size=1, max_size=5))
    hbar = draw(st.sampled_from([0.5, 1.0, 2.0, 0.3, 1 / 3, 1.054571817e-34, 7.3e5]))
    unit = st.floats(-1.0, 1.0)
    jz, centres, radii = [], [], []
    for n in two_js:
        j = 0.5 * n
        shift = draw(st.sampled_from([0, 0, 20, -20]))
        for k in draw(st.permutations(range(n + 1))):
            kind = draw(st.sampled_from(["exact", "near", "off", "nan"]))
            level = (j - k + shift) * hbar
            if kind == "near":
                level += 0.49 * draw(unit) * hbar
            elif kind == "off":
                level += 3.0 * draw(unit) * hbar
            elif kind == "nan":
                level = np.nan
            jz.append(level)
            centres.append((j * (j + 1) + draw(unit) * draw(st.sampled_from([0, 1e-9, 1]))) * hbar * hbar)
            radii.append(abs(draw(unit)) * draw(st.sampled_from([0, 1e-12, 1])) * hbar * hbar)
    return two_js, hbar, np.array(jz), np.array(centres), np.array(radii)


def _within_ulps(x: float, y: float, ulps: int) -> bool:
    """x and y are both NaN or at most ``ulps`` units in the last place apart."""
    if np.isnan(x) or np.isnan(y):
        return np.isnan(x) and np.isnan(y)
    return abs(x - y) <= ulps * np.spacing(max(abs(x), abs(y)))


class TestBlockTable:
    """``block_table`` against ``diagonal_report``, the per-block reference."""

    @settings(deadline=None)
    @given(block_rows())
    def test_matches_per_block_reference(self, rows):
        two_js, hbar, jz, centres, radii = rows
        table = spectra.block_table(two_js, hbar, jz, centres, radii)
        assert table["starts"].tolist() == np.cumsum([0] + [n + 1 for n in two_js])[:-1].tolist()
        for b, (n, start) in enumerate(zip(two_js, table["starts"])):
            sl = slice(start, start + n + 1)
            ref = diagonal_report(n, hbar, jz[sl], centres[sl], radii[sl])
            levels = table["levels"][sl]
            assert np.array_equal(levels, ref.jz_eigenvalues, equal_nan=True)
            for field in ("spread", "grid_dev", "dim_dev", "sum_rule_dev"):
                assert np.array_equal(table[field][b], getattr(ref, field), equal_nan=True)
            assert _within_ulps(table["casimir"][b], ref.casimir_value, 8)
            assert _within_ulps(table["mean_square"][b], mean_square_from_spectrum(ref), 8)

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0, 0.3])
    def test_sparse_operators_read_block_by_block(self, hbar):
        amset = build_set(build_basis(30), hbar)
        cas = angular.casimir(amset)
        centres, radii = gershgorin_discs(to_csr(cas, amset.basis.size))
        jz = csr_set(amset).jz.diagonal()
        table = spectra.block_table(range(31), hbar, jz, centres, radii)
        # verify reads the same discs off the stored entries of J^2
        read = cli._blocks(amset, cas, 0)
        assert read.keys() == table.keys()
        for field, column in table.items():
            assert np.array_equal(read[field], column), field
        for n in range(31):
            rows = amset.basis.block_range(n)
            sl = slice(rows.start, rows.stop)
            ref = diagonal_report(n, hbar, jz[sl], centres[sl], radii[sl])
            assert table["levels"][sl].tolist() == list(ref.jz_eigenvalues)
            assert table["spread"][n] == ref.spread
            assert table["grid_dev"][n] == ref.grid_dev
            assert table["dim_dev"][n] == ref.dim_dev == 0
            assert table["sum_rule_dev"][n] == ref.sum_rule_dev == 0
            assert _within_ulps(table["casimir"][n], ref.casimir_value, 8)
            if hbar != 0.3:  # every term is exact at a power of two
                assert table["casimir"][n] == ref.casimir_value
                assert table["mean_square"][n] == mean_square_from_spectrum(ref)


def lexsorted_levels(two_js, jz) -> np.ndarray:
    """Each block's levels sorted descending with NaN first, as
    ``block_table`` returns them: ascending by level within descending
    blocks by ``np.lexsort``, then reversed."""
    sizes = np.asarray(two_js) + 1
    block = np.repeat(np.arange(len(sizes)), sizes)
    jz = np.real(jz)
    return jz[np.lexsort((jz, -block))[::-1]]


class TestBlockTableOrder:
    """``block_table`` sorts the levels only when some block's are not
    strictly decreasing; either way its ``levels`` are those of a sort
    to the bit."""

    def table_levels(self, two_js, jz) -> np.ndarray:
        n = len(jz)
        levels = spectra.block_table(two_js, 1.0, jz, np.zeros(n), np.zeros(n))["levels"]
        assert levels.tobytes() == lexsorted_levels(two_js, jz).tobytes()
        return levels

    @pytest.mark.parametrize("two_js, jz, unchanged", [
        # ordered blocks, each starting above the last level before it
        ([0, 1, 2], [0.0, 0.5, -0.5, 1.0, 0.0, -1.0], True),
        # a -0.0/0.0 tie, which the sort reverses
        ([0, 3], [0.0, 1.0, 0.0, -0.0, -1.0], False),
        # two equal levels
        ([0, 3], [0.0, 1.0, 0.5, 0.5, -1.0], True),
        # a NaN, which the sort puts first
        ([0, 3], [0.0, 1.0, np.nan, -1.0, 7.0], False),
        # one shuffled block between ordered ones
        ([0, 2, 3], [0.0, -1.0, 1.0, 0.0, 1.5, 0.5, -0.5, -1.5], False),
    ], ids=["ordered", "signed_zero_tie", "equal_levels", "nan", "one_shuffled"])
    def test_matches_lexsort(self, two_js, jz, unchanged):
        jz = np.array(jz)
        assert (self.table_levels(two_js, jz).tobytes() == jz.tobytes()) == unchanged

    def test_clean_set_is_already_ordered(self):
        amset = build_set(build_basis(12), 0.3)
        jz = amset.jz[0].real
        assert self.table_levels(range(13), jz).tobytes() == jz.tobytes()

    @pytest.mark.parametrize("directive", ["jz,4,4,1e-6", "jz,4,4,-0.6", "jz,3,3,-0.3",
                                           "jz,5,4,1e-3", "jz,0,0,1e300"])
    def test_corrupted_verify(self, directive):
        """The levels of ``verify --corrupt`` runs, some of which keep each
        block strictly decreasing and some of which do not."""
        amset = build_set(build_basis(6), 0.3)
        corrupted = cli._apply_corruption(amset, cli._parse_corruption(directive, amset.basis.size))
        jz = corrupted.jz[0]
        if directive == "jz,0,0,1e300":
            # a level of 1e300 overflows J^2, which casimir refuses
            with np.errstate(all="ignore"), pytest.raises(OverflowError):
                angular.casimir(corrupted)
            return
        levels = cli._blocks(corrupted, angular.casimir(corrupted), 0)["levels"]
        assert levels.tobytes() == lexsorted_levels(range(7), jz).tobytes()


def whole_range_table(amset, cas, first: int = 0) -> dict:
    """One ``block_table`` call over blocks ``first`` .. n_max, the discs of
    J^2 read off ``cas`` as ``cli._blocks`` reads them: each radius the sum
    of the row's off-diagonal magnitudes, offsets ascending."""
    rows = slice(amset.basis.block_range(first).start, None)
    dim = amset.basis.size
    radii = np.zeros(dim)
    for p in sorted(cas):
        if p:
            radii += np.abs(cas[p])
    jz, centres = (op.get(0, np.zeros(dim, dtype=complex)) for op in (amset.jz, cas))
    return spectra.block_table(range(first, amset.basis.n_max + 1), amset.hbar,
                               jz[rows], centres.real[rows], radii[rows])


class TestBlockGroups:
    """``cli._blocks`` runs ``block_table`` on each of the
    ``operators.shell_windows``, groups of whole blocks of at most
    ``WINDOW_ROWS`` rows; its table is that of one call over every block,
    bit for bit on every key."""

    @staticmethod
    def assert_whole_range(amset, cas, first: int = 0):
        with np.errstate(all="ignore"):
            got, want = cli._blocks(amset, cas, first), whole_range_table(amset, cas, first)
        assert got.keys() == want.keys()
        for key, column in want.items():
            assert got[key].dtype == column.dtype, key
            assert got[key].tobytes() == column.tobytes(), key

    @pytest.mark.parametrize("n_max, groups", [(126, 1), (127, 2), (200, 3), (1000, 64)])
    def test_clean(self, n_max, groups):
        # 126 is the last basis of one window of 8192 rows and 127 the first
        # of two, its second window one block of 128 rows
        assert len(operators.shell_windows(n_max)) == groups
        for hbar in (0.3, 1.0):
            amset = build_set(build_basis(n_max), hbar)
            cas = angular.casimir(amset)
            for first in (0, n_max // 2, n_max):
                self.assert_whole_range(amset, cas, first)

    @pytest.mark.parametrize("first", [0, 150])
    def test_reordered_levels(self, first):
        # a bump of 3.5 hbar lifts the m = 0 level of block 160 (rows 12880
        # .. 13040, in the second window) past those of m = 1, 2 and 3, so
        # the levels of that window go through the sort and the others' not
        amset = build_set(build_basis(200), 0.3)
        row = amset.basis.block_range(160).start + 80
        bad = cli._apply_corruption(amset, ("jz", row, row, 1.05))
        self.assert_whole_range(bad, angular.casimir(bad), first)
        rows = amset.basis.block_range(160)
        levels = cli._blocks(bad, angular.casimir(bad), 0)["levels"][rows.start:rows.stop]
        assert levels.tobytes() != bad.jz[0].real[rows.start:rows.stop].tobytes()

    @pytest.mark.parametrize("row, col", [(8127, 8128), (8128, 8127), (8200, 16383)])
    def test_cross_shell_entries(self, row, col):
        # a J_x entry between blocks 126 and 127, each side of the first
        # window edge, and one from the second window into the third: J^2
        # stores entries off its diagonal, so radii are not all 0
        amset = build_set(build_basis(200), 1.0)
        bad = cli._apply_corruption(amset, ("jx", row, col, 1e-3))
        cas = angular.casimir(bad)
        assert set(cas) - {0}
        assert cli._blocks(bad, cas, 0)["spread"].max() > 1e-6
        self.assert_whole_range(bad, cas)


class TestSumRule:
    @pytest.mark.parametrize(
        "two_j, quarters",
        [(0, 0), (2, 8), (3, 20)],
    )
    def test_known_values(self, two_j, quarters):
        lhs, rhs = sum_rule_check(two_j)
        assert lhs == rhs == quarters

    def test_exact_equality_sweep(self):
        lhs, rhs = sum_rule_check(np.arange(2001))
        grid_sums = [int(np.sum(np.arange(-two_j, two_j + 1, 2) ** 2)) for two_j in range(2001)]
        assert lhs.tolist() == rhs.tolist() == grid_sums

    def test_python_int_fallback_matches(self):
        import schwinger.spectra as spectra

        two_j = 1501
        lhs_fast, rhs_fast = sum_rule_check(two_j)
        lhs_slow = sum(m * m for m in range(-two_j, two_j + 1, 2))
        assert (lhs_fast, rhs_fast) == (lhs_slow, lhs_slow)
        assert spectra._SUM_RULE_VECTOR_LIMIT >= 10_000

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            sum_rule_check(-1)

    @pytest.mark.parametrize("bad", [-1, spectra._SUM_RULE_VECTOR_LIMIT + 1])
    def test_one_bad_element_raises(self, bad):
        two_js = np.arange(50)
        two_js[17] = bad
        with pytest.raises(ValueError, match=str(bad)):
            sum_rule_check(two_js)

    def test_above_exact_limit_rejected(self):
        limit = spectra._SUM_RULE_VECTOR_LIMIT
        lhs, rhs = sum_rule_check(limit)
        assert lhs == rhs < np.iinfo(np.int64).max
        with pytest.raises(ValueError, match="exceeds"):
            sum_rule_check(limit + 1)


class TestMeanSquare:
    def test_examples(self):
        amset = build_set(build_basis(2), 1.0)
        r1 = analyze_block(extract_block(amset, 1))
        assert mean_square_from_spectrum(r1) == pytest.approx(0.75, abs=1e-13)
        r2 = analyze_block(extract_block(amset, 2))
        assert mean_square_from_spectrum(r2) == pytest.approx(2.0, abs=1e-13)
        r0 = analyze_block(extract_block(amset, 0))
        assert mean_square_from_spectrum(r0) == 0.0

    def test_reproduces_casimir(self):
        amset = build_set(build_basis(14), 1.0)
        for n in range(15):
            report = analyze_block(extract_block(amset, n))
            avg = mean_square_from_spectrum(report)
            assert abs(avg - report.casimir_value) < 1e-10


class TestCosTheta:
    def test_quantum_spin_half(self):
        assert cos_theta(1, 1, 1.0) == pytest.approx(1 / math.sqrt(3), abs=1e-15)

    def test_classical_extremum(self):
        assert cos_theta(2, 2, 0.0) == 1.0

    def test_negative_extremum(self):
        assert cos_theta(2, -2, 1.0) == pytest.approx(-1 / math.sqrt(2), abs=1e-15)

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            cos_theta(0, 0, 1.0)
        with pytest.raises(ValueError):
            cos_theta(2, 4, 1.0)
        with pytest.raises(ValueError):
            cos_theta(2, 1, -0.5)

    def test_overflowing_epsilon_rejected(self):
        assert cos_theta(1, 1, 8.98e307) == pytest.approx(7.46e-155, rel=1e-3)
        with pytest.raises(ValueError, match="overflows"):
            cos_theta(1, 1, 1e308)

    def test_bounded_by_one(self):
        for two_j in range(1, 30):
            for two_mj in range(-two_j, two_j + 1, 2):
                assert abs(cos_theta(two_j, two_mj, 1.0)) < 1.0
                assert abs(cos_theta(two_j, two_mj, 0.0)) <= 1.0


def extremal_cos(two_j_max: int, epsilon: float) -> np.ndarray:
    """cos theta at m = j for two_j = 1 .. two_j_max, as ``limit`` reads it."""
    two_js = np.arange(1, two_j_max + 1)
    return cos_theta(two_js, two_js, epsilon)


class TestLimitScan:
    """The extremal alignment of every two_j, from one array call."""

    def test_quantum_values(self):
        results = dict(enumerate(extremal_cos(4, 1.0), 1))
        assert results[1] == pytest.approx(0.57735, abs=5e-6)
        assert results[2] == pytest.approx(0.70711, abs=5e-6)
        assert results[4] == pytest.approx(0.81650, abs=5e-6)

    def test_classical_all_ones(self):
        assert all(value == 1.0 for value in extremal_cos(12, 0.0))

    @pytest.mark.parametrize("epsilon", [1.0, 0.5, 2.0])
    def test_strictly_increasing_and_bounded(self, epsilon):
        values = extremal_cos(400, epsilon)
        assert all(b > a for a, b in zip(values, values[1:]))
        for value in values:
            assert value < 1.0
        if epsilon == 1.0:
            for two_j, value in enumerate(values, 1):
                assert 1.0 - value <= 1.0 / two_j  # 1/(2j)

    def test_large_j_gap(self):
        final = extremal_cos(400, 1.0)[-1]
        assert 1.0 - final < 0.0025

    def test_validation(self):
        with pytest.raises(ValueError):
            cos_theta(np.arange(0, 2), np.arange(0, 2), 1.0)

    @pytest.mark.parametrize("epsilon", [0.0, 0.25, 1.0, 3.5, 8.98e307])
    def test_array_matches_scalar_bit_for_bit(self, epsilon):
        for two_j in range(1, 401):
            two_mjs = np.arange(-two_j, two_j + 1, 2)
            values = cos_theta(two_j, two_mjs, epsilon)
            # the scalar formula in Python floats, as the commands once ran it
            scalar = [(m / two_j) / math.sqrt(1.0 + 2.0 * epsilon / two_j)
                      for m in range(-two_j, two_j + 1, 2)]
            assert values.tolist() == scalar
            assert values.tolist() == [cos_theta(two_j, m, epsilon) for m in two_mjs.tolist()]

    @pytest.mark.parametrize("where", [0, 57, 399])
    def test_one_bad_element_raises(self, where):
        two_js = np.arange(1, 401)
        two_mjs = two_js.copy()
        two_mjs[where] = two_js[where] + 2
        with pytest.raises(ValueError, match=f"two_mj={two_mjs[where]} outside"):
            cos_theta(two_js, two_mjs, 1.0)
        two_js[where] = 0
        with pytest.raises(ValueError, match="two_j=0"):
            cos_theta(two_js, np.zeros_like(two_js), 1.0)


class TestHbarIndependence:
    def test_cos_table_same_for_hbar_1_and_2(self):
        tables = []
        for hbar in (1.0, 2.0):
            amset = build_set(build_basis(6), hbar)
            table = []
            for n in range(1, 7):
                report = analyze_block(extract_block(amset, n))
                for jz in report.jz_eigenvalues:
                    two_mj = round(2 * jz / hbar)
                    table.append((n, two_mj, cos_theta(n, two_mj, 1.0)))
            tables.append(table)
        assert tables[0] == tables[1]


def test_dense_oracles_not_in_package():
    dense = {"Block", "extract_block", "ConvergenceError", "jacobi_eigen",
             "block_report", "analyze_block", "SpectrumReport", "diagonal_report",
             "mean_square_from_spectrum"}
    # names no command runs, kept in the oracles of the tests
    moved = {"SparseOperator", "identity", "zero", "multiply", "add",
             "scale", "row_indices", "OccupationPair", "ClassicalState", "ClassicalJ",
             "classical_components", "state_with_j", "sample_states", "AngleResult",
             "gershgorin_discs", "limit_scan", "canonical", "from_entries", "to_csr",
             "subtract", "row_map_csr", "ladder"}
    # names deleted with the compressed-matrix layer
    gone = {"number_operator", "diagonal", "casimir_band"}
    modules = (schwinger, angular, spectra, operators, fock, classical, cli)
    for oracles in (dense, moved, gone):
        assert not oracles & set(schwinger.__all__)
        for module in modules:
            assert not oracles & set(vars(module))
    assert not {"states", "index_of"} & set(vars(schwinger.FockBasis))
    # one commutator and one adjoint in the package, the band algebra's,
    # and not the operator algebra's
    assert "diagonal_commutator" not in vars(operators)
    assert operators.commutator.__module__ == operators.__name__
    assert operators.adjoint.__module__ == operators.__name__
    assert not any(getattr(v, "__module__", None) == angular.__name__
                   for v in vars(spectra).values())


def test_public_names():
    assert sorted(schwinger.__all__) == sorted([
        "AngularMomentumSet", "FockBasis", "annihilation", "build_basis", "build_set",
        "casimir", "casimir_residual", "cos_theta", "sample_amplitudes",
        "sum_rule_check", "__version__"])
    assert all(hasattr(schwinger, name) for name in schwinger.__all__)


@pytest.mark.parametrize("module", ["schwinger", "schwinger.cli"])
def test_import_loads_no_scipy(module):
    # a fresh interpreter: the package and its commands run on numpy alone
    code = (f"import sys, {module}; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


def test_spectra_uses_no_scipy():
    # a module by its name, anything else by the module that defined it
    for value in vars(spectra).values():
        origin = getattr(value, "__module__", None) or getattr(value, "__name__", "")
        assert not str(origin).startswith("scipy"), value
