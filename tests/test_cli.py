import concurrent.futures
import contextlib
import csv
import io
import itertools
import json
import math
import multiprocessing
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
import scipy.sparse as sp

import schwinger.angular as angular
import schwinger.cli as cli
import schwinger.operators as operators
import schwinger.spectra as spectra
from schwinger import build_basis, build_set
from schwinger.cli import (
    CHUNK_RECORDS,
    COUNT_LIMIT,
    HBAR_FLOOR,
    N_MAX_LIMIT,
    TWO_J_LIMIT,
    UsageError,
    _require_hbar_tol,
    _require_in_range,
    main,
)

from oracles import (
    algebra_residuals,
    analyze_block,
    band_of,
    classical_records,
    csr_set,
    csv_text,
    equal,
    extract_block,
    from_entries,
    gershgorin_discs,
    json_text,
    max_abs,
    row_indices,
    to_csr,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def parse_csv(text):
    return list(csv.DictReader(io.StringIO(text)))


def _smallest_unindexable_nmax():
    """Least n_max whose basis, at 16 bytes a state, overflows np.intp."""
    limit = np.iinfo(np.intp).max
    n = math.isqrt(limit // 8) - 2  # 8 (n + 1)(n + 2) < limit here
    while (n + 1) * (n + 2) // 2 * 16 <= limit:
        n += 1
    return n


# one --corrupt directive at --nmax 4 that fails each verify check.  State 4
# is |1,1>, m = 0: a bump d of J_z there moves J^2 by d^2 alone, so
# jz,4,4,1e-6 fails [J_x, J_y] = i hbar J_z and the J_z grid by 1e-6 but
# leaves [J^2, J_x] and [J^2, J_y] entries of 7.1e-13, within the default
# tol; jz,4,4,1e-3 moves J^2 by 1e-6
CHECK_BREAKERS = {
    "hermitian_jx": "jx,1,3,1e-6",
    "hermitian_jy": "jy,3,5,-1e-6",
    "hermitian_jz": "jz,1,2,1e-3",
    "hermitian_jtot": "jtot,1,2,1e-3",
    "block_structure": "jtot,0,1,1e-3",
    "total_momentum_diagonal": "jtot,2,2,1e-3",
    "commutator_xy_z": "jz,4,4,1e-6",
    "commutator_yz_x": "jz,4,4,1e-6",
    "commutator_zx_y": "jz,4,4,1e-6",
    "casimir_commutes_x": "jz,4,4,1e-3",
    "casimir_commutes_y": "jz,4,4,1e-3",
    "casimir_commutes_z": "jy,3,5,-1e-6",
    "total_commutes_x": "jtot,2,2,1e-3",
    "total_commutes_y": "jtot,2,2,1e-3",
    "total_commutes_z": "jtot,1,2,1e-3",
    "quadratic_identity_quantum": "jtot,2,2,1e-3",
    "quadratic_identity_classical_form": "jtot,2,2,1e-3",
    "block_dimension": "jz,3,3,-1",
    "jz_spectrum_grid": "jz,4,4,1e-6",
    "casimir_block_value": "jx,1,2,1e-3",
    "casimir_block_spread": "jx,1,3,1e-6",
    "mean_square_consistency": "jx,1,2,1e-3",
    "sum_rule_blocks": "jz,3,3,-1",
}


# the 23 verify checks in the order of their records
REPORT_ORDER = [
    "hermitian_jx", "hermitian_jy", "hermitian_jz", "hermitian_jtot",
    "block_structure", "total_momentum_diagonal",
    "commutator_xy_z", "commutator_yz_x", "commutator_zx_y",
    "casimir_commutes_x", "casimir_commutes_y", "casimir_commutes_z",
    "total_commutes_x", "total_commutes_y", "total_commutes_z",
    "quadratic_identity_quantum", "quadratic_identity_classical_form",
    "block_dimension", "jz_spectrum_grid", "casimir_block_value",
    "casimir_block_spread", "mean_square_consistency", "sum_rule_blocks",
]


def readme_check_names() -> list:
    """The names in the first column of README's table of verify checks,
    the table under the header row ``| check | residual |``."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    rows = itertools.takewhile(lambda line: line.startswith("|"),
                               lines[lines.index("| check | residual |") + 2:])
    return [re.match(r"\| `(\w+)` \|", row).group(1) for row in rows]


# --corrupt directives at --nmax 4 that store an entry a clean operator
# leaves unstored, or leave J^2 storing entries off its diagonal, each
# with a check it fails
OFF_PATTERN_BREAKERS = {
    # off the diagonal of J
    "total_commutes_x": "jtot,3,4,1e-3",
    # off the diagonal of J_z
    "casimir_commutes_z": "jz,5,6,1e-3",
    # off J_x's first off-diagonals, so off the offsets of [J_y, J_z]
    "commutator_yz_x": "jx,0,5,1e-3",
    # on J_x's band, so only J^2 stores entries off its diagonal
    "mean_square_consistency": "jx,3,4,1e-3",
    # J_z's m = 0 entry, which [J_x, J_y] does not store
    "commutator_xy_z": "jz,4,4,1e-6",
}


def counting_canonical(monkeypatch) -> list:
    """Patch ``sum_duplicates`` of ``csr_matrix`` and ``csc_matrix``, the
    step that puts a compressed matrix in canonical form, to record the
    shape of each matrix it canonicalizes."""
    calls = []
    for cls in (sp.csr_matrix, sp.csc_matrix):
        real = cls.sum_duplicates

        def counting(self, _real=real):
            calls.append(self.shape)
            return _real(self)

        monkeypatch.setattr(cls, "sum_duplicates", counting)
    return calls


def counting_constructions(monkeypatch) -> list:
    """Patch ``csr_matrix`` and ``csc_matrix`` to record the class of each
    compressed matrix constructed."""
    calls = []
    for cls in (sp.csr_matrix, sp.csc_matrix):
        real = cls.__init__

        def counting(self, *args, _real=real, _name=cls.__name__, **kwargs):
            calls.append(_name)
            _real(self, *args, **kwargs)

        monkeypatch.setattr(cls, "__init__", counting)
    return calls


def counting_block_table(monkeypatch) -> list:
    """Patch ``block_table`` to record the two_js of every call."""
    calls = []
    real = spectra.block_table

    def counting(two_js, *args):
        calls.append(list(two_js))
        return real(two_js, *args)

    monkeypatch.setattr(spectra, "block_table", counting)
    monkeypatch.setattr(cli, "block_table", counting)
    return calls


def casimir_is_finite(amset) -> bool:
    """Whether scipy's J_x J_x + J_y J_y + J_z J_z over the matrices of
    ``amset`` stores finite entries alone."""
    m = csr_set(amset)
    with np.errstate(all="ignore"):
        return bool(np.isfinite((m.jx @ m.jx + m.jy @ m.jy + m.jz @ m.jz).data).all())


class TestVerify:
    def test_small_basis_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--nmax", "6", "--no-meta")
        assert code == 0
        doc = json.loads(out)
        assert set(doc) == {"n_max", "hbar", "tol", "checks", "blocks"}
        assert doc["n_max"] == 6 and doc["hbar"] == 1.0 and doc["tol"] == 1e-12
        assert all(c["pass"] for c in doc["checks"])
        assert {"name", "max_residual", "pass"} == set(doc["checks"][0])
        names = {c["name"] for c in doc["checks"]}
        assert {"commutator_xy_z", "quadratic_identity_quantum",
                "casimir_block_value", "sum_rule_blocks"} <= names
        assert [b["two_j"] for b in doc["blocks"]] == list(range(7))
        assert doc["blocks"][1]["casimir"] == pytest.approx(0.75, abs=1e-12)
        assert doc["blocks"][1]["jz_spectrum"] == pytest.approx([0.5, -0.5])
        assert all(b["sum_rule_pass"] for b in doc["blocks"])

    def test_vacuum_only(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--nmax", "0", "--no-meta")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["blocks"]) == 1
        assert doc["blocks"][0]["jz_spectrum"] == [0.0]

    def test_limit_guard(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--nmax", str(N_MAX_LIMIT + 1),
                                 "--no-meta")
        assert code == 2 and out == ""
        assert err == f"error: --nmax {N_MAX_LIMIT + 1} exceeds the limit {N_MAX_LIMIT}\n"

    def test_peak_memory_near_the_kept_operators(self):
        # what verify keeps at n_max 500: six operator arrays (J_x and J_y
        # two offsets each, J_z and J one) and J^2's diagonal, complex, and
        # the basis's three int64 occupations; the rest of the traced peak
        # is the build's and the windows' temporaries
        dim = build_basis(500).size
        kept = (6 * 16 + 16 + 3 * 8) * dim
        tracemalloc.start()
        try:
            cli.cmd_verify(500, 1.0, 1e-6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 1.3 * kept, peak / kept

    @pytest.mark.parametrize("directive", ["jx,1,2,1e-3", "jz,5,5,1e-3"])
    def test_corruption_on_the_band_keeps_the_clean_peak(self, directive):
        # a bump on a stored offset copies that offset alone, the old array
        # freed before J^2 is built, and shares the others
        corruption = cli._parse_corruption(directive, build_basis(500).size)
        peaks = []
        for args in ((), (corruption,)):
            tracemalloc.start()
            try:
                cli.cmd_verify(500, 1.0, 1e-6, *args)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.05 * peaks[0], peaks[1] / peaks[0]

    def test_guard_admits_the_cap_without_allocating(self):
        tracemalloc.start()
        try:
            _require_in_range("--nmax", N_MAX_LIMIT, N_MAX_LIMIT)
            with pytest.raises(UsageError, match="exceeds the limit"):
                _require_in_range("--nmax", N_MAX_LIMIT + 1, N_MAX_LIMIT)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000  # a basis at the cap would take megabytes

    @pytest.mark.parametrize(
        "directive", ["jx,1,3,1e-6", "jz,4,4,1e-6", "jtot,2,2,1e-6", "jy,3,5,-1e-6"]
    )
    def test_corruption_fails_named(self, capsys, directive):
        code, out, err = run_cli(
            capsys, "verify", "--nmax", "4", "--no-meta", "--corrupt", directive
        )
        assert code == 1
        doc = json.loads(out)
        failed = [c["name"] for c in doc["checks"] if not c["pass"]]
        assert failed
        for name in failed:
            assert f"FAILED {name}" in err

    @pytest.mark.parametrize("name, directive", sorted(CHECK_BREAKERS.items()))
    def test_every_check_can_fail(self, capsys, name, directive):
        code, out, err = run_cli(
            capsys, "verify", "--nmax", "4", "--no-meta", "--corrupt", directive
        )
        checks = {c["name"]: c["pass"] for c in json.loads(out)["checks"]}
        assert set(checks) == set(CHECK_BREAKERS)
        assert code == 1 and not checks[name]
        assert f"FAILED {name}:" in err

    @pytest.mark.parametrize("argv", [
        ["--nmax", "6"],
        ["--nmax", "6", "--corrupt", "jx,1,3,1e-6"],
        ["--nmax", "6", "--format", "csv"],
    ])
    def test_report_order(self, capsys, argv):
        code, out, _ = run_cli(capsys, "verify", "--no-meta", *argv)
        assert code == (1 if "--corrupt" in argv else 0)
        if "csv" in argv:
            names = [r["name"] for r in parse_csv(out) if r["record"] == "check"]
        else:
            names = [c["name"] for c in json.loads(out)["checks"]]
        assert names == REPORT_ORDER
        assert readme_check_names() == REPORT_ORDER

    @pytest.mark.parametrize(
        "argv",
        [
            # state 3 is |2,0>, m = 1: the bump moves it onto the m = 0 level
            ["--nmax", "4", "--corrupt", "jz,3,3,-1"],
        ],
    )
    def test_collapsed_jz_levels_fail_block_dimension(self, capsys, argv):
        code, out, err = run_cli(capsys, "verify", "--no-meta", *argv)
        assert code == 1
        failed = {c["name"] for c in json.loads(out)["checks"] if not c["pass"]}
        assert "block_dimension" in failed
        assert "FAILED block_dimension" in err

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    def test_blocks_read_off_sparse_operators(self, capsys, hbar):
        amset = build_set(build_basis(12), hbar)
        dense = [analyze_block(extract_block(amset, n)) for n in range(13)]
        # absolute residuals grow like hbar^3: 1e-12 is too tight at hbar 2
        code, out, _ = run_cli(capsys, "verify", "--nmax", "12", "--hbar", repr(hbar),
                               "--tol", "1e-10", "--no-meta")
        assert code == 0
        blocks = json.loads(out)["blocks"]
        assert len(blocks) == len(dense)
        for b, r in zip(blocks, dense):
            assert b["jz_spectrum"] == list(r.jz_eigenvalues)
            assert abs(b["casimir"] - r.casimir_value) <= 8 * np.spacing(r.casimir_value)

    @pytest.mark.parametrize("hbar", ["1e-10", "1e-16", "1.054571817e-34"])
    def test_tiny_hbar_gives_exact_casimir(self, capsys, hbar):
        code, out, _ = run_cli(capsys, "verify", "--nmax", "6", "--hbar", hbar,
                               "--no-meta")
        assert code == 0
        h = float(hbar)
        for b in json.loads(out)["blocks"]:
            j = 0.5 * b["two_j"]
            expected = j * (j + 1) * h * h
            assert abs(b["casimir"] - expected) <= 8 * np.spacing(expected)
        code, _, err = run_cli(capsys, "verify", "--nmax", "6", "--hbar", hbar,
                               "--no-meta", "--corrupt", "jx,1,3,1e-6")
        assert code == 1 and "FAILED hermitian_jx" in err

    def test_hbar_near_floor_gives_exact_casimir(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--nmax", "6", "--hbar", "1e-150",
                               "--no-meta")
        assert code == 0
        for b in json.loads(out)["blocks"]:
            j = 0.5 * b["two_j"]
            expected = j * (j + 1) * 1e-300
            assert abs(b["casimir"] - expected) <= 8 * np.spacing(expected)

    def test_large_hbar_residuals_finite(self, capsys):
        # the casimir commutator entries reach about 1e300 here, so their
        # squares would overflow; every residual must stay finite
        code, out, err = run_cli(capsys, "verify", "--nmax", "3", "--hbar", "1e100",
                                 "--no-meta")
        assert code == 1 and "FAILED casimir_commutes_x" in err
        assert all(np.isfinite(c["max_residual"]) for c in json.loads(out)["checks"])

    def test_far_corrupted_level_fails_sum_rule_finitely(self, capsys):
        # the level sits at 2m = 2e160, whose square overflows
        code, out, err = run_cli(capsys, "verify", "--nmax", "4", "--hbar", "1e-100",
                                 "--corrupt", "jz,0,0,1e60", "--no-meta")
        assert code == 1 and "FAILED sum_rule_blocks" in err
        assert all(np.isfinite(c["max_residual"]) for c in json.loads(out)["checks"])

    def test_small_corruption_applied(self):
        amset = build_set(build_basis(4), 1.0)
        bumped = cli._apply_corruption(amset, ("jx", 1, 3, 1e-17))
        assert not equal(csr_set(bumped).jx, csr_set(amset).jx)
        assert csr_set(bumped).jx.toarray()[1, 3] == 1e-17

    @pytest.mark.parametrize("corruptions", [
        [("jx", 1, 2, 1e-3)], [("jz", 5, 5, -0.37)], [("jy", 0, 5, 1e-3)],
        # the second bump cancels the first: offset 5 is all zero and dropped
        [("jx", 0, 5, 1e-3), ("jx", 0, 5, -1e-3)],
    ], ids=["jx-on-band", "jz-diagonal", "jy-new-offset", "cancelled"])
    def test_corruption_copies_only_its_offset(self, corruptions):
        # the bumped offset has the bits of adding a one-entry band, and
        # every other offset is the operator's own array
        amset = build_set(build_basis(4), 0.3)
        for name, row, col, delta in corruptions:
            op = getattr(amset, name)
            bump = np.zeros(amset.basis.size, dtype=complex)
            bump[row] = delta
            want = operators.plus(op, {col - row: bump})
            amset = cli._apply_corruption(amset, (name, row, col, delta))
            got = getattr(amset, name)
            assert sorted(got) == sorted(want)
            for p, values in got.items():
                assert values.tobytes() == want[p].tobytes()
                assert (values is op.get(p)) == (p != col - row)

    @pytest.mark.parametrize(
        "name, row, col, expected",
        [
            # (1, 3) links blocks 1 and 2 with block 0 clean, so a maximum
            # that drops NaN would pass block_structure and the block spread
            ("jx", 1, 3, {"hermitian_jx", "block_structure", "casimir_block_spread"}),
            ("jtot", 2, 2, {"total_momentum_diagonal"}),
            ("jz", 3, 3, {"jz_spectrum_grid", "sum_rule_blocks"}),
        ],
    )
    def test_nan_entry_fails_checks(self, name, row, col, expected):
        # frozen refuses a NaN entry before any check reads it; a finite
        # bump of the same entry fails the checks a NaN there failed
        amset = build_set(build_basis(3), 1.0)
        with pytest.raises(OverflowError):
            cli._apply_corruption(amset, (name, row, col, np.nan))
        bad = cli._apply_corruption(amset, (name, row, col, 1.0))
        checks, _ = cli.run_battery(bad, angular.casimir(bad), 1e-12)
        assert expected <= {c["name"] for c in checks if not c["pass"]}

    def test_casimir_built_once(self, capsys, monkeypatch):
        calls = []
        real = angular.casimir

        def counting(amset):
            calls.append(amset)
            return real(amset)

        monkeypatch.setattr(angular, "casimir", counting)
        monkeypatch.setattr(cli, "casimir", counting)
        code, _, _ = run_cli(capsys, "verify", "--nmax", "6", "--no-meta")
        assert code == 0 and len(calls) == 1

    def test_block_table_built_once(self, capsys, monkeypatch):
        calls = counting_block_table(monkeypatch)
        code, _, _ = run_cli(capsys, "verify", "--nmax", "6", "--no-meta")
        assert code == 0 and calls == [list(range(7))]

    def test_canonicalizations_counted(self, capsys, monkeypatch):
        # the operators are bands, and a corruption adds its entry to one,
        # so nothing is canonicalized, clean or corrupted
        calls = counting_canonical(monkeypatch)
        code, _, _ = run_cli(capsys, "verify", "--nmax", "4", "--no-meta")
        assert code == 0 and calls == []
        code, _, _ = run_cli(capsys, "verify", "--nmax", "4", "--no-meta",
                             "--corrupt", "jx,1,3,1e-6")
        assert code == 1 and calls == []

    def test_constructions_counted(self, capsys, monkeypatch):
        # the mode operators are row maps and every J operator a band,
        # corrupted or not: no compressed matrix is built
        calls = counting_constructions(monkeypatch)
        for corrupt in ([], ["--corrupt", "jx,1,3,1e-6"], ["--corrupt", "jx,0,5,1e-3"]):
            code, _, _ = run_cli(capsys, "verify", "--nmax", "5", "--no-meta", *corrupt)
            assert code == (1 if corrupt else 0) and calls == []

    @pytest.mark.parametrize("directive", [None, *sorted(OFF_PATTERN_BREAKERS.values())])
    def test_battery_builds_no_matrix(self, monkeypatch, directive):
        # an entry a clean operator leaves unstored is one more stored
        # entry of its band: clean or corrupted, the battery constructs no
        # compressed matrix
        amset = build_set(build_basis(4), 0.3)
        if directive:
            amset = cli._apply_corruption(amset, cli._parse_corruption(directive, amset.basis.size))
        calls = counting_constructions(monkeypatch)
        cli.run_battery(amset, angular.casimir(amset), 1e-12)
        assert calls == []

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 2.0, 1e-30])
    @pytest.mark.parametrize("n_max", [0, 1, 7, 40])
    def test_residuals_match_operator_algebra(self, n_max, hbar):
        amset = build_set(build_basis(n_max), hbar)
        checks, _ = cli.run_battery(amset, angular.casimir(amset), 1e-12)
        got = {c["name"]: c["max_residual"] for c in checks}
        for name, want in algebra_residuals(amset).items():
            assert got[name] == want, name

    @pytest.mark.parametrize("n_max, directive, hbar", [
        pytest.param(n_max, directive, hbar,
                     id=f"{n_max}-{directive}" + ("" if hbar == 1.0 else f"-hbar{hbar}"))
        for hbar in (1.0, 0.5, 2.0)
        for n_max, directive in [
            *((4, d) for d in sorted({*CHECK_BREAKERS.values(),
                                      *OFF_PATTERN_BREAKERS.values()})),
            # far off the band: scipy returns the products' entries out of order
            (23, "jy,80,8,1e-3"),
            # small_mix-style: +-1e-3 at an entry off the diagonal of J_z or J
            (40, "jz,611,152,-0.001"),
            (40, "jtot,377,378,0.001"),
        ]
    ] + [
        # a complex J_y entry and a diagonal J^2 with complex entries: the
        # scaled [J_y, J^2] is multiplied as scipy's product multiplies
        pytest.param(n_max, "jy,1,2,0.37", 0.3, id=f"{n_max}-jy,1,2,0.37-hbar0.3")
        for n_max in (1, 4, 7)
    ] + [
        # a NaN or an infinite entry, which _apply_corruption refuses, and
        # an hbar at which J^2 overflows, which casimir refuses
        pytest.param(n_max, directive, hbar, id=f"{n_max}-{directive}-hbar{hbar}")
        for n_max, directive, hbar in [
            (4, "jx,1,3,nan", 1.0), (4, "jz,4,4,nan", 0.3), (7, "jy,3,4,nan", 2.0),
            (4, "jtot,2,2,nan", 1.0), (6, "jx,1,2,1e-3", 1e160), (6, "jz,3,3,-1", 1e160),
            (23, "jy,80,8,1e-3", 1e160),
            (4, "jx,1,2,inf", 1.0), (4, "jz,4,4,-inf", 0.3), (7, "jy,3,4,inf", 2.0),
            (4, "jtot,2,2,inf", 1.0), (4, "jx,1,3,inf", 0.3),
        ]
    ] + [
        # finite operators and J^2 whose residuals overflow: [J^2, J_i] or
        # J J reads inf, or inf - inf = NaN, exactly as through scipy
        pytest.param(n_max, directive, hbar, id=f"{n_max}-{directive}-hbar{hbar}")
        for n_max, directive, hbar in [
            (4, "jz,4,4,0.37", 1e120), (4, "jx,0,3,1e110", 1e100), (7, "jy,11,12,1e160", 2.0),
            (4, "jtot,1,12,1.5e308", 1.0), (12, "jtot,67,80,1.5e308", 1.0),
        ]
    ])
    def test_corrupted_residuals_match_operator_algebra(self, n_max, directive, hbar):
        amset = build_set(build_basis(n_max), hbar)
        name, row, col, delta = directive.split(",")
        corruption = (name, int(row), int(col), float(delta))
        if not math.isfinite(corruption[3]):
            with pytest.raises(OverflowError):
                cli._apply_corruption(amset, corruption)
            return
        bad = cli._apply_corruption(amset, corruption)
        if not casimir_is_finite(bad):
            with np.errstate(all="ignore"), pytest.raises(OverflowError):
                angular.casimir(bad)
            return
        self.assert_residuals_match_operator_algebra(bad)

    def test_overflowing_casimir_matches_operator_algebra(self):
        # J_x^2 overflows at hbar 1e160, where scipy's J^2 stores inf and
        # NaN entries: casimir refuses it
        amset = build_set(build_basis(6), 1e160)
        assert not casimir_is_finite(amset)
        with np.errstate(all="ignore"), pytest.raises(OverflowError):
            angular.casimir(amset)
        # at 1e110 J^2 is finite, but [J^2, J_i] overflows in both orders
        # and reads NaN
        amset = build_set(build_basis(6), 1e110)
        assert casimir_is_finite(amset)
        got = self.assert_residuals_match_operator_algebra(amset)
        assert all(math.isnan(got[f"casimir_commutes_{axis}"]) for axis in "xyz")

    @staticmethod
    def assert_residuals_match_operator_algebra(amset) -> dict:
        """The battery's residuals of ``amset`` are scipy's, NaN for NaN;
        returns them by check name."""
        with np.errstate(all="ignore"):
            checks, _ = cli.run_battery(amset, angular.casimir(amset), 1e-12)
            want = algebra_residuals(amset)
        got = {c["name"]: c["max_residual"] for c in checks}
        for name, value in want.items():
            assert got[name] == value or (math.isnan(got[name]) and math.isnan(value)), name
        return got

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("hbar", [1e-150, 1e-30, 0.3, 1.0, 1e30, 1e150])
    def test_windows_keep_residuals(self, monkeypatch, rows, hbar):
        # corruptions on and off the band, and far off it: two across the
        # edge at row 55, between shells 9 and 10, which every window size
        # here cuts, and one whose row and column lie in other windows
        sets = [(n_max, None) for n_max in (0, 1, 30)] + [
            (4, ("jz", 4, 4, -1.0)), (12, ("jx", 20, 27, 1e-3)), (13, ("jtot", 55, 54, 0.37)),
            (12, ("jx", 54, 55, 1e-3)), (30, ("jy", 400, 5, 1e-3)),
        ]
        for n_max, corruption in sets:
            amset = build_set(build_basis(n_max), hbar)
            if corruption:
                name, row, col, delta = corruption
                amset = cli._apply_corruption(amset, (name, row, col, delta * hbar))
            self.assert_windows_keep_residuals(monkeypatch, amset, rows)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("n_max, directive, hbar", [
        (4, "jx,1,2,inf", 1.0), (4, "jz,4,4,-inf", 0.3), (7, "jy,3,4,inf", 2.0),
        (4, "jtot,2,2,inf", 1.0), (4, "jx,1,3,inf", 0.3),
        (4, "jx,1,3,nan", 1.0), (4, "jz,4,4,nan", 0.3), (7, "jy,3,4,nan", 2.0),
        (4, "jtot,2,2,nan", 1.0),
    ])
    def test_windows_keep_infinite_residuals(self, monkeypatch, rows, n_max, directive, hbar):
        # an inf or NaN entry is refused before any window reads it; a
        # finite bump of the same entry keeps its residuals in windows
        name, row, col, delta = directive.split(",")
        amset = build_set(build_basis(n_max), hbar)
        with pytest.raises(OverflowError):
            cli._apply_corruption(amset, (name, int(row), int(col), float(delta)))
        amset = cli._apply_corruption(amset, (name, int(row), int(col), 0.37))
        self.assert_windows_keep_residuals(monkeypatch, amset, rows)

    @pytest.mark.parametrize("rows", [1, 7, 64])
    @pytest.mark.parametrize("n_max, corruption, hbar, non_finite", [
        # finite operators and J^2 whose residuals read inf or NaN in a
        # later window than finite ones, which a maximum through max or
        # np.nanmax would drop: [J^2, J_i] is inf - inf past the vacuum row
        (4, None, 1e120, {"casimir_commutes_x", "casimir_commutes_y", "casimir_commutes_z"}),
        (7, ("jy", 11, 12, 1e160), 2.0, {"casimir_commutes_y"}),
        # J J and [J_i, J] overflow in row 67, inside the second window of
        # 64 rows (shells 10 .. 12, rows 55 .. 90), and in row 55, its first
        # row and the first of shell 10, which every window size here cuts
        (12, ("jtot", 67, 80, 1.5e308), 1.0,
         {"total_commutes_x", "total_commutes_y", "total_commutes_z",
          "quadratic_identity_quantum", "quadratic_identity_classical_form"}),
        (12, ("jtot", 55, 80, 1.5e308), 1.0,
         {"total_commutes_x", "total_commutes_y", "total_commutes_z",
          "quadratic_identity_quantum", "quadratic_identity_classical_form"}),
    ], ids=["4-hbar1e120", "7-jy,11,12,1e160-hbar2.0", "12-jtot,67,80,1.5e308-hbar1.0",
            "12-jtot,55,80,1.5e308-hbar1.0"])
    def test_windows_keep_overflowing_residuals(self, monkeypatch, rows, n_max, corruption,
                                                hbar, non_finite):
        amset = build_set(build_basis(n_max), hbar)
        if corruption:
            amset = cli._apply_corruption(amset, corruption)
        got = self.assert_windows_keep_residuals(monkeypatch, amset, rows)
        assert {name for name, value in got.items() if not math.isfinite(value)} == non_finite

    @staticmethod
    def assert_windows_keep_residuals(monkeypatch, amset, rows) -> dict:
        """``run_battery``'s 23 residuals over windows of ``rows`` rows are
        the residuals of one window to the bit; returns them by name."""
        with np.errstate(all="ignore"):
            want, _ = cli.run_battery(amset, angular.casimir(amset), 1e-12)
            with monkeypatch.context() as m:
                m.setattr(operators, "WINDOW_ROWS", rows)
                got, _ = cli.run_battery(amset, angular.casimir(amset), 1e-12)
        assert len(got) == len(want) == 23
        for g, w in zip(got, want):
            assert g["name"] == w["name"]
            assert np.float64(g["max_residual"]).tobytes() == np.float64(w["max_residual"]).tobytes() \
                or math.isnan(g["max_residual"]) and math.isnan(w["max_residual"]), g["name"]
        return {g["name"]: g["max_residual"] for g in got}

    @pytest.mark.parametrize("directive, name", [
        # the entry (8127, 8128) ends shell 126 and its mirror starts shell
        # 127, across the first window edge
        ("jx,8127,8128,1e-3", "hermitian_jx"),
        # an entry of shell 127 and its mirror, inside the second window
        ("jx,8191,8192,1e-3", "hermitian_jx"),
        # an offset of -19995, from the third window into the first
        ("jy,20000,5,1e-3", "hermitian_jy"),
    ])
    def test_corruption_across_windows_fails(self, capsys, directive, name):
        assert [rows for _, rows in operators.shell_windows(200)] == [
            slice(0, 8128), slice(8128, 16290), slice(16290, 20301)]
        code, _, err = run_cli(capsys, "verify", "--nmax", "200", "--tol", "1e-6", "--no-meta",
                               "--corrupt", directive)
        assert code == 1 and f"FAILED {name}:" in err

    def test_documented_cap_passes(self, capsys):
        # n_max 500 takes 16 windows
        assert len(operators.shell_windows(500)) == 16
        code, _, err = run_cli(capsys, "verify", "--nmax", "500", "--tol", "1e-8", "--no-meta")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("argv", [["--nmax", "24"], ["--nmax", "1000", "--tol", "1e-7"]])
    def test_clean_set_passes_on_its_largest_entry(self, capsys, argv):
        # casimir_commutes_x's largest entry reads 2.3e-13 and 2.2e-8 here; a
        # norm that summed the rounding of every stored entry would fail both
        code, _, err = run_cli(capsys, "verify", *argv, "--no-meta")
        assert (code, err) == (0, "")

    @pytest.mark.parametrize("name, directive", sorted(OFF_PATTERN_BREAKERS.items()))
    def test_off_diagonal_operand_fails(self, capsys, name, directive):
        code, _, err = run_cli(capsys, "verify", "--nmax", "4", "--no-meta",
                               "--corrupt", directive)
        assert code == 1 and f"FAILED {name}:" in err

    def test_bad_corrupt_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--nmax", "2", "--no-meta", "--corrupt", "bogus"
        )
        assert code == 2 and "corrupt" in err

    def test_empty_corrupt_spec(self, capsys):
        # an empty directive is a bad directive, not "no corruption"
        code, out, err = run_cli(capsys, "verify", "--nmax", "3", "--no-meta",
                                 "--corrupt", "")
        assert (code, out) == (2, "")
        assert err == "error: bad --corrupt value ''; expected OP,ROW,COL,DELTA\n"

    @pytest.mark.parametrize("argv, code, err", [
        # a zero DELTA, on a stored entry of J_x and on an entry it leaves
        # unstored, would run the clean battery and exit 0
        (["--corrupt", "jx,1,2,0"], 2,
         "error: --corrupt DELTA 0.0 leaves entry (1,2) of jx unchanged\n"),
        (["--corrupt", "jx,0,5,-0.0"], 2,
         "error: --corrupt DELTA -0.0 leaves entry (0,5) of jx unchanged\n"),
        # state 3 is |2,0>, whose J_z entry 1.0 absorbs 1e-30
        (["--corrupt", "jz,3,3,1e-30"], 2,
         "error: --corrupt DELTA 1e-30 leaves entry (3,3) of jz unchanged\n"),
        # at hbar 1e20 the same entry absorbs the bumps CI uses
        (["--hbar", "1e20", "--corrupt", "jz,3,3,1e-3"], 2,
         "error: --corrupt DELTA 0.001 leaves entry (3,3) of jz unchanged\n"),
        (["--corrupt", "jx,1,2,nan"], 2, "error: --corrupt DELTA must be finite, got 'nan'\n"),
        # a bump that lands on the stored entry breaks the Hermiticity of J_x
        (["--corrupt", "jx,1,2,1e-3"], 1, "FAILED hermitian_jx: "),
        # one that lands on an entry J_x leaves unstored is judged by tol alone
        (["--corrupt", "jx,0,5,5e-324"], 0, ""),
    ], ids=["zero-stored", "zero-unstored", "absorbed", "absorbed-large-hbar", "nan",
            "lands", "lands-unstored"])
    def test_corrupt_must_change_its_entry(self, capsys, argv, code, err):
        got, out, text = run_cli(capsys, "verify", "--nmax", "2", "--no-meta", *argv)
        assert got == code and text.startswith(err)
        assert (out == "") == (code == 2)

    def test_csv_json_numeric_parity(self, capsys):
        _, json_out, _ = run_cli(capsys, "verify", "--nmax", "5", "--no-meta")
        _, csv_out, _ = run_cli(
            capsys, "verify", "--nmax", "5", "--no-meta", "--format", "csv"
        )
        doc = json.loads(json_out)
        rows = parse_csv(csv_out)
        check_rows = {r["name"]: r for r in rows if r["record"] == "check"}
        assert len(check_rows) == len(doc["checks"])
        for c in doc["checks"]:
            assert float(check_rows[c["name"]]["max_residual"]) == c["max_residual"]
        block_rows = [r for r in rows if r["record"] == "block"]
        for b, r in zip(doc["blocks"], block_rows):
            assert int(r["two_j"]) == b["two_j"]
            assert float(r["casimir"]) == b["casimir"]
            assert [float(x) for x in r["jz_spectrum"].split(";")] == b["jz_spectrum"]
        config_rows = {r["name"]: r["value"] for r in rows if r["record"] == "config"}
        assert int(config_rows["n_max"]) == doc["n_max"]
        assert float(config_rows["hbar"]) == doc["hbar"]
        assert float(config_rows["tol"]) == doc["tol"]


def spread_of_discs(amset, cas) -> np.ndarray:
    """The per-block spread from the oracle's discs of the Hermitian part
    of ``cas``, the band of J^2."""
    discs = gershgorin_discs(to_csr(cas, amset.basis.size))
    return spectra.block_table(range(amset.basis.n_max + 1), amset.hbar,
                               csr_set(amset).jz.diagonal(), *discs)["spread"]


class TestHermiticityResidual:
    """The battery's Hermiticity residual, the largest entry of the band
    ``op - adjoint(op)``, is ``max_abs(m - m^dag)`` of the canonical
    matrix ``m`` to the bit, wherever the band stores its entries."""

    @staticmethod
    def residual(op: dict) -> float:
        return operators.max_abs(operators.minus(op, operators.adjoint(op)))

    @classmethod
    def assert_same_bits(cls, op: dict, dim: int):
        m = to_csr(op, dim)
        with np.errstate(invalid="ignore"):
            got, want = cls.residual(op), max_abs(m - m.conj().T)
        assert np.float64(got).tobytes() == np.float64(want).tobytes()

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 2.0, 1e-30])
    @pytest.mark.parametrize("n_max", [0, 1, 7, 40])
    def test_clean_operators(self, n_max, hbar):
        amset = build_set(build_basis(n_max), hbar)
        for op in (amset.jx, amset.jy, amset.jz, amset.jtot):
            self.assert_same_bits(op, amset.basis.size)

    @pytest.mark.parametrize("name, row, col, delta, same_offsets", [
        ("jx", 1, 2, 1e-3, True),      # on the band: J_x(2, 1) is stored too
        ("jy", 4, 3, -1e-6, True),
        ("jx", 1, 2, np.nan, True),
        ("jy", 3, 4, np.inf, True),
        ("jz", 2, 2, np.inf, True),
        ("jx", 1, 3, 1e-3, False),     # off the band: J_x(3, 1) is not stored
        ("jtot", 3, 4, 1e-3, False),
    ])
    def test_corrupted_operators(self, name, row, col, delta, same_offsets):
        # same_offsets: the bumped operator stores the offsets it stored;
        # an inf or NaN entry is refused before any residual reads it
        amset = build_set(build_basis(4), 0.3)
        if not math.isfinite(delta):
            with pytest.raises(OverflowError):
                cli._apply_corruption(amset, (name, row, col, delta))
            return
        op = getattr(cli._apply_corruption(amset, (name, row, col, delta)), name)
        assert (set(op) == set(getattr(amset, name))) == same_offsets
        self.assert_same_bits(op, amset.basis.size)

    def test_jy_off_its_band_is_its_own_residual(self, capsys):
        # jy,0,5 gives J_y an entry at offset 5, whose mirror at offset -5
        # is not stored: the residual is the entry itself
        amset = build_set(build_basis(4), 0.3)
        bad = cli._apply_corruption(amset, cli._parse_corruption("jy,0,5,1e-3", amset.basis.size))
        assert set(bad.jy) == {-1, 1, 5} and self.residual(bad.jy) > 0
        for op in (bad.jx, bad.jy):
            self.assert_same_bits(op, amset.basis.size)
        code, _, err = run_cli(capsys, "verify", "--nmax", "4", "--no-meta",
                               "--corrupt", "jy,0,5,1e-3")
        assert code == 1 and "FAILED hermitian_jy:" in err

    def test_transpose_with_the_same_row_counts(self):
        # a cyclic permutation: one entry in every row of op and of op^T,
        # but at offsets 1, 1 and -2, whose mirrors are not stored
        op = band_of(from_entries(3, [0, 1, 2], [1, 2, 0], [1.0, 2.0, 3.0]))
        self.assert_same_bits(op, 3)
        assert self.residual(op) == 3.0

    def test_operator_storing_nothing(self):
        self.assert_same_bits({}, 6)
        assert self.residual({}) == 0.0

    @pytest.mark.parametrize("values", [
        [0.0, 0.5, -1.5, 0.0],
        [complex(-0.0, 1.0), 2.0, complex(3.0, -0.0), complex(0.7, 0.1)],
        [np.nan, 1.0, 0.0, -2.0],
        [complex(np.inf, 0.0), complex(1.0, -np.inf), 0.3, 0.0],
    ])
    def test_diagonal_operand_reads_its_vector(self, values):
        # a band at offset 0 alone is its own transpose up to conjugation
        op = band_of(from_entries(4, range(4), range(4), values))
        assert set(op) <= {0}
        self.assert_same_bits(op, 4)

    def test_clean_diagonal_operands(self):
        for n_max in (0, 1, 7, 40):
            amset = build_set(build_basis(n_max), 0.3)
            for op in (amset.jz, amset.jtot):
                assert set(op) <= {0} and self.residual(op) == 0.0


class TestCasimirDiscs:
    """verify reads J^2's Gershgorin discs off its stored entries."""

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 2.0, 1e-30, 1.054571817e-34])
    def test_clean_casimir_stores_no_off_diagonal_entry(self, hbar):
        for n_max in range(41):
            amset = build_set(build_basis(n_max), hbar)
            cas = to_csr(angular.casimir(amset), amset.basis.size)
            assert np.array_equal(row_indices(cas), cas.indices), n_max
            assert set(angular.casimir(amset)) <= {0}, n_max

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 0.3])
    @pytest.mark.parametrize("row, col, delta", [(1, 2, 1e-6), (3, 5, -2.5e-3), (6, 14, 1e-9)])
    def test_hermitian_pair_reads_hermitian_part_spread(self, hbar, row, col, delta):
        amset = build_set(build_basis(5), hbar)
        bad = cli._apply_corruption(amset, ("jx", row, col, delta))
        bad = cli._apply_corruption(bad, ("jx", col, row, delta))
        spread = cli._blocks(bad, angular.casimir(bad), 0)["spread"]
        assert spread.max() > 0
        assert np.array_equal(spread, spread_of_discs(bad, angular.casimir(bad)))

    def test_single_entry_bounds_hermitian_part_spread(self, capsys):
        amset = build_set(build_basis(4), 1.0)
        bad = cli._apply_corruption(amset, cli._parse_corruption("jx,1,3,1e-6", amset.basis.size))
        # the check reads the largest spread; a block's own can fall, since
        # the entry now widens only the disc of its row, not of its mirror
        spread = cli._blocks(bad, angular.casimir(bad), 0)["spread"]
        assert spread.max() >= spread_of_discs(bad, angular.casimir(bad)).max() > 0
        code, _, err = run_cli(capsys, "verify", "--nmax", "4", "--no-meta",
                               "--corrupt", "jx,1,3,1e-6")
        assert code == 1 and "FAILED casimir_block_spread:" in err


class TestDeterminism:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_identical_flags_identical_bytes(self, capsys, fmt):
        args = ("verify", "--nmax", "4", "--format", fmt)
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_meta_on_stderr_not_stdout(self, capsys):
        _, out, err = run_cli(capsys, "verify", "--nmax", "2")
        assert err.startswith("# schwinger")
        assert "# schwinger" not in out

    def test_no_meta_silences_stderr(self, capsys):
        _, _, err = run_cli(capsys, "verify", "--nmax", "2", "--no-meta")
        assert err == ""

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        _, stdout_text, _ = run_cli(capsys, "verify", "--nmax", "3", "--no-meta")
        path = tmp_path / "report.json"
        code, out, _ = run_cli(
            capsys, "verify", "--nmax", "3", "--no-meta", "--out", str(path)
        )
        assert code == 0 and out == ""
        assert path.read_text(encoding="utf-8") == stdout_text

    def test_unwritable_out_is_io_error(self, capsys, tmp_path):
        # the output is opened before the metadata header is printed, so
        # with or without the header stderr holds the error line alone
        path = tmp_path / "missing-dir" / "report.json"
        for meta in ([], ["--no-meta"]):
            code, _, err = run_cli(
                capsys, "verify", "--nmax", "2", *meta, "--out", str(path)
            )
            assert code == 2
            assert err.startswith("I/O error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["sumrule", "--two-j-max", "1"],
                                      ["verify", "--nmax", "2"]])
    def test_empty_out_is_io_error(self, capsys, argv):
        # an empty PATH names no file; it does not mean stdout
        for meta in ([], ["--no-meta"]):
            code, out, err = run_cli(capsys, *argv, *meta, "--out", "")
            assert (code, out) == (2, "")
            assert err == "I/O error: [Errno 2] No such file or directory: ''\n"

    def test_thread_env_does_not_change_output(self, capsys, monkeypatch):
        _, base, _ = run_cli(capsys, "verify", "--nmax", "5", "--no-meta")
        monkeypatch.setenv("SCHWINGER_THREADS", "4")
        _, threaded, _ = run_cli(capsys, "verify", "--nmax", "5", "--no-meta")
        assert threaded == base


class TestSpectrum:
    def test_spin_one(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "2", "--no-meta")
        assert code == 0
        doc = json.loads(out)
        assert doc["casimir"] == pytest.approx(2.0, abs=1e-12)
        assert doc["mean_square"] == pytest.approx(2.0, abs=1e-12)
        assert [r["two_mj"] for r in doc["rows"]] == [2, 0, -2]

    def test_hbar_scaling(self, capsys):
        _, out, _ = run_cli(
            capsys, "spectrum", "--n", "1", "--hbar", "2", "--no-meta"
        )
        doc = json.loads(out)
        assert [r["jz"] for r in doc["rows"]] == pytest.approx([1.0, -1.0])

    def test_four_levels(self, capsys):
        _, out, _ = run_cli(
            capsys, "spectrum", "--n", "3", "--no-meta", "--format", "csv"
        )
        rows = parse_csv(out)
        assert len(rows) == 4
        assert [int(r["two_mj"]) for r in rows] == [3, 1, -1, -3]

    def test_tiny_hbar_casimir(self, capsys):
        code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--hbar", "1e-16",
                               "--no-meta")
        assert code == 0
        casimir = json.loads(out)["casimir"]
        assert abs(casimir - 3.75e-32) <= 8 * np.spacing(3.75e-32)

    @pytest.mark.parametrize("n, hbar", [(3, "1.0"), (60, "0.3"), (96, "1.0"), (1000, "1.0")])
    def test_max_residual_is_the_checks(self, capsys, n, hbar):
        # the document's max_residual is the one casimir_block_spread judges
        code, out, err = run_cli(capsys, "spectrum", "--n", str(n), "--hbar", hbar,
                                 "--tol", "1e-300", "--no-meta")
        residual = json.loads(out)["max_residual"]
        _, _, [check] = cli.cmd_spectrum(n, n, float(hbar), 1e-300)
        assert check["name"] == "casimir_block_spread"
        assert residual == check["max_residual"]
        assert (code == 1) == (residual > 0) == (f"max_residual {residual:.17g} " in err)

    def test_block_must_fit_cutoff(self, capsys):
        code, _, err = run_cli(
            capsys, "spectrum", "--n", "5", "--nmax", "3", "--no-meta"
        )
        assert code == 2 and "exceeds" in err

    def test_csv_json_parity(self, capsys):
        _, json_out, _ = run_cli(capsys, "spectrum", "--n", "3", "--no-meta")
        _, csv_out, _ = run_cli(
            capsys, "spectrum", "--n", "3", "--no-meta", "--format", "csv"
        )
        doc = json.loads(json_out)
        rows = parse_csv(csv_out)
        assert [int(r["two_mj"]) for r in rows] == [r["two_mj"] for r in doc["rows"]]
        assert [float(r["jz"]) for r in rows] == [r["jz"] for r in doc["rows"]]
        assert all(float(r["casimir"]) == doc["casimir"] for r in rows)
        assert all(float(r["mean_square"]) == doc["mean_square"] for r in rows)

    @pytest.mark.parametrize("hbar", [0.5, 1.0, 2.0])
    def test_block_read_off_sparse_operators(self, capsys, hbar):
        amset = build_set(build_basis(8), hbar)
        dense = [analyze_block(extract_block(amset, n)) for n in range(9)]
        for n, r in enumerate(dense):
            code, out, _ = run_cli(capsys, "spectrum", "--n", str(n), "--nmax", "8",
                                   "--hbar", repr(hbar), "--no-meta")
            assert code == 0
            doc = json.loads(out)
            assert [row["jz"] for row in doc["rows"]] == list(r.jz_eigenvalues)
            assert abs(doc["casimir"] - r.casimir_value) <= 8 * np.spacing(r.casimir_value)

    def test_basis_stops_at_n(self, capsys, monkeypatch):
        sizes = []
        real = cli.build_basis

        def spying(n_max):
            sizes.append(n_max)
            return real(n_max)

        monkeypatch.setattr(cli, "build_basis", spying)
        code, out, _ = run_cli(capsys, "spectrum", "--n", "3", "--nmax", "1000", "--no-meta")
        assert code == 0 and sizes == [3]
        assert json.loads(out)["n_max"] == 1000

    def test_block_table_built_once(self, capsys, monkeypatch):
        calls = counting_block_table(monkeypatch)
        code, _, _ = run_cli(capsys, "spectrum", "--n", "5", "--nmax", "9", "--no-meta")
        assert code == 0 and calls == [[5]]

    def test_canonicalizations_counted(self, capsys, monkeypatch):
        calls = counting_canonical(monkeypatch)
        code, _, _ = run_cli(capsys, "spectrum", "--n", "5", "--no-meta")
        assert code == 0 and calls == []

    def test_constructions_counted(self, capsys, monkeypatch):
        # no compressed matrix, as for verify
        calls = counting_constructions(monkeypatch)
        code, _, _ = run_cli(capsys, "spectrum", "--n", "5", "--no-meta")
        assert code == 0 and calls == []

    @pytest.mark.parametrize("flags", [["--tol", "1e-100"], ["--hbar", "1e120"]])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_spread_above_tol_fails(self, capsys, flags, fmt):
        code, out, err = run_cli(capsys, "spectrum", "--n", "3", *flags,
                                 "--format", fmt, "--no-meta")
        assert code == 1
        assert err.startswith("FAILED casimir_block_spread: max_residual ")
        assert err.count("\n") == 1
        rows = json.loads(out)["rows"] if fmt == "json" else parse_csv(out)
        assert [int(r["two_mj"]) for r in rows] == [3, 1, -1, -3]


class TestSumrule:
    def test_table(self, capsys):
        code, out, _ = run_cli(capsys, "sumrule", "--two-j-max", "8", "--no-meta")
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 9
        assert doc["all_pass"] is True
        row3 = doc["rows"][3]
        assert row3["lhs_quarters"] == row3["rhs_quarters"] == 20

    def test_zero_row(self, capsys):
        _, out, _ = run_cli(capsys, "sumrule", "--two-j-max", "0", "--no-meta")
        doc = json.loads(out)
        assert doc["rows"] == [
            {"two_j": 0, "lhs_quarters": 0, "rhs_quarters": 0, "pass": True}
        ]

    def test_csv_json_parity(self, capsys):
        _, json_out, _ = run_cli(capsys, "sumrule", "--two-j-max", "5", "--no-meta")
        _, csv_out, _ = run_cli(
            capsys, "sumrule", "--two-j-max", "5", "--no-meta", "--format", "csv"
        )
        doc = json.loads(json_out)
        rows = [r for r in parse_csv(csv_out) if r["record"] == "row"]
        for jrow, crow in zip(doc["rows"], rows):
            assert int(crow["lhs_quarters"]) == jrow["lhs_quarters"]
            assert int(crow["rhs_quarters"]) == jrow["rhs_quarters"]

    def test_at_the_cap(self, capsys, monkeypatch):
        calls = []

        def counting(two_j):
            calls.append(len(two_j))
            return spectra.sum_rule_check(two_j)

        monkeypatch.setattr(cli, "sum_rule_check", counting)
        code, out, err = run_cli(capsys, "sumrule", "--two-j-max", str(TWO_J_LIMIT),
                                 "--no-meta")
        assert code == 0 and err == "" and calls == [TWO_J_LIMIT + 1]
        doc = json.loads(out)
        assert doc["all_pass"] is True and len(doc["rows"]) == TWO_J_LIMIT + 1
        top = doc["rows"][-1]
        assert top["two_j"] == TWO_J_LIMIT
        assert top["lhs_quarters"] == sum(m * m for m in range(-TWO_J_LIMIT, TWO_J_LIMIT + 1, 2))


class TestAngle:
    def test_spin_half_quantum(self, capsys):
        code, out, _ = run_cli(
            capsys, "angle", "--two-j", "1", "--epsilon", "1", "--no-meta"
        )
        assert code == 0
        values = [r["cos_theta"] for r in json.loads(out)["rows"]]
        assert values == pytest.approx([0.5773503, -0.5773503], abs=1e-6)

    def test_classical_spin_one(self, capsys):
        _, out, _ = run_cli(
            capsys, "angle", "--two-j", "2", "--epsilon", "0", "--no-meta"
        )
        values = [r["cos_theta"] for r in json.loads(out)["rows"]]
        assert values == [1.0, 0.0, -1.0]

    def test_zero_j_rejected(self, capsys):
        code, _, err = run_cli(
            capsys, "angle", "--two-j", "0", "--epsilon", "1", "--no-meta"
        )
        assert code == 2
        assert "undefined" in err

    def test_decimal_j_sugar(self, capsys):
        _, via_two_j, _ = run_cli(
            capsys, "angle", "--two-j", "3", "--epsilon", "1", "--no-meta"
        )
        _, via_j, _ = run_cli(
            capsys, "angle", "--j", "1.5", "--epsilon", "1", "--no-meta"
        )
        assert via_j == via_two_j

    def test_bad_decimal_j(self, capsys):
        code, _, err = run_cli(capsys, "angle", "--j", "0.3", "--no-meta")
        assert code == 2 and ".5" in err

    def test_csv_json_parity(self, capsys):
        _, json_out, _ = run_cli(
            capsys, "angle", "--two-j", "4", "--epsilon", "1", "--no-meta"
        )
        _, csv_out, _ = run_cli(
            capsys, "angle", "--two-j", "4", "--epsilon", "1", "--no-meta",
            "--format", "csv",
        )
        doc = json.loads(json_out)
        rows = parse_csv(csv_out)
        assert len(rows) == len(doc["rows"])
        for jrow, crow in zip(doc["rows"], rows):
            assert float(crow["cos_theta"]) == jrow["cos_theta"]
            assert int(crow["two_mj"]) == jrow["two_mj"]

    def test_epsilon_below_the_overflow_cap(self, capsys):
        code, out, _ = run_cli(capsys, "angle", "--two-j", "1", "--epsilon", "8.98e307",
                               "--no-meta")
        assert code == 0
        cos = [r["cos_theta"] for r in json.loads(out)["rows"]]
        assert cos == pytest.approx([7.46e-155, -7.46e-155], rel=1e-3)


class TestLimit:
    def test_long_scan_approaches_one(self, capsys):
        code, out, _ = run_cli(
            capsys, "limit", "--two-j-max", "400", "--epsilon", "1", "--no-meta"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["monotonic"] is True
        last = doc["rows"][-1]
        assert last["two_j"] == 400
        # gap closes at the 1/(2j) rate: 1/two_j in table units
        assert 1.0 - last["cos_theta"] <= last["gap_bound"] == pytest.approx(1 / 400)

    def test_gap_at_j_400(self, capsys):
        _, out, _ = run_cli(
            capsys, "limit", "--two-j-max", "800", "--epsilon", "1", "--no-meta"
        )
        last = json.loads(out)["rows"][-1]
        assert 1.0 - last["cos_theta"] < 0.00125  # j = 400

    def test_classical_rows_exactly_one(self, capsys):
        _, out, _ = run_cli(
            capsys, "limit", "--two-j-max", "4", "--epsilon", "0", "--no-meta"
        )
        doc = json.loads(out)
        assert [r["cos_theta"] for r in doc["rows"]] == [1.0, 1.0, 1.0, 1.0]
        assert doc["monotonic"] is False


class TestClassical:
    def test_residual_passes(self, capsys):
        code, out, _ = run_cli(
            capsys, "classical", "--count", "200", "--seed", "1", "--no-meta"
        )
        assert code == 0
        doc = json.loads(out)
        assert doc["max_rel_residual"] < 1e-12
        assert doc["pass"] is True
        assert len(doc["samples"]) == 200
        assert sum(h["count"] for h in doc["histogram"]) == 200

    def test_deterministic_given_seed(self, capsys):
        args = ("classical", "--count", "50", "--seed", "7", "--no-meta")
        _, first, _ = run_cli(capsys, *args)
        _, second, _ = run_cli(capsys, *args)
        assert first == second

    def test_continuous_jtot_column(self, capsys):
        _, out, _ = run_cli(
            capsys, "classical", "--count", "30", "--seed", "2", "--no-meta",
            "--format", "csv",
        )
        jtots = [
            float(r["jtot"]) for r in parse_csv(out) if r["record"] == "sample"
        ]
        assert len(jtots) == 30
        assert any(abs(2 * v - round(2 * v)) > 1e-3 for v in jtots)

    def test_validation(self, capsys):
        code, _, _ = run_cli(capsys, "classical", "--count", "0", "--no-meta")
        assert code == 2

    def test_overflowing_bound_rejected(self, capsys):
        code, out, err = run_cli(capsys, "classical", "--count", "3", "--bound",
                                 "1e160", "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith("error: --hbar 1.0 with --bound 1e+160")
        assert err.count("\n") == 1

    def test_underflowing_bound_rejected(self, capsys):
        code, out, err = run_cli(capsys, "classical", "--count", "3", "--bound",
                                 "1e-160", "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith("error: --hbar 1.0 with --bound 1e-160: ")
        assert err.count("\n") == 1

    def test_bound_floor_is_where_the_square_underflows(self, capsys):
        # hbar * bound^2 at HBAR_FLOOR runs; one bound step below it does not
        bound = math.sqrt(HBAR_FLOOR)
        while bound * bound < HBAR_FLOOR:
            bound = float(np.nextafter(bound, math.inf))
        below = float(np.nextafter(bound, 0.0))
        assert below * below < HBAR_FLOOR
        code, _, _ = run_cli(capsys, "classical", "--count", "3", "--bound", repr(bound),
                             "--no-meta")
        assert code == 0
        code, out, err = run_cli(capsys, "classical", "--count", "3", "--bound",
                                 repr(below), "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith(f"error: --hbar 1.0 with --bound {below!r}: ")

    @pytest.mark.parametrize("hbar, bound, seed", [("1.0", "2.0", "0"),
                                                   ("0.3", "7.5", "-11"),
                                                   ("2.0", "0.01", str(2**70))])
    def test_samples_match_scalar_components(self, capsys, hbar, bound, seed):
        code, out, _ = run_cli(capsys, "classical", "--count", "700", "--hbar", hbar,
                               "--bound", bound, "--seed", seed, "--no-meta")
        assert code == 0
        doc = json.loads(out)
        expected = classical_records(700, float(bound), int(seed), float(hbar))
        assert doc["samples"] == expected
        assert doc["max_rel_residual"] == max(r["rel_residual"] for r in expected)

    def test_tol_equal_to_residual_passes(self, capsys):
        # pass means max_rel_residual <= tol, as for every other check
        _, out, _ = run_cli(capsys, "classical", "--count", "50", "--no-meta")
        max_rel = json.loads(out)["max_rel_residual"]
        assert max_rel > 0
        code, out, err = run_cli(capsys, "classical", "--count", "50", "--tol",
                                 repr(max_rel), "--no-meta")
        assert code == 0 and err == ""
        assert json.loads(out)["pass"] is True

    def test_builds_no_state_objects(self):
        # every sampled column is one array, not a list of per-state values
        json_doc, _, _ = cli.cmd_classical(1000, 2.0, 0, 1.0, 1e-9)
        columns = json_doc["samples"].columns
        for name in ("jx", "jy", "jz", "jtot", "rel_residual"):
            assert isinstance(columns[name], np.ndarray), name
            assert columns[name].dtype == np.float64 and columns[name].shape == (1000,), name
        assert isinstance(columns["index"], range)

    def test_csv_json_parity(self, capsys):
        args = ("classical", "--count", "25", "--seed", "4", "--no-meta")
        _, json_out, _ = run_cli(capsys, *args)
        _, csv_out, _ = run_cli(capsys, *args, "--format", "csv")
        doc = json.loads(json_out)
        rows = parse_csv(csv_out)
        samples = [r for r in rows if r["record"] == "sample"]
        for jrow, crow in zip(doc["samples"], samples):
            for col in ("jx", "jy", "jz", "jtot", "rel_residual"):
                assert float(crow[col]) == jrow[col]
        hist = [r for r in rows if r["record"] == "hist"]
        assert [int(r["count"]) for r in hist] == [
            h["count"] for h in doc["histogram"]
        ]
        summary = [r for r in rows if r["record"] == "summary"][0]
        assert float(summary["max_rel_residual"]) == doc["max_rel_residual"]


def text_of(pieces) -> str:
    """The document of the writer's ``pieces``, every chunk rendered here."""
    return "".join(p if isinstance(p, str) else cli._chunk(*p) for p in pieces)


def emitted(capsys, monkeypatch, *argv):
    """Run the command; return its stdout and what it handed to ``_emit``."""
    handed = []
    real = cli._emit

    def spy(config, command, json_doc, csv_tables, flags):
        handed.append((json_doc, csv_tables))
        return real(config, command, json_doc, csv_tables, flags)

    monkeypatch.setattr(cli, "_emit", spy)
    code, out, _ = run_cli(capsys, *argv, "--no-meta")
    assert code in (0, 1) and len(handed) == 1
    return out, handed[0]


WRITER_ARGV = [
    ["verify", "--nmax", "6"],
    ["verify", "--nmax", "4", "--corrupt", "jx,1,3,1e-6"],
    # non-dyadic levels, and one level off the grid
    ["verify", "--nmax", "40", "--hbar", "0.3"],
    ["verify", "--nmax", "7", "--corrupt", "jz,4,4,1e-6"],
    ["spectrum", "--n", "5", "--hbar", "0.3"],
    ["sumrule", "--two-j-max", "11"],
    ["angle", "--two-j", "9", "--epsilon", "0.25"],
    ["angle", "--j", "2.5", "--epsilon", "0"],
    ["limit", "--two-j-max", "13", "--epsilon", "0"],
    ["classical", "--count", "37", "--seed", "-8", "--hbar", "1e-100"],
]

# record, then the command's table columns in order of first appearance
CSV_HEADERS = {
    "verify": ["record", "name", "value", "max_residual", "pass",
               "two_j", "casimir", "jz_spectrum", "sum_rule_pass"],
    "spectrum": ["record", "two_j", "two_mj", "jz", "casimir", "mean_square"],
    "sumrule": ["record", "two_j", "lhs_quarters", "rhs_quarters", "pass"],
    "angle": ["record", "two_j", "two_mj", "epsilon", "cos_theta"],
    "limit": ["record", "two_j", "epsilon", "cos_theta", "gap_bound", "monotonic"],
    "classical": ["record", "index", "jx", "jy", "jz", "jtot", "rel_residual",
                  "bin_lo", "bin_hi", "count", "max_rel_residual", "pass"],
}


class TestWriter:
    """The streaming writer against ``json.dumps(indent=2)`` and the row-wise CSV."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("chunk", [CHUNK_RECORDS, 1, 3])
    @pytest.mark.parametrize("argv", WRITER_ARGV, ids=" ".join)
    def test_bytes_equal_oracle(self, capsys, monkeypatch, argv, chunk, fmt):
        monkeypatch.setattr(cli, "CHUNK_RECORDS", chunk)
        out, (doc, tables) = emitted(capsys, monkeypatch, *argv, "--format", fmt)
        assert out == (json_text(doc) if fmt == "json" else csv_text(tables))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("count", [CHUNK_RECORDS - 1, CHUNK_RECORDS,
                                       CHUNK_RECORDS + 1, 2 * CHUNK_RECORDS + 1])
    def test_classical_at_chunk_boundaries(self, capsys, monkeypatch, count, fmt):
        out, (doc, tables) = emitted(
            capsys, monkeypatch, "classical", "--count", str(count), "--seed", "3",
            "--format", fmt)
        assert out == (json_text(doc) if fmt == "json" else csv_text(tables))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [["verify", "--nmax", "3", "--hbar", "1e103"],
                                      ["classical", "--count", "3", "--hbar", "1e200"]])
    def test_overflow_writes_nothing(self, capsys, tmp_path, argv, fmt):
        path = tmp_path / "out.txt"
        code, out, err = run_cli(capsys, *argv, "--format", fmt, "--out", str(path),
                                 "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith("error: --hbar") and err.count("\n") == 1
        assert not path.exists()

    @pytest.mark.parametrize("directive", ["jz,0,0,1e308", "jx,1,2,1e200"])
    def test_corrupt_overflow_names_corrupt(self, capsys, directive):
        code, out, err = run_cli(capsys, "verify", "--nmax", "3", "--corrupt", directive,
                                 "--no-meta")
        assert code == 2 and out == ""
        assert err == (f"error: --hbar 1.0 with --corrupt {directive}: "
                       "a result overflows to a non-finite value\n")

    @pytest.mark.parametrize("corrupt", [[], ["--corrupt", "jx,0,5,1e-3"]])
    @pytest.mark.parametrize("hbar", ["1e200", "1e308"])
    def test_overflow_reported_before_the_battery(self, capsys, monkeypatch, hbar, corrupt):
        # at 1e308 the operators store inf, at 1e200 only J^2 does: either
        # way verify stops before its first window, with _emit's line
        def unreachable(*args):
            raise AssertionError("the battery ran")

        monkeypatch.setattr(cli, "_window_residuals", unreachable)
        monkeypatch.setattr(cli, "_blocks", unreachable)
        code, out, err = run_cli(capsys, "verify", "--nmax", "200", "--hbar", hbar,
                                 "--tol", "1e-6", "--no-meta", *corrupt)
        flags = " ".join([f"--hbar {float(hbar)}", *(["with"] if corrupt else []), *corrupt])
        assert (code, out) == (2, "")
        assert err == f"error: {flags}: a result overflows to a non-finite value\n"

    @pytest.mark.parametrize("argv", [["--n", "1000", "--hbar", "1e308"],
                                      ["--n", "200", "--hbar", "1e200"]])
    def test_spectrum_overflow_reported_before_the_blocks(self, capsys, monkeypatch, argv):
        # at 1e308 the operators store inf, at 1e200 only J^2 does: either
        # way spectrum stops before its block table, with _emit's line
        def unreachable(*args):
            raise AssertionError("the block table was built")

        monkeypatch.setattr(cli, "_blocks", unreachable)
        code, out, err = run_cli(capsys, "spectrum", *argv, "--no-meta")
        assert (code, out) == (2, "")
        assert err == f"error: --hbar {float(argv[3])}: a result overflows to a non-finite value\n"

    @pytest.mark.parametrize("argv", [
        # the entry is inf: the DELTA cannot change it
        ["--nmax", "3", "--hbar", "1.7e308", "--corrupt", "jz,6,6,1"],
        # finite entries that absorb the DELTA, in sets that overflow
        ["--nmax", "3", "--hbar", "1.7e308", "--corrupt", "jz,0,0,0"],
        ["--nmax", "12", "--hbar", "1e308", "--corrupt", "jx,3,4,1e-3"],
    ])
    def test_overflowed_set_reported_before_the_corruption(self, capsys, argv):
        # build_set refuses the set before --corrupt is checked against it
        code, out, err = run_cli(capsys, "verify", *argv, "--no-meta")
        assert (code, out) == (2, "")
        assert err == (f"error: --hbar {float(argv[3])} with --corrupt {argv[5]}: "
                       "a result overflows to a non-finite value\n")

    def test_empty_table(self):
        doc = {"command": "x", "rows": cli.Table("row", {"a": []}), "ok": True}
        assert text_of(cli._json_pieces(doc)) == json_text(doc)

    @pytest.mark.parametrize("command, header", CSV_HEADERS.items())
    def test_csv_header(self, capsys, command, header):
        code, out, _ = run_cli(capsys, command, *REQUIRED[command], "--format", "csv",
                               "--no-meta")
        assert code == 0
        assert out.split("\n", 1)[0] == ",".join(header)


class TestSegments:
    """A ``Segments`` column against the oracle, which slices its values
    at its bounds itself."""

    @staticmethod
    def assert_written(values, sizes):
        bounds = np.concatenate([[0], np.cumsum(sizes)]).astype(np.int64)
        column = cli.Segments(np.array(values, dtype=np.float64), bounds)
        table = cli.Table("row", {"k": range(len(sizes)), "levels": column})
        doc = {"command": "x", "rows": table}
        assert text_of(cli._json_pieces(doc)) == json_text(doc)
        assert text_of(cli._csv_pieces([table])) == csv_text([table])

    def test_signed_zeros_keep_their_texts(self):
        self.assert_written([0.0, -0.0, -0.0, 0.0, 0.0], [2, 3])
        text = text_of(cli._csv_pieces([cli.Table("row", {"levels": cli.Segments(
            np.array([-0.0, 0.0]), np.array([0, 2]))})]))
        assert text == "record,levels\nrow,-0;0\n"

    @pytest.mark.parametrize("chunk", [CHUNK_RECORDS, 1, 3])
    @pytest.mark.parametrize("values, sizes", [
        ([0.5, -0.5, 0.5, -0.5, 0.5, -0.5, 1.5], [2, 2, 3]),
        ([0.1, 0.2, 0.30000000000000004, -1e-300, 7e22, 3.0], [1, 2, 3]),
        ([2.5], [1]),
        ([1.0, 1.0, 1.0, 0.1, 0.1], [1, 1, 1, 1, 1]),
    ])
    def test_bytes_equal_oracle(self, monkeypatch, chunk, values, sizes):
        monkeypatch.setattr(cli, "CHUNK_RECORDS", chunk)
        self.assert_written(values, sizes)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_level_writes_nothing(self, capsys, tmp_path, fmt, bad):
        column = cli.Segments(np.array([1.0, bad, 0.0]), np.array([0, 1, 3]))
        table = cli.Table("block", {"two_j": range(2), "jz_spectrum": column})
        path = tmp_path / "out.txt"
        config = cli.RunConfig(fmt, str(path), no_meta=False)
        with pytest.raises(UsageError, match="^--hbar 1.0: a result overflows"):
            cli._emit(config, "verify", {"blocks": table}, [table], "--hbar 1.0")
        assert capsys.readouterr() == ("", "")
        assert not path.exists()


# tables longer than one chunk, which the writer renders in forked workers
LARGE_ARGV = [
    ["classical", "--count", str(2 * CHUNK_RECORDS + 1), "--seed", "3"],
    ["sumrule", "--two-j-max", str(TWO_J_LIMIT)],
    ["limit", "--two-j-max", str(TWO_J_LIMIT)],
    ["angle", "--two-j", str(TWO_J_LIMIT)],
]


def allow_cpus(monkeypatch, count):
    """Let the writer see ``count`` CPUs in this process's affinity set."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


def assert_no_children():
    assert multiprocessing.active_children() == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def run_on_files(directory, argv, dest):
    """``main(argv)`` with stdout and stderr on block-buffered files, as
    from the shell, and the data on stdout or in ``--out``; returns
    (exit code, data, stderr)."""
    directory.mkdir()
    out_path, err_path, data_path = (directory / n for n in ("stdout", "stderr", "data"))
    extra = ["--out", str(data_path)] if dest == "out" else []
    with (open(out_path, "w", encoding="utf-8", newline="") as out,
          open(err_path, "w", encoding="utf-8") as err,
          contextlib.redirect_stdout(out), contextlib.redirect_stderr(err)):
        code = main([*argv, *extra])
    stdout = out_path.read_text(encoding="utf-8")
    if dest == "out":
        assert stdout == ""
        stdout = data_path.read_text(encoding="utf-8")
    return code, stdout, err_path.read_text(encoding="utf-8")


class TestForkedWriter:
    """A table longer than one chunk is rendered in forked workers: the
    bytes are those of the serial path, and no worker outlives the call."""

    @pytest.mark.parametrize("dest", ["stdout", "out"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", LARGE_ARGV, ids=" ".join)
    def test_bytes_equal_serial(self, monkeypatch, tmp_path, argv, fmt, dest):
        forked = []
        real = cli._forked
        monkeypatch.setattr(cli, "_forked",
                            lambda stack, chunks, workers: forked.append(workers)
                            or real(stack, chunks, workers))
        runs = []
        for cpus in (1, 2):
            allow_cpus(monkeypatch, cpus)
            runs.append(run_on_files(tmp_path / str(cpus),
                                     [*argv, "--format", fmt, "--no-meta"], dest))
            assert_no_children()
        assert forked == [2]
        assert runs[1] == runs[0]
        assert runs[0][0] == 0 and runs[0][1]

    def test_metadata_header_printed_once(self, monkeypatch, tmp_path):
        # the header sits in stderr's buffer until the pool forks its workers
        allow_cpus(monkeypatch, 2)
        argv = [*LARGE_ARGV[0], "--format", "csv"]
        code, out, err = run_on_files(tmp_path / "meta", argv, "stdout")
        assert code == 0 and err.count("\n") == 1 and err.startswith("# schwinger ")
        assert out == run_on_files(tmp_path / "serial", [*argv, "--no-meta"], "stdout")[1]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [["verify", "--nmax", "6"],
                                      ["classical", "--count", str(CHUNK_RECORDS)],
                                      ["sumrule", "--two-j-max", str(CHUNK_RECORDS - 1)]],
                             ids=" ".join)
    def test_one_chunk_tables_start_no_process(self, capsys, monkeypatch, argv, fmt):
        def refuse(*args, **kwargs):
            raise AssertionError("a process pool was started")

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
        allow_cpus(monkeypatch, 2)
        code, out, _ = run_cli(capsys, *argv, "--format", fmt, "--no-meta")
        assert code == 0 and out

    def test_at_most_two_chunks_per_worker_in_flight(self, capsys, monkeypatch):
        unread, peak = [], []

        class Counting(concurrent.futures.ProcessPoolExecutor):
            def submit(self, fn, *args):
                future = super().submit(fn, *args)
                unread.append(future)
                peak.append(len(unread))
                read = future.result

                def result(timeout=None):
                    unread.remove(future)
                    return read(timeout)

                future.result = result
                return future

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Counting)
        allow_cpus(monkeypatch, 2)
        code, out, _ = run_cli(capsys, *LARGE_ARGV[1], "--no-meta")
        assert code == 0 and out and unread == []
        assert max(peak) == 4 and len(peak) == TWO_J_LIMIT // CHUNK_RECORDS + 1

    def test_worker_exception_reaches_caller(self, capsys, monkeypatch):
        allow_cpus(monkeypatch, 2)
        # a function cannot be pickled: the table reaches the workers by fork
        table = cli.Table("row", {"cell": [lambda: None] * (CHUNK_RECORDS + 1)})
        with pytest.raises(TypeError, match="^no json form for function$"):
            cli._emit(cli.RunConfig(no_meta=True), "x", {"rows": table}, [table], "")
        assert_no_children()

    def test_failed_write_leaves_no_worker(self, monkeypatch):
        class ClosedPipe(io.StringIO):
            """Takes the first write, then fails as a closed pipe does."""

            def write(self, text):
                if self.tell():
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        allow_cpus(monkeypatch, 2)
        err = io.StringIO()
        with contextlib.redirect_stdout(ClosedPipe()), contextlib.redirect_stderr(err):
            code = main([*LARGE_ARGV[0], "--no-meta"])
        assert code == 2 and err.getvalue() == "I/O error: [Errno 32] Broken pipe\n"
        assert_no_children()

    def test_killed_worker_is_an_error(self):
        # in a child process, so a hang would end at the timeout
        script = "\n".join([
            "import os, signal, sys",
            "import schwinger.cli as cli",
            "os.sched_getaffinity = lambda pid: {0, 1}",
            "cli._chunk = lambda records, lo: os.kill(os.getpid(), signal.SIGKILL)",
            f"sys.exit(cli.main({[*LARGE_ARGV[0], '--no-meta']!r}))",
        ])
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 2
        assert proc.stderr == "I/O error: a worker process rendering the output ended abruptly\n"


class TestExitCodes:
    """Exit 1 comes with a FAILED line on stderr for each failed check, exit 0 with none."""

    @pytest.mark.parametrize(
        "argv, unequal_sides, failed",
        [
            (["verify", "--nmax", "4"], False, None),
            (["verify", "--nmax", "4", "--corrupt", "jx,1,3,1e-6"], False, "hermitian_jx"),
            (["spectrum", "--n", "3"], False, None),
            (["spectrum", "--n", "3", "--tol", "1e-100"], False, "casimir_block_spread"),
            (["sumrule", "--two-j-max", "6"], False, None),
            (["sumrule", "--two-j-max", "6"], True, "sum_rule"),
            (["angle", "--two-j", "3"], False, None),
            (["limit", "--two-j-max", "5"], False, None),
            (["classical", "--count", "50"], False, None),
            (["classical", "--count", "50", "--tol", "1e-30"], False,
             "classical_square_identity"),
        ],
    )
    def test_exit_code_matches_failed_lines(self, capsys, monkeypatch, argv,
                                            unequal_sides, failed):
        if unequal_sides:
            monkeypatch.setattr(cli, "sum_rule_check", lambda two_j: (two_j, two_j + 1))
        code, _, err = run_cli(capsys, *argv, "--no-meta")
        names = [line.split(":")[0][len("FAILED "):] for line in err.splitlines()
                 if line.startswith("FAILED ")]
        assert code == (1 if failed else 0)
        assert (failed in names) if failed else names == []

    def test_sum_rule_failure_line(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "sum_rule_check", lambda two_j: (two_j, two_j + 1))
        code, out, err = run_cli(capsys, "sumrule", "--two-j-max", "6", "--no-meta")
        assert code == 1 and json.loads(out)["all_pass"] is False
        assert err == "FAILED sum_rule: max_residual 1 > tol 0\n"


# the flags each command reads, the required one first
OUTPUT_FLAGS = ["--format", "--out", "--no-meta"]
PHYSICS_FLAGS = [*OUTPUT_FLAGS, "--hbar", "--tol"]
KEPT_FLAGS = {
    "verify": ["--nmax", *PHYSICS_FLAGS, "--corrupt"],
    "spectrum": ["--n", *PHYSICS_FLAGS, "--nmax"],
    "sumrule": ["--two-j-max", *OUTPUT_FLAGS],
    "angle": ["--two-j", *OUTPUT_FLAGS, "--j", "--epsilon"],
    "limit": ["--two-j-max", *OUTPUT_FLAGS, "--epsilon"],
    "classical": ["--count", *PHYSICS_FLAGS, "--bound", "--seed"],
}
REQUIRED = {command: [flags[0], "1"] for command, flags in KEPT_FLAGS.items()}
# the 17 (command, flag) pairs that the shared flag set once accepted and
# the command ignored
REMOVED_FLAGS = (
    [(c, f) for c in ("sumrule", "angle", "limit")
     for f in ("--hbar", "--tol", "--seed", "--force")]
    + [(c, "--seed") for c in ("verify", "spectrum")]
    + [(c, "--force") for c in ("verify", "spectrum", "classical")]
)
# flag -> (argv text or None for a switch, the parsed value)
FLAG_VALUES = {
    "--nmax": ("4", 4), "--n": ("3", 3), "--two-j-max": ("5", 5), "--two-j": ("3", 3),
    "--j": ("1.5", 1.5), "--count": ("7", 7), "--format": ("csv", "csv"),
    "--out": ("out.json", "out.json"), "--no-meta": (None, True), "--hbar": ("2.5", 2.5),
    "--tol": ("1e-3", 1e-3), "--corrupt": ("jx,1,3,1e-6", "jx,1,3,1e-6"),
    "--epsilon": ("0.5", 0.5), "--bound": ("1.5", 1.5), "--seed": ("9", 9),
    "--force": (None, True),
}


class TestParser:
    def test_missing_command(self, capsys):
        assert main([]) == 2

    def test_unknown_flag(self, capsys):
        assert main(["verify", "--nmax", "2", "--bogus"]) == 2

    def test_version_flag(self, capsys):
        assert main(["--version"]) == 0

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["verify", "--nmax", "5", "--corrupt", "jx,1,3,1", "--tol", "inf"], "--tol"),
            (["verify", "--nmax", "3", "--corrupt", "jx,1,3,nan"], "--corrupt"),
            (["verify", "--nmax", "3", "--corrupt", "jx,1,3,inf"], "--corrupt"),
            (["verify", "--nmax", "2", "--tol", "nan"], "--tol"),
            (["spectrum", "--n", "2", "--hbar", "nan"], "--hbar"),
            (["classical", "--count", "3", "--hbar", "inf"], "--hbar"),
            (["classical", "--count", "3", "--bound", "nan"], "--bound"),
            (["angle", "--two-j", "2", "--epsilon", "nan"], "--epsilon"),
            (["angle", "--j", "inf"], "--j"),
            (["limit", "--two-j-max", "3", "--epsilon", "inf"], "--epsilon"),
            # finite, but 2 * epsilon overflows inside cos theta
            (["angle", "--two-j", "1", "--epsilon", "1e308"], "--epsilon"),
            (["limit", "--two-j-max", "2", "--epsilon", "1e308"], "--epsilon"),
        ],
    )
    def test_non_finite_input_rejected(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv, "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag}")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--nmax", "3"],
            ["spectrum", "--n", "3"],
            ["classical", "--count", "3"],
        ],
    )
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_hbar_rejected(self, capsys, argv, fmt):
        code, out, err = run_cli(capsys, *argv, "--hbar", "1e200", "--format", fmt)
        assert code == 2 and out == ""
        assert err.startswith("error: --hbar") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["verify", "--nmax", "3"],
            ["spectrum", "--n", "3"],
            ["classical", "--count", "3"],
        ],
    )
    def test_hbar_below_floor_rejected(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--hbar", "1e-200", "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith("error: --hbar 1e-200") and err.count("\n") == 1
        code, _, _ = run_cli(capsys, *argv, "--hbar", "1e-150", "--no-meta")
        assert code == 0

    def test_hbar_floor_is_where_the_square_underflows(self):
        tiny = np.finfo(float).tiny
        assert HBAR_FLOOR * HBAR_FLOOR >= tiny
        below = np.nextafter(HBAR_FLOOR, 0.0)
        assert below * below < tiny
        _require_hbar_tol(HBAR_FLOOR, 1e-12)
        with pytest.raises(UsageError):
            _require_hbar_tol(float(below), 1e-12)

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["angle", "--two-j", str(TWO_J_LIMIT + 1)], "--two-j"),
            (["angle", "--two-j", "1" + "0" * 400], "--two-j"),
            (["angle", "--j", "1e300"], "--j"),
            (["angle", "--j", repr(TWO_J_LIMIT / 2 + 0.5)], "--j"),
            (["limit", "--two-j-max", str(TWO_J_LIMIT + 1)], "--two-j-max"),
            (["sumrule", "--two-j-max", str(TWO_J_LIMIT + 1)], "--two-j-max"),
            (["angle", "--two-j", "-3"], "--two-j"),
            (["angle", "--j", "-1.5"], "--j"),
            (["spectrum", "--n", str(N_MAX_LIMIT + 1)], "--n"),
            (["verify", "--nmax", str(10**30)], "--nmax"),
            (["verify", "--nmax", str(_smallest_unindexable_nmax())], "--nmax"),
            (["spectrum", "--n", str(_smallest_unindexable_nmax())], "--n"),
            (["angle", "--j", "0"], "--j"),
            (["angle", "--j", "-0.0"], "--j"),
            (["angle", "--two-j", "0"], "--two-j"),
            (["classical", "--count", str(COUNT_LIMIT + 1)], "--count"),
        ],
    )
    def test_table_size_capped(self, capsys, argv, flag):
        code, out, err = run_cli(capsys, *argv, "--no-meta")
        assert code == 2 and out == ""
        assert err.startswith(f"error: {flag} ") and err.count("\n") == 1

    def test_cap_basis_is_indexable(self):
        assert N_MAX_LIMIT < _smallest_unindexable_nmax()

    @pytest.mark.parametrize("command", list(KEPT_FLAGS))
    def test_help_lists_only_the_flags_read(self, capsys, command):
        assert main([command, "--help"]) == 0
        listed = set(re.findall(r"--[a-z][a-z-]*", capsys.readouterr().out))
        assert listed == {"--help", *KEPT_FLAGS[command]}

    @pytest.mark.parametrize("command, flag",
                             [(c, f) for c, flags in KEPT_FLAGS.items() for f in flags])
    def test_kept_flag_parses(self, command, flag):
        text, value = FLAG_VALUES[flag]
        required = [] if flag in ("--j", REQUIRED[command][0]) else REQUIRED[command]
        argv = [command, *required, flag, *([text] if text else [])]
        args = cli.build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) == value

    @pytest.mark.parametrize("command, flag", REMOVED_FLAGS)
    def test_removed_flag_rejected(self, capsys, command, flag):
        text, _ = FLAG_VALUES[flag]
        code, out, err = run_cli(capsys, command, *REQUIRED[command], flag,
                                 *([text] if text else []), "--no-meta")
        assert code == 2 and out == ""
        assert f"unrecognized arguments: {flag}" in err

    def test_shared_parser_keeps_no_state(self, capsys, monkeypatch):
        argvs = [
            ["verify", "--nmax", "2", "--format", "csv"],
            ["verify", "--nmax", "2", "--corrupt", "jx,1,2,1e-3"],
            ["verify", "--help"],
            ["verify", "--nmax", "2", "--bogus"],
            ["verify", "--nmax", "2"],
        ]
        shared = [run_cli(capsys, *argv, "--no-meta") for argv in argvs]
        assert cli._parser() is cli._parser()
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = [run_cli(capsys, *argv, "--no-meta") for argv in argvs]
        assert shared == fresh
        assert [code for code, _, _ in shared] == [0, 1, 0, 2, 0]
        assert json.loads(shared[-1][1])["n_max"] == 2

    def test_internal_value_error_is_not_a_usage_error(self, monkeypatch):
        def broken(two_j):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "sum_rule_check", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["sumrule", "--two-j-max", "2", "--no-meta"])

    def test_console_entry_point(self, tmp_path):
        result = subprocess.run(
            [sys.executable, "-m", "schwinger", "sumrule", "--two-j-max", "2",
             "--no-meta"],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0
        assert json.loads(result.stdout)["all_pass"] is True
