import csv
import dataclasses
import io
import json
import math
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest

import schwinger.angular as angular
import schwinger.cli as cli
from schwinger import (
    add,
    build_basis,
    build_set,
    from_entries,
)
from schwinger.cli import (
    CHUNK_RECORDS,
    COUNT_LIMIT,
    HBAR_FLOOR,
    N_MAX_LIMIT,
    SUM_RULE_TWO_J_LIMIT,
    TWO_J_LIMIT,
    RunConfig,
    UsageError,
    _validate,
    main,
)

import schwinger.classical as classical
from oracles import analyze_block, classical_records, csv_text, extract_block, json_text


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


# one --corrupt directive at --nmax 4 that fails each verify check
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
    "casimir_commutes_x": "jz,4,4,1e-6",
    "casimir_commutes_y": "jz,4,4,1e-6",
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

    def test_guard_admits_the_cap_without_allocating(self):
        tracemalloc.start()
        try:
            _validate(RunConfig(n_max=N_MAX_LIMIT))
            with pytest.raises(UsageError, match="exceeds the limit"):
                _validate(RunConfig(n_max=N_MAX_LIMIT + 1))
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
        # the casimir commutator entries reach about 1e300 here; their
        # squares overflow, the Frobenius norms must not
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
        bumped = cli._apply_corruption(amset, "jx,1,3,1e-17")
        assert bumped.jx != amset.jx
        assert bumped.jx.to_dense()[1, 3] == 1e-17

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
        amset = build_set(build_basis(3), 1.0)
        op = getattr(amset, name)
        nan = from_entries(op.dim, [row], [col], [np.nan])
        bad = dataclasses.replace(amset, **{name: add(op, nan)})
        checks, _ = cli.run_battery(RunConfig(n_max=3), bad)
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

    def test_bad_corrupt_spec(self, capsys):
        code, _, err = run_cli(
            capsys, "verify", "--nmax", "2", "--no-meta", "--corrupt", "bogus"
        )
        assert code == 2 and "corrupt" in err

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
        path = tmp_path / "missing-dir" / "report.json"
        code, _, err = run_cli(
            capsys, "verify", "--nmax", "2", "--no-meta", "--out", str(path)
        )
        assert code == 2
        assert "I/O error" in err

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

    def test_builds_no_state_objects(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("classical built a ClassicalState")

        monkeypatch.setattr(classical.ClassicalState, "__init__", refuse)
        code, _, _ = run_cli(capsys, "classical", "--count", "40", "--no-meta")
        assert code == 0

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


def emitted(capsys, monkeypatch, *argv):
    """Run the command; return its stdout and what it handed to ``_emit``."""
    handed = []
    real = cli._emit

    def spy(config, command, json_doc, csv_header, csv_tables):
        handed.append((json_doc, csv_header, csv_tables))
        return real(config, command, json_doc, csv_header, csv_tables)

    monkeypatch.setattr(cli, "_emit", spy)
    code, out, _ = run_cli(capsys, *argv, "--no-meta")
    assert code in (0, 1) and len(handed) == 1
    return out, handed[0]


WRITER_ARGV = [
    ["verify", "--nmax", "6"],
    ["verify", "--nmax", "4", "--corrupt", "jx,1,3,1e-6"],
    ["spectrum", "--n", "5", "--hbar", "0.3"],
    ["sumrule", "--two-j-max", "11"],
    ["angle", "--two-j", "9", "--epsilon", "0.25"],
    ["angle", "--j", "2.5", "--epsilon", "0"],
    ["limit", "--two-j-max", "13", "--epsilon", "0"],
    ["classical", "--count", "37", "--seed", "-8", "--hbar", "1e-100"],
]


class TestWriter:
    """The streaming writer against ``json.dumps(indent=2)`` and the row-wise CSV."""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("chunk", [CHUNK_RECORDS, 1, 3])
    @pytest.mark.parametrize("argv", WRITER_ARGV, ids=" ".join)
    def test_bytes_equal_oracle(self, capsys, monkeypatch, argv, chunk, fmt):
        monkeypatch.setattr(cli, "CHUNK_RECORDS", chunk)
        out, (doc, header, tables) = emitted(capsys, monkeypatch, *argv, "--format", fmt)
        assert out == (json_text(doc) if fmt == "json" else csv_text(header, tables))

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("count", [CHUNK_RECORDS - 1, CHUNK_RECORDS,
                                       CHUNK_RECORDS + 1, 2 * CHUNK_RECORDS + 1])
    def test_classical_at_chunk_boundaries(self, capsys, monkeypatch, count, fmt):
        out, (doc, header, tables) = emitted(
            capsys, monkeypatch, "classical", "--count", str(count), "--seed", "3",
            "--format", fmt)
        assert out == (json_text(doc) if fmt == "json" else csv_text(header, tables))

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

    def test_empty_table(self):
        doc = {"command": "x", "rows": cli.Table("row", {"a": []}), "ok": True}
        assert "".join(cli._json_pieces(doc)) == json_text(doc)


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
        _validate(RunConfig(n_max=1, hbar=HBAR_FLOOR))
        with pytest.raises(UsageError):
            _validate(RunConfig(n_max=1, hbar=float(below)))

    @pytest.mark.parametrize(
        "argv, flag",
        [
            (["angle", "--two-j", str(TWO_J_LIMIT + 1)], "--two-j"),
            (["angle", "--two-j", "1" + "0" * 400], "--two-j"),
            (["angle", "--j", "1e300"], "--j"),
            (["angle", "--j", repr(TWO_J_LIMIT / 2 + 0.5)], "--j"),
            (["limit", "--two-j-max", str(TWO_J_LIMIT + 1)], "--two-j-max"),
            (["sumrule", "--two-j-max", str(SUM_RULE_TWO_J_LIMIT + 1)], "--two-j-max"),
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
