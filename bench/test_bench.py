"""Self-test of the benchmark at tiny sizes: ``python3 -m pytest bench -q``.

Shows that the exact per-layer counts repeat between two traced runs,
that a wrong output is counted as a failed call, and that the tracer
survives a function the program no longer has.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import schwinger.angular  # noqa: E402
import schwinger.cli  # noqa: E402
import schwinger.operators  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
import unit  # noqa: E402
import workloads  # noqa: E402
from tracer import NAMED, Tracer  # noqa: E402

EXACT_COUNTS = ("operators.from_entries.calls", "operators.to_csr.calls",
                "spectra.jacobi_eigen.calls", "operators.to_csr.nnz",
                "operators.from_entries.triplets_in", "angular.block_bytes",
                "cli.emit.bytes", "fock.states")


def tiny_calls(seed=3):
    mix = workloads.small_mix(seed, n_verify=12, n_spectrum=4, n_max_top=6,
                              corrupt_every=4)
    return mix + workloads.classical_200k(seed, count=40)


def traced_layers(calls, named=NAMED):
    tracer = Tracer(named=named)
    result = unit.run_calls(calls, tracer=tracer)
    result["trace"] = tracer.summary()
    return result, run.per_layer(result, result["wall_s"])


def test_tiny_mix_is_correct_and_counts_repeat_exactly():
    calls = tiny_calls()
    first, layers1 = traced_layers(calls)
    second, layers2 = traced_layers(calls)
    assert [c["error"] for c in first["calls"]] == [None] * len(calls)
    assert any("--corrupt" in argv for argv in calls)
    for name in EXACT_COUNTS:
        assert layers1[name] == layers2[name] > 0, name
    assert first["trace"]["calls"] == second["trace"]["calls"]
    assert first["trace"]["counters"] == second["trace"]["counters"]
    assert set(layers1) == set(run.PER_LAYER)


def test_self_times_add_up_to_traced_wall():
    result, layers = traced_layers(tiny_calls())
    layer_sum = sum(layers[f"{layer}.self_s"] for layer in
                    ("fock", "operators", "angular", "spectra", "classical", "cli"))
    assert layer_sum == pytest.approx(layers["trace.self_sum_s"])
    assert 0 < layers["trace.self_sum_s"] + layers["trace.hook_s"] <= result["wall_s"]
    assert layers["trace.spans"] == sum(result["trace"]["calls"].values())


def tamper(index, edit):
    """An executor that runs the CLI but edits the stdout of call ``index``."""
    seen = []

    def execute(argv):
        code, out, err = unit.call_cli(argv)
        if len(seen) == index:
            out = edit(out)
        seen.append(argv)
        return code, out, err
    return execute


def test_wrong_output_is_counted_in_error_rate():
    calls = [["verify", "--nmax", "3"], ["verify", "--nmax", "4", "--format", "csv"],
             ["spectrum", "--n", "2"]]
    def off_by_a_bit(out):
        doc = json.loads(out)
        doc["blocks"][1]["casimir"] += 1e-9
        return json.dumps(doc)

    result = unit.run_calls(calls, execute=tamper(0, off_by_a_bit))
    errors = [c["error"] for c in result["calls"]]
    assert errors[1:] == [None, None]
    assert "casimir of block 1" in errors[0]

    dropped_check = tamper(1, lambda out: "\n".join(
        ln for ln in out.splitlines() if "casimir_block_spread" not in ln) + "\n")
    result = unit.run_calls(calls, execute=dropped_check)
    assert [c["error"] is not None for c in result["calls"]] == [False, True, False]


def test_corrupted_call_must_fail():
    argv = ["verify", "--nmax", "3", "--corrupt", "jx,1,3,0.001"]
    code, out, err = unit.call_cli(argv)
    assert code == 1 and checks.check_call(argv, code, out, err) is None
    assert "expected exit 1" in checks.check_call(argv, 0, out, "")


def test_classical_sample_must_be_the_documented_one():
    argv = ["classical", "--count", "30", "--seed", "9"]
    code, out, err = unit.call_cli(argv)
    assert checks.check_call(argv, code, out, err) is None
    doc = json.loads(out)
    doc["samples"][7]["jx"], doc["samples"][7]["jy"] = doc["samples"][7]["jy"], doc["samples"][7]["jx"]
    assert "sample 7" in checks.check_call(argv, code, json.dumps(doc), err)


def test_reissue_with_different_stdout_fails_the_call():
    calls = [["verify", "--nmax", "2"], ["spectrum", "--n", "1"]]
    result = unit.run_calls(calls)
    unit.recheck_determinism(calls, result, [1], execute=tamper(0, lambda out: out + " "))
    assert [c["error"] is not None for c in result["calls"]] == [False, True]


def test_tracer_patches_every_binding_and_restores_them():
    multiply = schwinger.operators.multiply
    to_csr = schwinger.operators.SparseOperator.to_csr
    extract_block = schwinger.angular.extract_block
    with Tracer():
        assert schwinger.angular.multiply is not multiply
        assert schwinger.angular.multiply is schwinger.operators.multiply
        assert schwinger.cli.extract_block is schwinger.angular.extract_block
        assert schwinger.cli.extract_block is not extract_block
        assert schwinger.operators.SparseOperator.to_csr is not to_csr
    assert schwinger.angular.multiply is multiply
    assert schwinger.cli.extract_block is extract_block
    assert schwinger.operators.SparseOperator.to_csr is to_csr


def test_deleted_function_is_reported_absent():
    named = NAMED + ("cli._no_such_helper", "operators.SparseOperator.no_such_method")
    result, layers = traced_layers([["verify", "--nmax", "2"]], named=named)
    assert result["trace"]["absent"] == ["cli._no_such_helper",
                                         "operators.SparseOperator.no_such_method"]
    assert result["calls"][0]["error"] is None
    assert set(layers) == set(run.PER_LAYER)


def test_workloads_are_seeded():
    mix = workloads.small_mix(5)
    assert mix == workloads.small_mix(5) != workloads.small_mix(6)
    assert len(mix) == 200
    assert sum(argv[0] == "spectrum" for argv in mix) == 50
    assert 15 <= sum("--corrupt" in argv for argv in mix) <= 19
    assert max(int(argv[argv.index("--nmax") + 1]) for argv in mix) == 60


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_fails_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "small_mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
