"""Benchmark of the ``schwinger`` CLI, run from the root of a checkout.

    python3 bench/run.py --workload verify_n500 --seed 1 --seconds 36 --trace 0

Each workload run is a fresh process (``bench/unit.py``) that imports the
package from ``src/`` and drives ``schwinger.cli.main(argv)`` in-process
from one thread, in a closed loop: each call is sent when the previous
one returns.  SCHWINGER_THREADS and the BLAS thread variables are
removed from the environment, so the library runs with its defaults;
the BLAS thread count it picks is recorded.

``--trace 0`` measures the end-to-end metrics.  It repeats the workload
in fresh processes until ``--seconds`` would be exceeded, times set-up
before each of them, and reports medians over those runs; call latency
percentiles are taken within each run.

``--trace 1`` runs the workload untraced, traced with every package
function wrapped (``bench/tracer.py``), and untraced again, and reports
per-layer metrics from the traced run; ``trace_overhead_s`` is traced
wall minus the mean untraced wall.

Every call's exit code and output are checked (``bench/checks.py``), and
the same argv must give the same stdout in every run.  The last line of
stdout is one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 5
DEADLINE_S = 170  # a run must end within 180 s
CLEARED_ENV = ("SCHWINGER_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
               "MKL_NUM_THREADS", "GOTO_NUM_THREADS")

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB",
    "call_p50_ms": "ms", "call_p90_ms": "ms",
}

PER_LAYER = {
    "fock.self_s": "s", "operators.self_s": "s", "angular.self_s": "s",
    "spectra.self_s": "s", "classical.self_s": "s", "cli.self_s": "s",
    "fock.build_basis.self_s": "s", "fock.states": "count",
    "operators.annihilation.self_s": "s",
    "operators.from_entries.calls": "count",
    "operators.from_entries.triplets_in": "count",
    "operators.from_entries.kept_ratio": "ratio",
    "operators.multiply.self_s": "s",
    "operators.to_csr.calls": "count", "operators.to_csr.nnz": "count",
    "operators.to_csr.self_s": "s",
    "angular.build_set.self_s": "s", "angular.casimir.self_s": "s",
    "angular.extract_block.self_s": "s", "angular.block_bytes": "bytes",
    "spectra.jacobi_eigen.calls": "count", "spectra.jacobi_eigen.self_s": "s",
    "spectra.jacobi_eigen.diagonal_input_ratio": "ratio",
    "classical.sample_states.self_s": "s",
    "classical.classical_components.self_s": "s",
    "cli.emit.self_s": "s", "cli.emit.bytes": "bytes",
    "trace.wall_s": "s", "trace.self_sum_s": "s", "trace.hook_s": "s",
    "trace.spans": "count", "trace_overhead_s": "s",
}


class BenchError(Exception):
    pass


def spawn_unit(args: list[str], deadline: float) -> dict:
    """Run ``bench/unit.py`` in a fresh process; its result with ``setup_s``."""
    env = {k: v for k, v in os.environ.items() if k not in CLEARED_ENV}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "unit.py"), *args],
            env=env, capture_output=True, text=True,
            timeout=max(1.0, deadline - started))
    except subprocess.TimeoutExpired:
        raise BenchError(f"unit {args} did not finish before the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"unit {args} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.splitlines()[-1])
    result["setup_s"] = result["imported_at"] - started
    result["process_s"] = time.monotonic() - started
    return result


def mark_nondeterministic(units: list[dict]) -> None:
    """Every run issues the same argv lists, so stdout digests must agree.

    Only the first run checks its outputs; a later run whose stdout has
    the same digest printed the same, checked, bytes.
    """
    first = [c["sha256"] for c in units[0]["calls"]]
    for unit in units[1:]:
        for digest, call in zip(first, unit["calls"]):
            if call["sha256"] != digest and call["error"] is None:
                call["error"] = "stdout differs from the same argv in another run"


def percentile(values: list[float], q: int) -> float:
    """q-th percentile (inclusive interpolation); the value itself if single."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(units: list[dict], setups: list[float]) -> dict[str, float]:
    """Medians over the runs; call percentiles are taken within each run."""
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(u["wall_s"] for u in units),
        "cpu_s": statistics.median(u["cpu_s"] for u in units),
        "peak_rss_mb": statistics.median(u["peak_rss_mb"] for u in units),
        "call_p50_ms": statistics.median(
            percentile([c["ms"] for c in u["calls"]], 50) for u in units),
        "call_p90_ms": statistics.median(
            percentile([c["ms"] for c in u["calls"]], 90) for u in units),
    }


def per_layer(traced: dict, untraced_wall_s: float) -> dict[str, float]:
    t = traced["trace"]
    calls, self_s, counters = t["calls"], t["self_s"], t["counters"]

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    out = {f"{layer}.self_s": seconds for layer, seconds in t["layer_self_s"].items()}
    for name in ("fock.build_basis", "operators.annihilation", "operators.multiply",
                 "operators.to_csr",
                 "angular.build_set", "angular.casimir", "angular.extract_block",
                 "spectra.jacobi_eigen", "classical.sample_states",
                 "classical.classical_components"):
        out[f"{name}.self_s"] = self_s.get(name, 0.0)
    for name in ("operators.from_entries", "operators.to_csr", "spectra.jacobi_eigen"):
        out[f"{name}.calls"] = calls.get(name, 0)
    out.update({
        "fock.states": counters.get("fock.build_basis.states", 0),
        "operators.from_entries.triplets_in":
            counters.get("operators.from_entries.triplets_in", 0),
        "operators.from_entries.kept_ratio": ratio(
            counters.get("operators.from_entries.nnz_out", 0),
            counters.get("operators.from_entries.triplets_in", 0)),
        "operators.to_csr.nnz": counters.get("operators.to_csr.nnz", 0),
        "angular.block_bytes": counters.get("angular.extract_block.block_bytes", 0),
        "spectra.jacobi_eigen.diagonal_input_ratio": ratio(
            counters.get("spectra.jacobi_eigen.diagonal_inputs", 0),
            calls.get("spectra.jacobi_eigen", 0)),
        "cli.emit.self_s": self_s.get("cli._emit", 0.0),
        "cli.emit.bytes": traced["stdout_bytes"],
        "trace.wall_s": traced["wall_s"],
        "trace.self_sum_s": sum(self_s.values()),
        # counter work inside the traced wall that no span's self time covers
        "trace.hook_s": t["hook_s"],
        "trace.spans": t["spans"],
        "trace_overhead_s": traced["wall_s"] - untraced_wall_s,
    })
    return out


def source_identity(root: str) -> dict:
    """Commit if the checkout is a git repository, and a digest of src/."""
    digest = hashlib.sha256()
    src = os.path.join(root, "src")
    for dirpath, dirnames, filenames in os.walk(src):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, src).encode() + b"\0")
                with open(path, "rb") as fh:
                    digest.update(fh.read())
    commit = None
    if os.path.isdir(os.path.join(root, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root,
                                  capture_output=True, text=True, timeout=20)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {"commit": commit, "src_sha256": digest.hexdigest()}


def measure(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    unit_args = ["--workload", workload, "--seed", str(seed)]
    if trace:
        # untraced runs on both sides of the traced one, so drift in machine
        # speed does not show up as tracing overhead
        units = [spawn_unit(unit_args + ["--trace", str(t), "--check", str(c)], deadline)
                 for t, c in ((0, 1), (1, 0), (0, 0))]
        mark_nondeterministic(units)
        metrics = per_layer(units[1], statistics.mean(u["wall_s"] for u in units[::2]))
        metric_units = PER_LAYER
    else:
        # set-up probes are spread over the run, one before each workload run
        setups, units = [], []
        started = time.monotonic()
        # start another run only if it should end within --seconds
        while not units or (time.monotonic() - started
                            + units[-1]["process_s"] <= seconds):
            setups.append(spawn_unit(["--probe"], deadline)["setup_s"])
            units.append(spawn_unit(unit_args + ["--check", "0" if units else "1"],
                                    deadline))
        while len(setups) < SETUP_PROBES:
            setups.append(spawn_unit(["--probe"], deadline)["setup_s"])
        mark_nondeterministic(units)
        metrics = end_to_end(units, setups + [u["setup_s"] for u in units])
        metric_units = END_TO_END
    calls = [c for u in units for c in u["calls"]]
    failures = [c["error"] for c in calls if c["error"] is not None]
    return {
        "workload": workload, "seed": seed, "trace": int(trace),
        "run_walls": [u["wall_s"] for u in units],
        "attempted": len(calls), "failed": len(failures), "failures": failures,
        "metrics": {name: {"value": metrics[name], "unit": metric_units[name]}
                    for name in metric_units},
        "env": {"workload": workload, "seed": seed, **units[0]["env"],
                **source_identity(os.getcwd()),
                "cleared_env": {k: os.environ[k] for k in CLEARED_ENV if k in os.environ}},
        "absent": units[1]["trace"]["absent"] if trace else [],
    }


def report(result: dict) -> None:
    print(f"workload {result['workload']}  seed {result['seed']}  "
          f"trace {result['trace']}  runs {len(result['run_walls'])}  wall_s of each: "
          + " ".join(f"{w:.4g}" for w in result["run_walls"]))
    for name, m in result["metrics"].items():
        print(f"  {name:<44} {m['value']:>16.6g} {m['unit']}")
    error_rate = result["failed"] / result["attempted"]
    print(f"  {'error_rate':<44} {error_rate:>16.6g} ratio "
          f"({result['failed']} of {result['attempted']} calls)")
    for reason in result["failures"][:5]:
        print(f"  failed: {reason}")
    if result["absent"]:
        print(f"  absent (reported as 0): {', '.join(result['absent'])}")
    print("env " + json.dumps(result["env"], sort_keys=True))
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": result["metrics"],
    }))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "schwinger", "cli.py")):
        print("error: run from the root of a schwinger checkout "
              "(src/schwinger/cli.py not found)", file=sys.stderr)
        return 2
    try:
        result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
