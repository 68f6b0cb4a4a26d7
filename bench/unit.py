"""One workload run in a fresh process: ``python3 bench/unit.py ...``.

Run from the root of a checkout.  The first thing the process does is
import the package from ``src/``, and it stamps that moment so the parent
can measure set-up (interpreter start plus ``import schwinger``).  It then
calls ``schwinger.cli.main(argv)`` for each generated argv list in a
closed loop, with stdout and stderr captured, checks every output, and
prints one JSON line with the measurements.

``--probe`` stops after the import stamp.
"""

import os
import sys
import time

sys.path.insert(0, os.path.join(os.getcwd(), "src"))
import schwinger  # noqa: E402  (the import is what set-up measures)

IMPORTED_AT = time.monotonic()

import argparse  # noqa: E402
import ctypes  # noqa: E402
import glob  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext, redirect_stderr, redirect_stdout  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402
import schwinger.cli  # noqa: E402

import checks  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402


def call_cli(argv: list[str]) -> tuple[int | None, str, str]:
    """One in-process CLI call: (exit code or None if it raised, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    try:
        with redirect_stdout(out), redirect_stderr(err):
            # looked up per call, so a tracer's wrapper is what runs
            code = schwinger.cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception:  # a crash is a failed call, not a failed benchmark
        code = None
        err.write(traceback.format_exc())
    return code, out.getvalue(), err.getvalue()


def run_calls(calls, execute=call_cli, tracer=None, check=True) -> dict:
    """Issue ``calls`` one after another and, with ``check``, check each output.

    Returns wall and CPU seconds of the loop, per-call latency, a digest
    of each call's stdout and the reason each failed call failed.  An
    unchecked run is only as good as its digests: the caller compares
    them with those of a checked run of the same calls.
    """
    results = []
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    with tracer if tracer is not None else nullcontext():
        for argv in calls:
            start = time.perf_counter()
            code, out, err = execute(argv)
            results.append((time.perf_counter() - start, code, out, err))
    wall = time.perf_counter() - t0
    cpu = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    records = []
    stdout_bytes = 0
    for argv, (seconds, code, out, err) in zip(calls, results):
        data = out.encode()
        stdout_bytes += len(data)
        records.append({"ms": seconds * 1e3,
                        "sha256": hashlib.sha256(data).hexdigest(),
                        "error": checks.check_call(argv, code, out, err) if check else None})
    return {"wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_rss_mb,
            "stdout_bytes": stdout_bytes, "calls": records,
            "outputs": [r[2] for r in results]}


def recheck_determinism(calls, unit: dict, indices, execute=call_cli) -> None:
    """Re-issue the calls at ``indices``; a different stdout fails the call."""
    for i in indices:
        _, out, _ = execute(calls[i])
        if out != unit["outputs"][i] and unit["calls"][i]["error"] is None:
            unit["calls"][i]["error"] = "stdout differs when the same argv is issued again"


def _blas_threads(lib_dirs) -> int | None:
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    for path in sorted(p for d in lib_dirs for p in glob.glob(os.path.join(d, "*openblas*.so*"))):
        lib = ctypes.CDLL(path)
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    site = os.path.dirname(os.path.dirname(numpy.__file__))
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (AttributeError, KeyError):
        blas_name = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": _blas_threads([os.path.join(site, "numpy.libs"),
                                       os.path.join(site, "scipy.libs")]),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--check", type=int, choices=(0, 1), default=1)
    args = parser.parse_args()
    src = os.path.realpath(os.path.join(os.getcwd(), "src"))
    if not os.path.realpath(schwinger.__file__).startswith(src + os.sep):
        print(f"error: imported {schwinger.__file__}, not the package under {src}",
              file=sys.stderr)
        return 2
    result = {"imported_at": IMPORTED_AT}
    if not args.probe:
        calls = workloads.calls_for(args.workload, args.seed)
        tracer = Tracer() if args.trace else None
        unit = run_calls(calls, tracer=tracer, check=bool(args.check))
        if args.check and args.workload == "small_mix":
            recheck_determinism(calls, unit, workloads.determinism_subset(calls, args.seed))
        del unit["outputs"]
        result.update(unit, env=environment(),
                      trace=tracer.summary() if tracer else None)
    sys.stdout.write(json.dumps(result) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
