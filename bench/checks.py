"""Correctness checks on CLI output, written from the README contract alone.

Nothing here imports the package under test: the expected values are the
closed forms of the spin-j representation (casimir j(j+1) hbar^2, J_z
levels m hbar), the documented output shapes, and the documented sampler.
A faster program that skips a check or prints a wrong number fails here.

Each ``check_*`` function returns None when the output is right and a
one-line reason when it is not.
"""

from __future__ import annotations

import csv
import io
import json
import math

import numpy as np

# Every check the verify battery reports at the commit that defined the
# benchmark.  A later program may add checks but may not drop one.
VERIFY_CHECKS = frozenset({
    "hermitian_jx", "hermitian_jy", "hermitian_jz", "hermitian_jtot",
    "block_structure", "total_momentum_diagonal",
    "commutator_xy_z", "commutator_yz_x", "commutator_zx_y",
    "casimir_commutes_x", "casimir_commutes_y", "casimir_commutes_z",
    "total_commutes_x", "total_commutes_y", "total_commutes_z",
    "quadratic_identity_quantum", "quadratic_identity_classical_form",
    "block_dimension", "jz_spectrum_grid", "casimir_block_value",
    "casimir_block_spread", "mean_square_consistency", "sum_rule_blocks",
})

DEFAULTS = {"--hbar": "1.0", "--tol": "1e-12", "--format": "json",
            "--seed": "0", "--bound": "2.0"}


class Wrong(Exception):
    """The output breaks the contract; the message says where."""


def flags(argv: list[str]) -> dict[str, str]:
    out = dict(DEFAULTS)
    for key, value in zip(argv[1::2], argv[2::2]):
        out[key] = value
    return out


def _near(got, want: float, tol: float, what: str):
    if not isinstance(got, (int, float)) or isinstance(got, bool) \
            or not math.isfinite(got) or abs(got - want) > tol:
        raise Wrong(f"{what} is {got!r}, expected {want!r} within {tol:g}")


def _bool(text: str) -> bool:
    if text not in ("true", "false"):
        raise Wrong(f"expected true or false, got {text!r}")
    return text == "true"


def _csv_records(stdout: str) -> dict[str, list[dict]]:
    by_kind: dict[str, list[dict]] = {}
    for row in csv.DictReader(io.StringIO(stdout)):
        by_kind.setdefault(row["record"], []).append(row)
    return by_kind


def _verify_doc(stdout: str, fmt: str) -> dict:
    """The verify output as the JSON shape, whichever format was asked for."""
    if fmt == "json":
        return json.loads(stdout)
    rec = _csv_records(stdout)
    config = {r["name"]: float(r["value"]) for r in rec.get("config", [])}
    return {
        "n_max": int(config["n_max"]),
        "hbar": config["hbar"],
        "tol": config["tol"],
        "checks": [{"name": r["name"], "max_residual": float(r["max_residual"]),
                    "pass": _bool(r["pass"])} for r in rec.get("check", [])],
        "blocks": [{"two_j": int(r["two_j"]), "casimir": float(r["casimir"]),
                    "jz_spectrum": [float(x) for x in r["jz_spectrum"].split(";")],
                    "sum_rule_pass": _bool(r["sum_rule_pass"])}
                   for r in rec.get("block", [])],
    }


def _check_verify(argv, code, stdout, stderr):
    f = flags(argv)
    n_max, hbar, tol = int(f["--nmax"]), float(f["--hbar"]), float(f["--tol"])
    failed_lines = [ln for ln in stderr.splitlines() if ln.startswith("FAILED ")]
    doc = _verify_doc(stdout, f["--format"])
    if (doc["n_max"], doc["hbar"], doc["tol"]) != (n_max, hbar, tol):
        raise Wrong(f"config echo {doc['n_max'], doc['hbar'], doc['tol']} "
                    f"differs from the flags {n_max, hbar, tol}")
    checks = {c["name"]: c for c in doc["checks"]}
    if "--corrupt" in f:
        if code != 1 or not failed_lines:
            raise Wrong(f"corrupted run exited {code} with "
                        f"{len(failed_lines)} FAILED lines; expected exit 1 and a FAILED line")
        if all(c["pass"] for c in checks.values()):
            raise Wrong("corrupted run reports every check as passing")
        return
    if code != 0 or failed_lines:
        raise Wrong(f"clean run exited {code} with {len(failed_lines)} FAILED lines")
    missing = VERIFY_CHECKS - checks.keys()
    if missing:
        raise Wrong(f"checks missing from the report: {sorted(missing)}")
    for name, c in checks.items():
        residual = c["max_residual"]
        if c["pass"] is not True or not (math.isfinite(residual) and 0 <= residual <= tol):
            raise Wrong(f"check {name} reports pass={c['pass']} "
                        f"max_residual={residual!r} at tol {tol:g}")
    blocks = doc["blocks"]
    if [b["two_j"] for b in blocks] != list(range(n_max + 1)):
        raise Wrong(f"blocks are not two_j = 0..{n_max} in order")
    for b in blocks:
        n = b["two_j"]
        j = 0.5 * n
        _near(b["casimir"], j * (j + 1) * hbar * hbar, tol, f"casimir of block {n}")
        levels = b["jz_spectrum"]
        if len(levels) != n + 1:
            raise Wrong(f"block {n} has {len(levels)} J_z levels, expected {n + 1}")
        for k, level in enumerate(levels):
            _near(level, (j - k) * hbar, tol, f"J_z level {k} of block {n}")
        if b["sum_rule_pass"] is not True:
            raise Wrong(f"block {n} reports sum_rule_pass={b['sum_rule_pass']!r}")


def _check_spectrum(argv, code, stdout, stderr):
    f = flags(argv)
    n, hbar, tol = int(f["--n"]), float(f["--hbar"]), float(f["--tol"])
    if code != 0:
        raise Wrong(f"spectrum exited {code}")
    if f["--format"] == "json":
        doc = json.loads(stdout)
        if doc["command"] != "spectrum" or doc["two_j"] != n:
            raise Wrong(f"spectrum document is for {doc.get('command')} two_j={doc.get('two_j')}")
        casimir, mean_square = doc["casimir"], doc["mean_square"]
        rows = [(r["two_mj"], r["jz"]) for r in doc["rows"]]
    else:
        recs = _csv_records(stdout).get("row", [])
        if not recs or any(int(r["two_j"]) != n for r in recs):
            raise Wrong(f"spectrum rows are not all for two_j={n}")
        casimir, mean_square = float(recs[0]["casimir"]), float(recs[0]["mean_square"])
        rows = [(int(r["two_mj"]), float(r["jz"])) for r in recs]
    j = 0.5 * n
    _near(casimir, j * (j + 1) * hbar * hbar, tol, f"casimir of block {n}")
    _near(mean_square, j * (j + 1) * hbar * hbar, tol, f"3<J_z^2> of block {n}")
    if [m for m, _ in rows] != list(range(n, -n - 1, -2)):
        raise Wrong(f"two_mj column is not {n}, {n - 2}, ..., {-n}")
    for two_mj, jz in rows:
        _near(jz, 0.5 * two_mj * hbar, tol, f"J_z level two_mj={two_mj}")


# The sampler's documented generator (README, "Reproducible sampling").
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_MASK = (1 << 64) - 1


def expected_classical(count: int, bound: float, seed: int, hbar: float) -> np.ndarray:
    """(jx, jy, jz, jtot) of each documented sample, as a count x 4 array."""
    state = seed & _MASK
    u = np.empty(4 * count)
    for i in range(4 * count):
        state = (state * _LCG_A + _LCG_C) & _MASK
        u[i] = (state >> 11) / 9007199254740992.0
    r1, t1, r2, t2 = (u[k::4] for k in range(4))
    a1 = bound * np.sqrt(r1) * np.exp(2j * np.pi * t1)
    a2 = bound * np.sqrt(r2) * np.exp(2j * np.pi * t2)
    cross = np.conj(a1) * a2
    m1, m2 = np.abs(a1) ** 2, np.abs(a2) ** 2
    return hbar * np.column_stack(
        [cross.real, cross.imag, 0.5 * (m1 - m2), 0.5 * (m1 + m2)])


def _check_classical(argv, code, stdout, stderr):
    f = flags(argv)
    count, seed = int(f["--count"]), int(f["--seed"])
    bound, hbar, tol = float(f["--bound"]), float(f["--hbar"]), float(f["--tol"])
    if code != 0 or f["--format"] != "json":
        raise Wrong(f"classical exited {code}")
    doc = json.loads(stdout)
    if (doc["command"], doc["count"], doc["seed"]) != ("classical", count, seed):
        raise Wrong("classical document does not echo command, count and seed")
    if doc["pass"] is not True:
        raise Wrong("classical run reports pass=false")
    samples = doc["samples"]
    if [s["index"] for s in samples] != list(range(count)):
        raise Wrong(f"sample indices are not 0..{count - 1}")
    got = np.array([[s["jx"], s["jy"], s["jz"], s["jtot"]] for s in samples], dtype=float)
    jx, jy, jz, jtot = got.T
    # the classical identity, recomputed from the reported components
    rel = np.abs(jx * jx + jy * jy + jz * jz - jtot * jtot) / np.maximum(
        jtot * jtot, np.finfo(float).tiny)
    worst = int(np.argmax(rel))
    if not rel[worst] < tol:
        raise Wrong(f"sample {worst}: jx^2+jy^2+jz^2 differs from jtot^2 by "
                    f"{rel[worst]:.3e} relative (tol {tol:g})")
    # the samples are the documented ones
    want = expected_classical(count, bound, seed, hbar)
    dev = np.abs(got - want).max(axis=1) / (hbar * bound * bound)
    worst = int(np.argmax(dev))
    if not dev[worst] < 1e-9:
        raise Wrong(f"sample {worst} is not the documented LCG sample "
                    f"(relative deviation {dev[worst]:.3e})")
    if sum(h["count"] for h in doc["histogram"]) != count:
        raise Wrong("histogram counts do not add up to the sample count")


CHECKERS = {"verify": _check_verify, "spectrum": _check_spectrum,
            "classical": _check_classical}


def check_call(argv: list[str], code: int, stdout: str, stderr: str) -> str | None:
    """None if this call's exit code and output are right, else the reason."""
    try:
        CHECKERS[argv[0]](argv, code, stdout, stderr)
    except Wrong as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
        return f"unreadable {argv[0]} output: {type(exc).__name__}: {exc}"
    return None
