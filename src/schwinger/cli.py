"""Command-line verification front end.

Subcommands: verify, spectrum, sumrule, angle, limit, classical.  Each
emits a deterministic CSV or JSON document to stdout (or --out PATH);
an optional metadata header with a timestamp goes to stderr and is the
only place a timestamp ever appears, so data output is byte identical
across reruns with the same flags.

Exit codes: 0 all checks passed, 1 a verification check failed,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .angular import AngularMomentumSet, build_set, casimir, casimir_residual
from .classical import classical_components, sample_states
from .fock import build_basis
from .operators import SparseOperator, add, adjoint, commutator, from_entries, scale
from .spectra import (
    cos_theta,
    diagonal_report,
    gershgorin_discs,
    limit_scan,
    mean_square_from_spectrum,
    sum_rule_check,
)

# Guard against accidental quadratic blowup: n_max = 500 is dimension
# 125751 already.  Override with --force.
N_MAX_LIMIT = 500

# Caps on the table commands, each about where a run takes 1-2 s and
# writes some 4-14 MB of JSON: angle and limit build one row per level,
# sumrule does O(two_j) work per row.
TWO_J_LIMIT = 100_000
SUM_RULE_TWO_J_LIMIT = 30_000

# below this hbar, hbar^2 underflows the smallest normal double and every
# casimir would read 0 against an expected 0
HBAR_FLOOR = math.sqrt(np.finfo(float).tiny)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2

HIST_BINS = 20


class UsageError(Exception):
    pass


@dataclass(frozen=True)
class RunConfig:
    n_max: int
    hbar: float = 1.0
    tol: float = 1e-12
    format: str = "json"
    output_path: str | None = None
    seed: int = 0
    no_meta: bool = False
    force: bool = False


def _require_positive(flag: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"{flag} must be positive and finite, got {value}")


def _require_non_negative(flag: str, value: float):
    if value < 0:
        raise UsageError(f"{flag} must be non-negative, got {value}")


def _require_at_most(flag: str, value: float, limit: float):
    if value > limit:
        raise UsageError(f"{flag} {value} exceeds the limit {limit}")


def _validate(config: RunConfig, nmax_flag: str = "--nmax"):
    """Reject a config no command can run; ``nmax_flag`` is the flag
    n_max came from."""
    _require_non_negative(nmax_flag, config.n_max)
    if config.n_max > N_MAX_LIMIT and not config.force:
        raise UsageError(
            f"{nmax_flag} {config.n_max} exceeds the safety limit {N_MAX_LIMIT} "
            f"(pass --force to override)"
        )
    # one complex128 (16 bytes) per basis state must be addressable
    states = (config.n_max + 1) * (config.n_max + 2) // 2
    if states * 16 > np.iinfo(np.intp).max:
        raise UsageError(
            f"{nmax_flag} {config.n_max}: a basis of {states} states cannot be indexed"
        )
    _require_positive("--tol", config.tol)
    _require_positive("--hbar", config.hbar)
    if config.hbar < HBAR_FLOOR:
        raise UsageError(
            f"--hbar {config.hbar} is below {HBAR_FLOOR:.4g}, where hbar^2 underflows"
        )
    if config.format not in ("csv", "json"):
        raise UsageError(f"unknown format {config.format!r}")


# ---------------------------------------------------------------------------
# output plumbing

def _fmt(value) -> str:
    """One fixed text form per cell type; floats use 17 significant digits.

    A list becomes its items' cells joined by ``;``.
    """
    if value is None:
        return ""
    if isinstance(value, list):
        return ";".join(_fmt(x) for x in value)
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value}")
        return f"{value:.17g}"
    return str(value)


def _csv_text(header: list[str], rows: list[dict]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in header])
    return buf.getvalue()


def _json_rows(rows: list[dict], record: str = "row") -> list[dict]:
    """The rows tagged ``record``, without the CSV-only record column."""
    return [{k: v for k, v in r.items() if k != "record"}
            for r in rows if r["record"] == record]


def _emit(config: RunConfig, command: str, json_doc: dict,
          csv_header: list[str], csv_rows: list[dict]):
    try:  # both encoders refuse NaN and inf
        if config.format == "json":
            text = json.dumps(json_doc, indent=2, allow_nan=False) + "\n"
        else:
            text = _csv_text(csv_header, csv_rows)
    except ValueError:
        raise UsageError(
            f"--hbar {config.hbar}: a result overflows to a non-finite value"
        ) from None
    if not config.no_meta:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        print(f"# schwinger {__version__} | {command} | {stamp}", file=sys.stderr)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# verify battery

def _hermiticity_residual(op: SparseOperator) -> float:
    return add(op, scale(adjoint(op), -1.0)).max_abs()


def _block_leak_residual(amset: AngularMomentumSet) -> float:
    """Largest entry connecting different constant-n blocks (should be 0)."""
    _, _, totals = amset.basis.occupations()
    leaking = [op.vals[totals[op.rows] != totals[op.cols]]
               for op in (amset.jx, amset.jy, amset.jz, amset.jtot)]
    return float(np.max(np.abs(np.concatenate(leaking)), initial=0.0))


def _total_momentum_residual(amset: AngularMomentumSet) -> float:
    """jtot must be diagonal with entry hbar*n/2 at every state."""
    jt = amset.jtot
    _, _, totals = amset.basis.occupations()
    deviations = (jt.vals[jt.rows != jt.cols],
                  jt.to_csr().diagonal() - 0.5 * amset.hbar * totals)
    return float(np.max(np.abs(np.concatenate(deviations))))


def _block_reports(amset: AngularMomentumSet, cas: SparseOperator, ns) -> list:
    """The ``SpectrumReport`` of each block n in ``ns``.

    Every block is read off its rows of the global J_z and of ``cas``,
    the global J^2; a radius also counts J^2 entries that leak into
    other blocks.
    """
    centres, radii = gershgorin_discs(cas.to_csr())
    jz_diag = amset.jz.to_csr().diagonal()
    reports = []
    for n in ns:
        rows = amset.basis.block_range(n)
        sl = slice(rows.start, rows.stop)
        reports.append(diagonal_report(n, amset.hbar, jz_diag[sl], centres[sl], radii[sl]))
    return reports


def _verdict(checks: list[dict], tol: float) -> int:
    """Print one FAILED line per failed check to stderr; the exit code."""
    failed = [c for c in checks if not c["pass"]]
    for c in failed:
        print(
            f"FAILED {c['name']}: max_residual {_fmt(c['max_residual'])} "
            f"> tol {_fmt(tol)}",
            file=sys.stderr,
        )
    return EXIT_FAILED if failed else EXIT_OK


def run_battery(config: RunConfig, amset: AngularMomentumSet):
    """Run every verification check; returns (checks, blocks).

    Each check is {"name", "max_residual", "pass"}; pass means the
    residual is within config.tol.  Block records follow the fixed
    report schema.
    """
    tol = config.tol
    hbar = amset.hbar
    jx, jy, jz, jt = amset.jx, amset.jy, amset.jz, amset.jtot
    checks: list[tuple[str, float]] = []

    checks.append(("hermitian_jx", _hermiticity_residual(jx)))
    checks.append(("hermitian_jy", _hermiticity_residual(jy)))
    checks.append(("hermitian_jz", _hermiticity_residual(jz)))
    checks.append(("hermitian_jtot", _hermiticity_residual(jt)))
    checks.append(("block_structure", _block_leak_residual(amset)))
    checks.append(("total_momentum_diagonal", _total_momentum_residual(amset)))

    pairs = [("commutator_xy_z", jx, jy, jz), ("commutator_yz_x", jy, jz, jx),
             ("commutator_zx_y", jz, jx, jy)]
    for name, a, b, c in pairs:
        resid = add(commutator(a, b), scale(c, -1j * hbar))
        checks.append((name, resid.fro_norm()))

    cas = casimir(amset)
    for name, op in (("casimir_commutes_x", jx), ("casimir_commutes_y", jy),
                     ("casimir_commutes_z", jz)):
        checks.append((name, commutator(cas, op).fro_norm()))
    for name, op in (("total_commutes_x", jx), ("total_commutes_y", jy),
                     ("total_commutes_z", jz)):
        checks.append((name, commutator(op, jt).fro_norm()))

    quantum = casimir_residual(amset, 1.0, cas=cas)
    checks.append(("quadratic_identity_quantum", quantum.max_abs()))
    classical_form = add(casimir_residual(amset, 0.0, cas=cas), scale(jt, -hbar))
    checks.append(("quadratic_identity_classical_form", classical_form.max_abs()))

    reports = _block_reports(amset, cas, range(config.n_max + 1))
    for name, field in (
        ("block_dimension", "dim_dev"),
        ("jz_spectrum_grid", "grid_dev"),
        ("casimir_block_value", "value_dev"),
        ("casimir_block_spread", "spread"),
        ("mean_square_consistency", "mean_square_dev"),
        ("sum_rule_blocks", "sum_rule_dev"),
    ):
        checks.append((name, float(np.max([getattr(r, field) for r in reports]))))

    check_records = [
        {"name": name, "max_residual": float(residual), "pass": residual <= tol}
        for name, residual in checks
    ]
    block_records = [
        {"two_j": r.two_j, "casimir": r.casimir_value,
         "jz_spectrum": list(r.jz_eigenvalues), "sum_rule_pass": r.sum_rule_dev == 0}
        for r in reports
    ]
    return check_records, block_records


def _apply_corruption(amset: AngularMomentumSet, directive: str) -> AngularMomentumSet:
    """Test hook: add a delta to one entry of one operator.

    Format: OP,ROW,COL,DELTA with OP in {jx, jy, jz, jtot}.
    """
    try:
        name, row_s, col_s, delta_s = directive.split(",")
        row, col, delta = int(row_s), int(col_s), float(delta_s)
    except ValueError:
        raise UsageError(
            f"bad --corrupt value {directive!r}; expected OP,ROW,COL,DELTA"
        ) from None
    if not math.isfinite(delta):
        raise UsageError(f"--corrupt DELTA must be finite, got {delta_s!r}")
    if name not in ("jx", "jy", "jz", "jtot"):
        raise UsageError(f"--corrupt operator must be jx|jy|jz|jtot, not {name!r}")
    op: SparseOperator = getattr(amset, name)
    if not (0 <= row < op.dim and 0 <= col < op.dim):
        raise UsageError(f"--corrupt entry ({row},{col}) outside dimension {op.dim}")
    bump = from_entries(op.dim, [row], [col], [delta])
    return dataclasses.replace(amset, **{name: add(op, bump)})


def cmd_verify(config: RunConfig, corrupt: str | None = None) -> int:
    _validate(config)
    amset = build_set(build_basis(config.n_max), config.hbar)
    if corrupt:
        amset = _apply_corruption(amset, corrupt)
    checks, blocks = run_battery(config, amset)

    json_doc = {
        "n_max": config.n_max,
        "hbar": config.hbar,
        "tol": config.tol,
        "checks": checks,
        "blocks": blocks,
    }
    header = ["record", "name", "value", "max_residual", "pass",
              "two_j", "casimir", "jz_spectrum", "sum_rule_pass"]
    rows = [
        {"record": "config", "name": "n_max", "value": config.n_max},
        {"record": "config", "name": "hbar", "value": config.hbar},
        {"record": "config", "name": "tol", "value": config.tol},
    ]
    rows += [
        {"record": "check", "name": c["name"],
         "max_residual": c["max_residual"], "pass": c["pass"]}
        for c in checks
    ]
    rows += [
        {"record": "block", "two_j": b["two_j"], "casimir": b["casimir"],
         "jz_spectrum": b["jz_spectrum"],
         "sum_rule_pass": b["sum_rule_pass"]}
        for b in blocks
    ]
    _emit(config, "verify", json_doc, header, rows)
    return _verdict(checks, config.tol)


# ---------------------------------------------------------------------------
# table commands

def cmd_spectrum(config: RunConfig, n: int, nmax_flag: str = "--nmax") -> int:
    _validate(config, nmax_flag)
    _require_non_negative("--n", n)
    if n > config.n_max:
        raise UsageError(f"--n {n} exceeds --nmax {config.n_max}")
    amset = build_set(build_basis(config.n_max), config.hbar)
    (report,) = _block_reports(amset, casimir(amset), [n])
    mean_square = mean_square_from_spectrum(report)
    rows = [
        {"record": "row", "two_j": n, "two_mj": n - 2 * k,
         "jz": report.jz_eigenvalues[k], "casimir": report.casimir_value,
         "mean_square": mean_square}
        for k in range(n + 1)
    ]
    json_doc = {
        "command": "spectrum",
        "n_max": config.n_max,
        "hbar": config.hbar,
        "tol": config.tol,
        "two_j": n,
        "casimir": report.casimir_value,
        "mean_square": mean_square,
        "max_residual": report.max_residual,
        "rows": [
            {"two_mj": r["two_mj"], "jz": r["jz"]} for r in rows
        ],
    }
    header = ["record", "two_j", "two_mj", "jz", "casimir", "mean_square"]
    _emit(config, "spectrum", json_doc, header, rows)
    check = {"name": "casimir_block_spread", "max_residual": report.spread,
             "pass": report.spread <= config.tol}
    return _verdict([check], config.tol)


def cmd_sumrule(config: RunConfig, two_j_max: int) -> int:
    _require_non_negative("--two-j-max", two_j_max)
    _require_at_most("--two-j-max", two_j_max, SUM_RULE_TWO_J_LIMIT)
    rows = []
    all_pass = True
    for k in range(two_j_max + 1):
        lhs, rhs = sum_rule_check(k)
        ok = lhs == rhs
        all_pass = all_pass and ok
        rows.append({"record": "row", "two_j": k, "lhs_quarters": lhs,
                     "rhs_quarters": rhs, "pass": ok})
    rows.append({"record": "summary", "pass": all_pass})
    json_doc = {
        "command": "sumrule",
        "two_j_max": two_j_max,
        "rows": _json_rows(rows),
        "all_pass": all_pass,
    }
    header = ["record", "two_j", "lhs_quarters", "rhs_quarters", "pass"]
    _emit(config, "sumrule", json_doc, header, rows)
    return EXIT_OK if all_pass else EXIT_FAILED


def cmd_angle(config: RunConfig, two_j: int, epsilon: float) -> int:
    if two_j < 1:
        raise UsageError(f"angle undefined at two_j={two_j}: |J| = 0 there")
    _require_at_most("--two-j", two_j, TWO_J_LIMIT)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise UsageError(f"--epsilon must be non-negative and finite, got {epsilon}")
    rows = [
        {"record": "row", "two_j": two_j, "two_mj": two_mj, "epsilon": epsilon,
         "cos_theta": cos_theta(two_j, two_mj, epsilon)}
        for two_mj in range(two_j, -two_j - 1, -2)
    ]
    json_doc = {
        "command": "angle",
        "two_j": two_j,
        "epsilon": epsilon,
        "rows": _json_rows(rows),
    }
    header = ["record", "two_j", "two_mj", "epsilon", "cos_theta"]
    _emit(config, "angle", json_doc, header, rows)
    return EXIT_OK


def cmd_limit(config: RunConfig, two_j_max: int, epsilon: float) -> int:
    if two_j_max < 1:
        raise UsageError(f"--two-j-max must be at least 1, got {two_j_max}")
    _require_at_most("--two-j-max", two_j_max, TWO_J_LIMIT)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise UsageError(f"--epsilon must be non-negative and finite, got {epsilon}")
    results = limit_scan(two_j_max, epsilon)
    values = [r.cos_theta for r in results]
    monotonic = all(b > a for a, b in zip(values, values[1:]))
    rows = [
        {"record": "row", "two_j": r.two_j, "epsilon": epsilon,
         "cos_theta": r.cos_theta, "gap_bound": 1.0 / r.two_j}
        for r in results
    ]
    rows.append({"record": "summary", "monotonic": monotonic})
    json_doc = {
        "command": "limit",
        "two_j_max": two_j_max,
        "epsilon": epsilon,
        "rows": _json_rows(rows),
        "monotonic": monotonic,
    }
    header = ["record", "two_j", "epsilon", "cos_theta", "gap_bound", "monotonic"]
    _emit(config, "limit", json_doc, header, rows)
    return EXIT_OK


def cmd_classical(config: RunConfig, count: int, bound: float) -> int:
    if count < 1:
        raise UsageError(f"--count must be at least 1, got {count}")
    _require_positive("--bound", bound)
    _validate(config)
    top = config.hbar * bound * bound  # jtot <= hbar * bound^2
    # the squares below reach top^2 up to rounding; the factor 2 is headroom
    if not math.isfinite(2.0 * top * top):
        raise UsageError(f"--hbar {config.hbar} with --bound {bound}: a result "
                         "overflows to a non-finite value")
    states = sample_states(count, bound, config.seed, config.hbar)
    tiny = float(np.finfo(float).tiny)
    rows = []
    max_rel = 0.0
    jtots = []
    for idx, state in enumerate(states):
        comps = classical_components(state)
        lhs = comps.jx ** 2 + comps.jy ** 2 + comps.jz ** 2
        denom = max(comps.jtot ** 2, tiny)
        rel = abs(lhs - comps.jtot ** 2) / denom
        max_rel = max(max_rel, rel)
        jtots.append(comps.jtot)
        rows.append(
            {"record": "sample", "index": idx, "jx": comps.jx, "jy": comps.jy,
             "jz": comps.jz, "jtot": comps.jtot, "rel_residual": rel}
        )
    counts, edges = np.histogram(jtots, bins=HIST_BINS, range=(0.0, top))
    rows += [
        {"record": "hist", "bin_lo": float(edges[i]), "bin_hi": float(edges[i + 1]),
         "count": int(counts[i])}
        for i in range(HIST_BINS)
    ]
    ok = max_rel < config.tol
    rows.append({"record": "summary", "max_rel_residual": max_rel, "pass": ok})
    json_doc = {
        "command": "classical",
        "count": count,
        "amplitude_bound": bound,
        "seed": config.seed,
        "hbar": config.hbar,
        "tol": config.tol,
        "samples": _json_rows(rows, "sample"),
        "histogram": _json_rows(rows, "hist"),
        "max_rel_residual": max_rel,
        "pass": ok,
    }
    header = ["record", "index", "jx", "jy", "jz", "jtot", "rel_residual",
              "bin_lo", "bin_hi", "count", "max_rel_residual", "pass"]
    _emit(config, "classical", json_doc, header, rows)
    return EXIT_OK if ok else EXIT_FAILED


# ---------------------------------------------------------------------------
# argument parsing

def _two_j_from_decimal(j: float) -> int:
    two_j = 2.0 * j
    if not (math.isfinite(two_j) and two_j == round(two_j)):
        raise UsageError(f"--j must end in .0 or .5, got {j}")
    _require_non_negative("--j", j)
    _require_at_most("--j", j, TWO_J_LIMIT / 2)
    return int(round(two_j))


def _config_from(args, n_max: int) -> RunConfig:
    return RunConfig(
        n_max=n_max,
        hbar=args.hbar,
        tol=args.tol,
        format=args.format,
        output_path=args.out,
        seed=args.seed,
        no_meta=args.no_meta,
        force=args.force,
    )


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--hbar", type=float, default=1.0, help="action scale (default 1.0)")
    common.add_argument("--tol", type=float, default=1e-12, help="pass tolerance (default 1e-12)")
    common.add_argument("--format", choices=("csv", "json"), default="json",
                        help="output encoding (default json)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write data to PATH instead of stdout")
    common.add_argument("--seed", type=int, default=0, help="sampler seed (default 0)")
    common.add_argument("--no-meta", action="store_true",
                        help="suppress the stderr metadata header")
    common.add_argument("--force", action="store_true",
                        help=f"override the --nmax {N_MAX_LIMIT} safety limit")

    parser = argparse.ArgumentParser(
        prog="schwinger",
        description="Verify the coupled-boson construction of angular momentum.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[common],
                       help="run the full identity battery over a truncated basis")
    p.add_argument("--nmax", type=int, required=True, help="total-occupation cutoff")
    p.add_argument("--corrupt", metavar="OP,ROW,COL,DELTA", default=None,
                   help="test hook: perturb one operator entry before verifying")

    p = sub.add_parser("spectrum", parents=[common],
                       help="J_z levels and casimir value of one block")
    p.add_argument("--n", type=int, required=True, help="block total occupation (= 2j)")
    p.add_argument("--nmax", type=int, default=None,
                   help="basis cutoff (default: just large enough for --n)")

    p = sub.add_parser("sumrule", parents=[common],
                       help="exact half-integer sum rule table")
    p.add_argument("--two-j-max", type=int, required=True)

    p = sub.add_parser("angle", parents=[common],
                       help="cos(theta) between J_z and J for every m of one j")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--two-j", type=int, default=None)
    group.add_argument("--j", type=float, default=None,
                       help="decimal spin; must end in .0 or .5")
    p.add_argument("--epsilon", type=float, default=1.0,
                   help="commutator strength: 1 quantum, 0 classical (default 1)")

    p = sub.add_parser("limit", parents=[common],
                       help="extremal alignment scan toward the classical limit")
    p.add_argument("--two-j-max", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1.0)

    p = sub.add_parser("classical", parents=[common],
                       help="sample commuting-amplitude states and check j^2 exactly")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--bound", type=float, default=2.0,
                   help="amplitude disc radius (default 2.0)")

    return parser


def _dispatch(args) -> int:
    if args.command == "verify":
        return cmd_verify(_config_from(args, args.nmax), corrupt=args.corrupt)
    if args.command == "spectrum":
        if args.nmax is None:
            return cmd_spectrum(_config_from(args, args.n), args.n, "--n")
        return cmd_spectrum(_config_from(args, args.nmax), args.n)
    if args.command == "sumrule":
        return cmd_sumrule(_config_from(args, 0), args.two_j_max)
    if args.command == "angle":
        if args.two_j is None:
            two_j = _two_j_from_decimal(args.j)
        else:
            two_j = args.two_j
            _require_non_negative("--two-j", two_j)
        return cmd_angle(_config_from(args, 0), two_j, args.epsilon)
    if args.command == "limit":
        return cmd_limit(_config_from(args, 0), args.two_j_max, args.epsilon)
    if args.command == "classical":
        return cmd_classical(_config_from(args, 0), args.count, args.bound)
    raise UsageError(f"unknown command {args.command!r}")


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    try:
        # overflow shows up as a non-finite result, reported by _emit
        with np.errstate(all="ignore"):
            return _dispatch(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
