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
from .classical import sample_amplitudes
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

# verify at n_max 1000 (dimension 501501) takes about 4 s and 250 MB from
# the shell, near classical at COUNT_LIMIT; at 1500 it takes 9 s and 500 MB
N_MAX_LIMIT = 1000

# Caps on the table commands, each about where a run takes 1-2 s and
# writes some 4-14 MB of JSON: angle and limit build one row per level,
# sumrule does O(two_j) work per row.
TWO_J_LIMIT = 100_000
SUM_RULE_TWO_J_LIMIT = 30_000
# classical writes about 200 bytes of JSON per sample
COUNT_LIMIT = 1_000_000

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
    no_meta: bool = False


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
    _require_at_most(nmax_flag, config.n_max, N_MAX_LIMIT)
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

# records rendered per piece of output, so no command holds its whole
# document as text
CHUNK_RECORDS = 8192


@dataclass(frozen=True, eq=False)
class Table:
    """Records of one kind, held by column.

    ``columns`` maps each field name to a list, range or 1-D numpy array
    with one cell per record.  JSON writes the fields in this order; CSV
    writes the columns its header names, tagged ``record``.
    """

    record: str
    columns: dict

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


def _table(record: str, records: list[dict]) -> Table:
    """The column form of a short list of dicts with the same keys."""
    return Table(record, {k: [r[k] for r in records] for k in records[0]})


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


def _json_value(value, depth: int) -> str:
    """The text ``json.dumps(indent=2)`` writes for ``value`` at ``depth``."""
    if value is None:
        return "null"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, str):
        return json.dumps(value)
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, list):
        if not value:
            return "[]"
        pad = "\n" + "  " * (depth + 1)
        items = ("," + pad).join(_json_value(x, depth + 1) for x in value)
        return "[" + pad + items + "\n" + "  " * depth + "]"
    raise TypeError(f"no JSON form for {type(value).__name__}")


def _json_cells(cells: list, depth: int) -> list[str]:
    kinds = set(map(type, cells))
    if kinds == {float}:
        return list(map(float.__repr__, cells))
    if kinds == {int}:
        return list(map(int.__repr__, cells))
    return [_json_value(v, depth) for v in cells]


def _csv_cells(cells: list) -> list[str]:
    kinds = set(map(type, cells))
    if kinds == {float}:
        return [f"{v:.17g}" for v in cells]
    if kinds == {int}:
        return list(map(int.__repr__, cells))
    return list(map(_fmt, cells))


def _chunks(table: Table, names):
    """(record count, cells of each named column) per chunk of ``table``."""
    total = len(table)
    for lo in range(0, total, CHUNK_RECORDS):
        parts = [table.columns[name][lo:lo + CHUNK_RECORDS] for name in names]
        yield min(CHUNK_RECORDS, total - lo), [
            p.tolist() if isinstance(p, np.ndarray) else list(p) for p in parts
        ]


def _json_pieces(doc: dict):
    """``json.dumps(doc, indent=2) + "\n"`` in pieces.

    ``doc`` maps each top-level key to a scalar or a ``Table``, which is
    written as a list of records through one per-record template.
    """
    text = "{"
    for i, (key, value) in enumerate(doc.items()):
        text += ("," if i else "") + "\n  " + json.dumps(key) + ": "
        if not isinstance(value, Table):
            text += _json_value(value, 1)
            continue
        if not len(value):
            text += "[]"
            continue
        names = list(value.columns)
        fields = ",\n      ".join(
            json.dumps(name).replace("%", "%%") + ": %s" for name in names)
        template = "    {\n      " + fields + "\n    }"
        text += "[\n"
        for _, cells in _chunks(value, names):
            records = zip(*(_json_cells(c, 3) for c in cells))
            yield text + ",\n".join(map(template.__mod__, records))
            text = ",\n"
        text = "\n  ]"
    yield text + "\n}\n"


def _csv_pieces(header: list[str], tables: list[Table]):
    """The CSV document in pieces: ``header``, then each table's rows.

    The ``record`` column holds the table's record tag; a column a table
    does not have is left empty.
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for table in tables:
        names = [c for c in header if c in table.columns]
        for n, cells in _chunks(table, names):
            by_name = dict(zip(names, cells))
            rows = [[table.record] * n if col == "record"
                    else _csv_cells(by_name[col]) if col in by_name else [""] * n
                    for col in header]
            writer.writerows(zip(*rows))
            yield buf.getvalue()
            buf.seek(0)
            buf.truncate()
    yield buf.getvalue()


def _finite(cells) -> bool:
    """False if a float among ``cells``, nested lists included, is NaN or inf."""
    if isinstance(cells, np.ndarray):
        return cells.dtype.kind != "f" or bool(np.isfinite(cells).all())
    if isinstance(cells, range):
        return True
    return all(_finite(v) if isinstance(v, list)
               else not isinstance(v, float) or math.isfinite(v) for v in cells)


def _emit(config: RunConfig, command: str, json_doc: dict,
          csv_header: list[str], csv_tables: list[Table]):
    """Write the JSON document or the CSV tables to stdout or --out.

    Every float is checked to be finite before anything is written or
    opened; the text then streams out ``CHUNK_RECORDS`` records at a time.
    """
    if config.format == "json":
        pieces = _json_pieces(json_doc)
        columns = [c for v in json_doc.values()
                   for c in (v.columns.values() if isinstance(v, Table) else [[v]])]
    else:
        pieces = _csv_pieces(csv_header, csv_tables)
        columns = [t.columns[c] for t in csv_tables for c in csv_header if c in t.columns]
    if not all(map(_finite, columns)):
        raise UsageError(
            f"--hbar {config.hbar}: a result overflows to a non-finite value"
        )
    if not config.no_meta:
        stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
        print(f"# schwinger {__version__} | {command} | {stamp}", file=sys.stderr)
    if config.output_path:
        with open(config.output_path, "w", encoding="utf-8", newline="") as fh:
            fh.writelines(pieces)
    else:
        sys.stdout.writelines(pieces)


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

    check_table, block_table = _table("check", checks), _table("block", blocks)
    json_doc = {
        "n_max": config.n_max,
        "hbar": config.hbar,
        "tol": config.tol,
        "checks": check_table,
        "blocks": block_table,
    }
    header = ["record", "name", "value", "max_residual", "pass",
              "two_j", "casimir", "jz_spectrum", "sum_rule_pass"]
    config_table = Table("config", {"name": ["n_max", "hbar", "tol"],
                                    "value": [config.n_max, config.hbar, config.tol]})
    _emit(config, "verify", json_doc, header, [config_table, check_table, block_table])
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
    levels = {"two_mj": range(n, -n - 1, -2), "jz": list(report.jz_eigenvalues)}
    json_doc = {
        "command": "spectrum",
        "n_max": config.n_max,
        "hbar": config.hbar,
        "tol": config.tol,
        "two_j": n,
        "casimir": report.casimir_value,
        "mean_square": mean_square,
        "max_residual": report.max_residual,
        "rows": Table("row", levels),
    }
    header = ["record", "two_j", "two_mj", "jz", "casimir", "mean_square"]
    rows = Table("row", {"two_j": [n] * (n + 1), **levels,
                         "casimir": [report.casimir_value] * (n + 1),
                         "mean_square": [mean_square] * (n + 1)})
    _emit(config, "spectrum", json_doc, header, [rows])
    check = {"name": "casimir_block_spread", "max_residual": report.spread,
             "pass": report.spread <= config.tol}
    return _verdict([check], config.tol)


def cmd_sumrule(config: RunConfig, two_j_max: int) -> int:
    _require_non_negative("--two-j-max", two_j_max)
    _require_at_most("--two-j-max", two_j_max, SUM_RULE_TWO_J_LIMIT)
    two_js = range(two_j_max + 1)
    lhs, rhs = zip(*map(sum_rule_check, two_js))
    passes = [a == b for a, b in zip(lhs, rhs)]
    all_pass = all(passes)
    rows = Table("row", {"two_j": two_js, "lhs_quarters": list(lhs),
                         "rhs_quarters": list(rhs), "pass": passes})
    json_doc = {
        "command": "sumrule",
        "two_j_max": two_j_max,
        "rows": rows,
        "all_pass": all_pass,
    }
    header = ["record", "two_j", "lhs_quarters", "rhs_quarters", "pass"]
    summary = Table("summary", {"pass": [all_pass]})
    _emit(config, "sumrule", json_doc, header, [rows, summary])
    return EXIT_OK if all_pass else EXIT_FAILED


def cmd_angle(config: RunConfig, two_j: int, epsilon: float,
              two_j_flag: str = "--two-j") -> int:
    """``two_j_flag`` is the flag two_j came from (``--j`` gives j)."""
    if two_j < 1:
        raise UsageError(
            f"{two_j_flag} must be positive: the angle is undefined at j = 0, where |J| = 0"
        )
    _require_at_most("--two-j", two_j, TWO_J_LIMIT)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise UsageError(f"--epsilon must be non-negative and finite, got {epsilon}")
    two_mjs = range(two_j, -two_j - 1, -2)
    rows = Table("row", {
        "two_j": [two_j] * len(two_mjs),
        "two_mj": two_mjs,
        "epsilon": [epsilon] * len(two_mjs),
        "cos_theta": [cos_theta(two_j, two_mj, epsilon) for two_mj in two_mjs],
    })
    json_doc = {
        "command": "angle",
        "two_j": two_j,
        "epsilon": epsilon,
        "rows": rows,
    }
    header = ["record", "two_j", "two_mj", "epsilon", "cos_theta"]
    _emit(config, "angle", json_doc, header, [rows])
    return EXIT_OK


def cmd_limit(config: RunConfig, two_j_max: int, epsilon: float) -> int:
    if two_j_max < 1:
        raise UsageError(f"--two-j-max must be at least 1, got {two_j_max}")
    _require_at_most("--two-j-max", two_j_max, TWO_J_LIMIT)
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise UsageError(f"--epsilon must be non-negative and finite, got {epsilon}")
    values = [r.cos_theta for r in limit_scan(two_j_max, epsilon)]
    monotonic = all(b > a for a, b in zip(values, values[1:]))
    two_js = range(1, two_j_max + 1)
    rows = Table("row", {
        "two_j": two_js,
        "epsilon": [epsilon] * two_j_max,
        "cos_theta": values,
        "gap_bound": [1.0 / k for k in two_js],
    })
    json_doc = {
        "command": "limit",
        "two_j_max": two_j_max,
        "epsilon": epsilon,
        "rows": rows,
        "monotonic": monotonic,
    }
    header = ["record", "two_j", "epsilon", "cos_theta", "gap_bound", "monotonic"]
    summary = Table("summary", {"monotonic": [monotonic]})
    _emit(config, "limit", json_doc, header, [rows, summary])
    return EXIT_OK


def cmd_classical(config: RunConfig, count: int, bound: float, seed: int) -> int:
    if count < 1:
        raise UsageError(f"--count must be at least 1, got {count}")
    _require_at_most("--count", count, COUNT_LIMIT)
    _require_positive("--bound", bound)
    _validate(config)
    top = config.hbar * bound * bound  # jtot <= hbar * bound^2
    # the squares below reach top^2 up to rounding; the factor 2 is headroom
    if not math.isfinite(2.0 * top * top):
        raise UsageError(f"--hbar {config.hbar} with --bound {bound}: a result "
                         "overflows to a non-finite value")
    # below the floor every jtot^2 underflows and each residual would read 0
    if top < HBAR_FLOOR:
        raise UsageError(f"--hbar {config.hbar} with --bound {bound}: hbar*bound^2 "
                         f"is below {HBAR_FLOOR:.4g}, where its square underflows")
    re1, im1, re2, im2 = sample_amplitudes(count, bound, seed)
    # conj(a1) a2, |a1|^2 and |a2|^2 written out as Python's complex
    # arithmetic evaluates them, so each value matches classical_components
    h = config.hbar
    jx = h * (re1 * re2 + im1 * im2)
    jy = h * (re1 * im2 - im1 * re2)
    m1 = re1 * re1 + im1 * im1
    m2 = re2 * re2 + im2 * im2
    jz = (0.5 * h) * (m1 - m2)
    jtot = (0.5 * h) * (m1 + m2)
    tiny = float(np.finfo(float).tiny)
    rel = np.empty(count)
    for lo in range(0, count, CHUNK_RECORDS):
        part = slice(lo, lo + CHUNK_RECORDS)
        # x ** 2 is libm pow, as in the scalar oracle; x * x can differ in the last bit
        rel[part] = [abs(x ** 2 + y ** 2 + z ** 2 - t ** 2) / max(t ** 2, tiny)
                     for x, y, z, t in zip(jx[part].tolist(), jy[part].tolist(),
                                           jz[part].tolist(), jtot[part].tolist())]
    max_rel = float(rel.max())
    counts, edges = np.histogram(jtot, bins=HIST_BINS, range=(0.0, top))
    samples = Table("sample", {"index": range(count), "jx": jx, "jy": jy, "jz": jz,
                               "jtot": jtot, "rel_residual": rel})
    histogram = Table("hist", {"bin_lo": edges[:-1], "bin_hi": edges[1:],
                               "count": counts})
    ok = max_rel < config.tol
    json_doc = {
        "command": "classical",
        "count": count,
        "amplitude_bound": bound,
        "seed": seed,
        "hbar": config.hbar,
        "tol": config.tol,
        "samples": samples,
        "histogram": histogram,
        "max_rel_residual": max_rel,
        "pass": ok,
    }
    header = ["record", "index", "jx", "jy", "jz", "jtot", "rel_residual",
              "bin_lo", "bin_hi", "count", "max_rel_residual", "pass"]
    summary = Table("summary", {"max_rel_residual": [max_rel], "pass": [ok]})
    _emit(config, "classical", json_doc, header, [samples, histogram, summary])
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


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--format", choices=("csv", "json"), default="json",
                        help="output encoding (default json)")
    output.add_argument("--out", metavar="PATH", default=None,
                        help="write data to PATH instead of stdout")
    output.add_argument("--no-meta", action="store_true",
                        help="suppress the stderr metadata header")
    # the flags of the commands that compute with hbar and judge against tol
    physics = argparse.ArgumentParser(add_help=False, parents=[output])
    physics.add_argument("--hbar", type=float, default=1.0, help="action scale (default 1.0)")
    physics.add_argument("--tol", type=float, default=1e-12, help="pass tolerance (default 1e-12)")

    parser = argparse.ArgumentParser(
        prog="schwinger",
        description="Verify the coupled-boson construction of angular momentum.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=[physics],
                       help="run the full identity battery over a truncated basis")
    p.add_argument("--nmax", type=int, required=True, help="total-occupation cutoff")
    p.add_argument("--corrupt", metavar="OP,ROW,COL,DELTA", default=None,
                   help="test hook: perturb one operator entry before verifying")

    p = sub.add_parser("spectrum", parents=[physics],
                       help="J_z levels and casimir value of one block")
    p.add_argument("--n", type=int, required=True, help="block total occupation (= 2j)")
    p.add_argument("--nmax", type=int, default=None,
                   help="basis cutoff (default: just large enough for --n)")

    p = sub.add_parser("sumrule", parents=[output],
                       help="exact half-integer sum rule table")
    p.add_argument("--two-j-max", type=int, required=True)

    p = sub.add_parser("angle", parents=[output],
                       help="cos(theta) between J_z and J for every m of one j")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--two-j", type=int, default=None)
    group.add_argument("--j", type=float, default=None,
                       help="decimal spin; must end in .0 or .5")
    p.add_argument("--epsilon", type=float, default=1.0,
                   help="commutator strength: 1 quantum, 0 classical (default 1)")

    p = sub.add_parser("limit", parents=[output],
                       help="extremal alignment scan toward the classical limit")
    p.add_argument("--two-j-max", type=int, required=True)
    p.add_argument("--epsilon", type=float, default=1.0)

    p = sub.add_parser("classical", parents=[physics],
                       help="sample commuting-amplitude states and check j^2 exactly")
    p.add_argument("--count", type=int, required=True)
    p.add_argument("--bound", type=float, default=2.0,
                   help="amplitude disc radius (default 2.0)")
    p.add_argument("--seed", type=int, default=0, help="sampler seed (default 0)")

    return parser


def _dispatch(args) -> int:
    fields = {"format": args.format, "output_path": args.out, "no_meta": args.no_meta}
    if args.command == "sumrule":
        return cmd_sumrule(RunConfig(0, **fields), args.two_j_max)
    if args.command == "angle":
        if args.two_j is None:
            return cmd_angle(RunConfig(0, **fields), _two_j_from_decimal(args.j),
                             args.epsilon, "--j")
        _require_non_negative("--two-j", args.two_j)
        return cmd_angle(RunConfig(0, **fields), args.two_j, args.epsilon)
    if args.command == "limit":
        return cmd_limit(RunConfig(0, **fields), args.two_j_max, args.epsilon)
    # verify, spectrum and classical also take --hbar and --tol
    fields.update(hbar=args.hbar, tol=args.tol)
    if args.command == "verify":
        return cmd_verify(RunConfig(args.nmax, **fields), corrupt=args.corrupt)
    if args.command == "spectrum":
        if args.nmax is None:
            return cmd_spectrum(RunConfig(args.n, **fields), args.n, "--n")
        return cmd_spectrum(RunConfig(args.nmax, **fields), args.n)
    if args.command == "classical":
        return cmd_classical(RunConfig(0, **fields), args.count, args.bound, args.seed)
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
