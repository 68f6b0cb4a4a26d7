"""Command-line verification front end.

Subcommands: verify, spectrum, sumrule, angle, limit, classical.  Each
emits a deterministic CSV or JSON document to stdout (or --out PATH);
an optional metadata header with a timestamp goes to stderr and is the
only place a timestamp ever appears, so data output is byte identical
across reruns with the same flags.

``main`` checks the flags and hands the checked values to one ``cmd_*``
function, which returns its JSON document, its CSV tables and its
checks; ``_emit`` writes the document and ``_verdict`` turns the checks
into the exit code.

Exit codes: 0 all checks passed, 1 a verification check failed,
2 usage or I/O error.
"""

from __future__ import annotations

import argparse
import collections
import contextlib
import dataclasses
import functools
import itertools
import json
import math
import os
import sys
import warnings
from dataclasses import dataclass
from datetime import datetime, timezone

import numpy as np

from . import __version__
from .angular import AngularMomentumSet, build_set, casimir
from .classical import sample_amplitudes
from .fock import build_basis, position
from .operators import (
    Band,
    adjoint,
    band,
    commutator,
    frozen,
    max_abs,
    minus,
    plus,
    product,
    rows_of,
    scaled,
    shell_windows,
    window,
)
from .spectra import block_table, cos_theta, sum_rule_check

# verify at n_max 1000 (dimension 501501) takes 0.4-0.6 s and 100 MB
# from the shell, 68 MB of it the operators, J^2's diagonal and the
# occupations it keeps, below the 5 s of classical at COUNT_LIMIT on 2
# CPUs.  At 1500 one cmd_verify in a fresh interpreter takes 0.61-0.83 s
# with a 186 MB max RSS (5 runs, 2 CPUs, numpy 2.4)
N_MAX_LIMIT = 1000

# The cap on the table commands angle, limit and sumrule, each of which
# builds one row per level or per two_j in one array pass: at the cap a
# run takes 0.15-0.5 s in-process and writes 12-14 MB of JSON.
TWO_J_LIMIT = 100_000
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
    """The output settings every command reads."""

    format: str = "json"
    output_path: str | None = None
    no_meta: bool = False


def _require_positive(flag: str, value: float):
    if not (math.isfinite(value) and value > 0):
        raise UsageError(f"{flag} must be positive and finite, got {value}")


def _require_in_range(flag: str, value: float, limit: float, least: int = 0):
    """Reject a ``flag`` value below ``least`` or above ``limit``."""
    if value < least:
        floor = f"at least {least}" if least else "non-negative"
        raise UsageError(f"{flag} must be {floor}, got {value}")
    if value > limit:
        raise UsageError(f"{flag} {value} exceeds the limit {limit}")


def _require_hbar_tol(hbar: float, tol: float):
    _require_positive("--tol", tol)
    _require_positive("--hbar", hbar)
    if hbar < HBAR_FLOOR:
        raise UsageError(f"--hbar {hbar} is below {HBAR_FLOOR:.4g}, where hbar^2 underflows")


def _require_epsilon(epsilon: float):
    if not (math.isfinite(epsilon) and epsilon >= 0):
        raise UsageError(f"--epsilon must be non-negative and finite, got {epsilon}")
    # cos theta divides by sqrt(1 + 2 epsilon / two_j)
    if not math.isfinite(2.0 * epsilon):
        raise UsageError(f"--epsilon {epsilon} is too large: 2 * epsilon overflows")


def _overflow(flags: str) -> UsageError:
    return UsageError(f"{flags}: a result overflows to a non-finite value")


# ---------------------------------------------------------------------------
# output plumbing

# records rendered per piece of output, so no command holds its whole
# document as text
CHUNK_RECORDS = 8192


@dataclass(frozen=True, eq=False)
class Table:
    """Records of one kind, held by column.

    ``columns`` maps each field name to a list, range, 1-D numpy array
    or ``Segments`` with one cell per record.  JSON writes the fields in
    this order; CSV writes them in its columns, after the ``record``
    column that holds this table's tag.
    """

    record: str
    columns: dict

    def __len__(self) -> int:
        return len(next(iter(self.columns.values())))


@dataclass(frozen=True, eq=False)
class Segments:
    """A column whose cells are lists of floats, held flat: cell k is
    ``values[bounds[k]:bounds[k + 1]]``."""

    values: np.ndarray
    bounds: np.ndarray

    def __len__(self) -> int:
        return len(self.bounds) - 1

    def __getitem__(self, cells: slice) -> Segments:
        lo, hi, _ = cells.indices(len(self))
        return Segments(self.values, self.bounds[lo:max(lo, hi) + 1])


def _table(record: str, records: list[dict]) -> Table:
    """The column form of a short list of dicts with the same keys."""
    return Table(record, {k: [r[k] for r in records] for k in records[0]})


def _float_texts(values: list, fmt: str) -> list[str]:
    """Each float with 17 significant digits in CSV and as ``repr`` in JSON."""
    if fmt == "csv":
        return [f"{v:.17g}" for v in values]
    return list(map(float.__repr__, values))


def _segment_cells(column: Segments, fmt: str) -> list[str]:
    """The ``fmt`` text of each list of ``column``: its items ``;``-joined
    in CSV and laid out as ``json.dumps(indent=2)`` lays them out in JSON,
    as the field of a record in a top-level list.

    Each distinct value is formatted once; values are told apart by
    their bits, so -0.0 and 0.0 keep their own texts.
    """
    lo, hi = column.bounds[0], column.bounds[-1]
    bits, inverse = np.unique(column.values[lo:hi].view(np.int64), return_inverse=True)
    texts = np.array(_float_texts(bits.view(np.float64).tolist(), fmt), dtype=object)
    items = texts[inverse.ravel()].tolist()
    cuts = (column.bounds - lo).tolist()
    if fmt == "csv":
        return [";".join(items[a:b]) for a, b in zip(cuts, cuts[1:])]
    # a record's field sits at depth 3, its list items at depth 4
    pad, close = "\n" + "  " * 4, "\n" + "  " * 3 + "]"
    return ["[" + pad + ("," + pad).join(items[a:b]) + close if b > a else "[]"
            for a, b in zip(cuts, cuts[1:])]


def _cells(cells, fmt: str) -> list[str]:
    """The ``fmt`` text of each cell: a float with 17 significant digits
    in CSV and as ``repr`` in JSON, a bool as ``true`` or ``false``, and
    each list of a ``Segments`` column as ``_segment_cells`` writes it.

    A column of one kind is encoded in one pass; a mixed one, a cell at
    a time.
    """
    if isinstance(cells, Segments):
        return _segment_cells(cells, fmt)
    cells = cells.tolist() if isinstance(cells, np.ndarray) else list(cells)
    kinds = set(map(type, cells))
    if len(kinds) != 1:
        return [text for cell in cells for text in _cells([cell], fmt)]
    (kind,) = kinds
    if issubclass(kind, bool):
        return ["true" if v else "false" for v in cells]
    if issubclass(kind, float):
        return _float_texts(cells, fmt)
    if issubclass(kind, int):
        return list(map(int.__repr__, cells))
    if issubclass(kind, str):
        return cells if fmt == "csv" else list(map(json.dumps, cells))
    raise TypeError(f"no {fmt} form for {kind.__name__}")


@dataclass(frozen=True, eq=False)
class _Records:
    """How one format writes the records of ``table``: each record fills
    ``template`` with the ``fmt`` texts of its ``names`` columns, and
    the records are joined by ``sep``."""

    table: Table
    names: list
    template: str
    sep: str
    fmt: str


def _chunk(records: _Records, lo: int) -> str:
    """The joined text of records ``lo`` .. ``lo + CHUNK_RECORDS`` of
    ``records``.

    Forked workers call this too.  It formats with the interpreter and
    numpy's sort, and calls no BLAS routine, whose threads do not
    survive a fork.
    """
    cells = [_cells(records.table.columns[name][lo:lo + CHUNK_RECORDS],
                    records.fmt) for name in records.names]
    return records.sep.join(map(records.template.__mod__, zip(*cells)))


def _chunks(records: _Records) -> list:
    """The (records, lo) chunks of ``records``, joined as its records are."""
    pieces = []
    for lo in range(0, len(records.table), CHUNK_RECORDS):
        pieces += [records.sep, (records, lo)] if lo else [(records, lo)]
    return pieces


def _json_pieces(doc: dict) -> list:
    """``json.dumps(doc, indent=2) + "\n"`` in pieces: texts, and the
    (records, lo) chunks that ``_chunk`` turns into text.

    ``doc`` maps each top-level key to a scalar or a ``Table``, which is
    written as a list of records through one per-record template.
    """
    pieces = ["{"]
    for i, (key, value) in enumerate(doc.items()):
        pieces.append(("," if i else "") + "\n  " + json.dumps(key) + ": ")
        if not isinstance(value, Table):
            pieces.append(_cells([value], "json")[0])
        elif not len(value):
            pieces.append("[]")
        else:
            names = list(value.columns)
            fields = ",\n      ".join(
                json.dumps(name).replace("%", "%%") + ": %s" for name in names)
            template = "    {\n      " + fields + "\n    }"
            records = _Records(value, names, template, ",\n", "json")
            pieces += ["[\n", *_chunks(records), "\n  ]"]
    pieces.append("\n}\n")
    return pieces


def _csv_pieces(tables: list[Table]) -> list:
    """The CSV document in pieces, as ``_json_pieces`` gives them: a
    header of ``record`` and every table's columns in order of first
    appearance, then each table's rows.

    Each table's rows come from one template with its record tag and the
    empty fields of the columns it lacks written in.
    """
    header = ["record", *dict.fromkeys(c for t in tables for c in t.columns)]
    pieces = [",".join(header) + "\n"]
    for table in tables:
        names = [c for c in header if c in table.columns]
        template = ",".join(table.record.replace("%", "%%") if c == "record"
                            else "%s" if c in table.columns else "" for c in header)
        pieces += _chunks(_Records(table, names, template + "\n", "", "csv"))
    return pieces


# the chunks of the document a forked worker renders, set in the worker
# by its initializer; the parent never sets it
_WORKER_CHUNKS: list = []


def _adopt(chunks: list):
    global _WORKER_CHUNKS
    _WORKER_CHUNKS = chunks


def _render(index: int) -> str:
    return _chunk(*_WORKER_CHUNKS[index])


def _workers(chunks: list) -> int:
    """How many forked processes render ``chunks``: none when every table
    fits in one chunk, when this process may run on only one CPU, or
    where the platform cannot fork; otherwise one per CPU, up to one per
    chunk."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 0
    if all(lo == 0 for _, lo in chunks):
        return 0
    cpus = len(os.sched_getaffinity(0))
    return min(cpus, len(chunks)) if cpus > 1 else 0


def _forked(stack: contextlib.ExitStack, chunks: list, workers: int):
    """The text of each of ``chunks`` in order, rendered by ``workers``
    forked processes; ``stack`` shuts them down.

    The workers inherit ``chunks`` through the fork, so only an index
    goes to a worker and only its text comes back.  At most two chunks
    per worker are in flight, so the parent holds at most that many
    texts.  Shutting down cancels the chunks not yet started and waits
    for the rest, so no worker outlives the call, whether it ends
    normally or with an exception.
    """
    from concurrent.futures import ProcessPoolExecutor
    from concurrent.futures.process import BrokenProcessPool
    from multiprocessing import get_context

    pool = ProcessPoolExecutor(workers, get_context("fork"), initializer=_adopt,
                               initargs=(chunks,))
    stack.callback(pool.shutdown, cancel_futures=True)
    window = min(2 * workers, len(chunks))
    with warnings.catch_warnings():
        # the first submit forks every worker.  Python 3.12 warns when a
        # process with threads forks; the only other threads are BLAS's,
        # which the workers never use
        warnings.simplefilter("ignore", DeprecationWarning)
        pending = collections.deque(pool.submit(_render, i) for i in range(window))

    def texts():
        try:
            for i in range(window, len(chunks) + window):
                text = pending.popleft().result()
                if i < len(chunks):
                    pending.append(pool.submit(_render, i))
                yield text
        except BrokenProcessPool as exc:
            raise OSError("a worker process rendering the output ended abruptly") from exc

    return texts()


def _finite(cells) -> bool:
    """False if a float among ``cells`` is NaN or inf."""
    if isinstance(cells, Segments):
        cells = cells.values
    if isinstance(cells, np.ndarray):
        return cells.dtype.kind != "f" or bool(np.isfinite(cells).all())
    if isinstance(cells, range):
        return True
    return all(not isinstance(v, float) or math.isfinite(v) for v in cells)


def _emit(config: RunConfig, command: str, json_doc: dict, csv_tables: list[Table],
          flags: str):
    """Write the JSON document, or the CSV document of ``csv_tables``
    under a header derived from their columns, to stdout or --out.

    Every float is checked to be finite before anything is written or
    opened; a non-finite one is blamed on ``flags``, the flags the
    values came from.  The output is opened before the metadata header
    is printed, so an I/O error leaves only its own line on stderr.  The
    text then streams out ``CHUNK_RECORDS`` records at a time; when a
    table is longer than that, ``_workers`` says how many forked
    processes render the chunks, and they are written in order.
    """
    if config.format == "json":
        pieces = _json_pieces(json_doc)
        columns = [c for v in json_doc.values()
                   for c in (v.columns.values() if isinstance(v, Table) else [[v]])]
    else:
        pieces = _csv_pieces(csv_tables)
        columns = [c for t in csv_tables for c in t.columns.values()]
    if not all(map(_finite, columns)):
        raise _overflow(flags)
    chunks = [p for p in pieces if not isinstance(p, str)]
    with contextlib.ExitStack() as stack:
        fh = stack.enter_context(
            open(config.output_path, "w", encoding="utf-8", newline="")
            if config.output_path is not None else contextlib.nullcontext(sys.stdout))
        if not config.no_meta:
            stamp = datetime.now(timezone.utc).isoformat(timespec="seconds")
            print(f"# schwinger {__version__} | {command} | {stamp}", file=sys.stderr)
        workers = _workers(chunks)
        texts = (_forked(stack, chunks, workers) if workers
                 else itertools.starmap(_chunk, chunks))
        fh.writelines(p if isinstance(p, str) else next(texts) for p in pieces)


# ---------------------------------------------------------------------------
# verify battery

def _block_leak_residual(ops: tuple, totals: np.ndarray, rows: slice) -> float:
    """Largest entry of the bands ``ops`` in the row window ``rows``
    connecting different constant-n blocks (should be 0); ``totals`` is
    n of every state."""
    leaking = [0.0]
    for op in ops:
        for p, values in op.items():
            if p:
                own = rows_of(p, len(totals), rows)
                leaks = totals[own] != totals[own.start + p:own.stop + p]
                leaking.append(np.max(np.abs(values[own][leaks]), initial=0.0))
    return float(np.max(leaking))


def _blocks(amset: AngularMomentumSet, cas: Band, first: int) -> dict:
    """The ``block_table`` of blocks ``first`` .. n_max.

    Every block is read off its rows of the bands of J_z and of ``cas``,
    J^2.  The Gershgorin discs of J^2 are read off its stored entries:
    each centre is its real diagonal and each radius sums the magnitudes
    it stores off the diagonal of that row, entries that leak into other
    blocks included, with the columns ascending.  A clean J^2 stores
    none, so every radius is 0.

    ``block_table`` runs on each of the ``shell_windows`` from block
    ``first`` on, and each window's values are written into the whole
    table.  Every value of a block, its level order included, depends
    only on its own rows, so the table has the bits of one call over
    every block.
    """
    n_max, hbar = amset.basis.n_max, amset.hbar
    top = position(first, 0)
    table = {}
    for shells, rows in shell_windows(n_max, first):
        size = rows.stop - rows.start
        radii = np.zeros(size)
        for p in sorted(cas):
            if p:
                radii += np.abs(cas[p][rows])
        jz, centres = (op[0][rows] if 0 in op else np.zeros(size) for op in (amset.jz, cas))
        part = block_table(shells, hbar, jz, np.real(centres), radii)
        part["starts"] += rows.start - top
        if not table:
            table = {key: np.empty(position(n_max + 1, 0) - top if key == "levels"
                                   else n_max + 1 - first, dtype=values.dtype)
                     for key, values in part.items()}
        for key, values in part.items():
            table[key][slice(rows.start - top, rows.stop - top) if key == "levels"
                       else slice(shells.start - first, shells.stop - first)] = values
    return table


def _verdict(checks: list[dict], tol: float) -> int:
    """Print one FAILED line per failed check to stderr; the exit code."""
    failed = [c for c in checks if not c["pass"]]
    for c in failed:
        residual, limit = _cells([c["max_residual"], tol], "csv")
        print(f"FAILED {c['name']}: max_residual {residual} > tol {limit}", file=sys.stderr)
    return EXIT_FAILED if failed else EXIT_OK


def _window_residuals(amset: AngularMomentumSet, cas: Band, rows: slice):
    """Yield (name, largest entry) of each residual ``verify`` reads over
    the row window ``rows``, in report order; ``cas`` is J^2.

    The quadratic identity J^2 = J (J + hbar) is read in two rounding
    orders off the window's one J^2, J J and hbar J: J^2 - (J J + hbar J),
    the order of ``casimir_residual`` at epsilon 1, and (J^2 - J J) - hbar J.
    """
    hbar = amset.hbar
    jx, jy, jz, jt = amset.jx, amset.jy, amset.jz, amset.jtot
    _, _, totals = amset.basis.occupations()
    for name, op in (("hermitian_jx", jx), ("hermitian_jy", jy),
                     ("hermitian_jz", jz), ("hermitian_jtot", jt)):
        yield name, max_abs(minus(window(op, rows), adjoint(op, rows)))
    yield "block_structure", _block_leak_residual((jx, jy, jz, jt), totals, rows)
    # J must be diagonal with entry hbar*n/2 at every state
    yield "total_momentum_diagonal", max_abs(
        minus(window(jt, rows), {0: 0.5 * hbar * totals[rows] + 0j}))
    for name, a, b, c in (("commutator_xy_z", jx, jy, jz), ("commutator_yz_x", jy, jz, jx),
                          ("commutator_zx_y", jz, jx, jy)):
        yield name, max_abs(plus(commutator(a, b, rows), scaled(window(c, rows), -1j * hbar)))
    for name, op in (("casimir_commutes_x", jx), ("casimir_commutes_y", jy),
                     ("casimir_commutes_z", jz)):
        yield name, max_abs(commutator(cas, op, rows))
    for name, op in (("total_commutes_x", jx), ("total_commutes_y", jy),
                     ("total_commutes_z", jz)):
        yield name, max_abs(commutator(op, jt, rows))
    cas_rows, jj, hj = window(cas, rows), product(jt, jt, rows), scaled(window(jt, rows), hbar)
    yield "quadratic_identity_quantum", max_abs(minus(cas_rows, plus(jj, hj)))
    yield "quadratic_identity_classical_form", max_abs(minus(minus(cas_rows, jj), hj))


def run_battery(amset: AngularMomentumSet, cas: Band, tol: float):
    """Run every verification check on ``amset`` and ``cas``, its J^2;
    returns (checks, blocks).

    Each check is {"name", "max_residual", "pass"}; pass means the
    residual is within tol.  ``blocks`` is the ``block`` Table, one
    record per block in the fixed report schema.  Each of the
    ``shell_windows`` of the basis is read once for every check of
    ``_window_residuals``, and each such check reads the largest of its
    windows' values: NaN if any window holds a NaN, the bits of the
    whole-matrix residual's largest entry.
    """
    per_window = []
    for _, rows in shell_windows(amset.basis.n_max):
        names, values = zip(*_window_residuals(amset, cas, rows))
        per_window.append(values)
    # np.max keeps a NaN of any window, which max and np.nanmax would drop
    checks = [(name, float(v)) for name, v in zip(names, np.max(per_window, axis=0))]

    blocks = _blocks(amset, cas, 0)
    for name, column in (
        ("block_dimension", "dim_dev"),
        ("jz_spectrum_grid", "grid_dev"),
        ("casimir_block_value", "value_dev"),
        ("casimir_block_spread", "spread"),
        ("mean_square_consistency", "mean_square_dev"),
        ("sum_rule_blocks", "sum_rule_dev"),
    ):
        checks.append((name, float(np.max(blocks[column]))))

    check_records = [
        {"name": name, "max_residual": float(residual), "pass": residual <= tol}
        for name, residual in checks
    ]
    two_js = range(amset.basis.n_max + 1)
    levels = blocks["levels"]
    return check_records, Table("block", {
        "two_j": two_js, "casimir": blocks["casimir"],
        "jz_spectrum": Segments(levels, np.append(blocks["starts"], len(levels))),
        "sum_rule_pass": blocks["sum_rule_dev"] == 0})


def _parse_corruption(directive: str, dim: int) -> tuple[str, int, int, float]:
    """The ``verify --corrupt`` test hook OP,ROW,COL,DELTA, with OP in
    {jx, jy, jz, jtot}, checked against a basis of ``dim`` states."""
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
    if not (0 <= row < dim and 0 <= col < dim):
        raise UsageError(f"--corrupt entry ({row},{col}) outside dimension {dim}")
    return name, row, col, delta


def _apply_corruption(amset: AngularMomentumSet, corruption) -> AngularMomentumSet:
    """Test hook: add DELTA to entry (ROW, COL) of operator OP.

    Only the offset COL - ROW of OP is copied: its entries plus 0, DELTA
    added at ROW, and the offset dropped if that leaves it all zero.  The
    other offsets are shared.  The band is ``frozen`` like those of
    ``build_set``, so an entry DELTA overflows raises OverflowError."""
    name, row, col, delta = corruption
    op, p = getattr(amset, name), col - row
    values = np.add(op[p], 0.0) if p in op else np.zeros(amset.basis.size, dtype=np.complex128)
    values[row] += delta
    return dataclasses.replace(amset, **{name: frozen(band({**op, p: values}))})


def cmd_verify(n_max: int, hbar: float, tol: float, corruption: tuple | None = None):
    """The verify document.  ``build_set``, ``_apply_corruption`` and
    ``casimir`` raise OverflowError as soon as an operator or J^2
    stores inf or NaN, before the battery runs."""
    amset = build_set(build_basis(n_max), hbar)
    if corruption:
        # a DELTA the stored entry absorbs would run the clean battery
        name, row, col, delta = corruption
        stored = getattr(amset, name).get(col - row)
        value = 0.0 if stored is None else stored[row]
        del stored  # the old array must not live through the battery
        if value + delta == value:
            raise UsageError(f"--corrupt DELTA {delta!r} leaves entry ({row},{col}) "
                             f"of {name} unchanged")
        amset = _apply_corruption(amset, corruption)
    cas = casimir(amset)
    checks, blocks = run_battery(amset, cas, tol)

    check_table = _table("check", checks)
    json_doc = {"n_max": n_max, "hbar": hbar, "tol": tol,
                "checks": check_table, "blocks": blocks}
    config_table = Table("config", {"name": ["n_max", "hbar", "tol"],
                                    "value": [n_max, hbar, tol]})
    return json_doc, [config_table, check_table, blocks], checks


# ---------------------------------------------------------------------------
# table commands

def cmd_spectrum(n: int, n_max: int, hbar: float, tol: float):
    # block n is exact in any basis that holds it, so the basis stops at n;
    # n_max is only echoed
    amset = build_set(build_basis(n), hbar)
    block = _blocks(amset, casimir(amset), n)
    value, mean_square, spread = (
        float(block[c][0]) for c in ("casimir", "mean_square", "spread"))
    levels = {"two_mj": range(n, -n - 1, -2), "jz": block["levels"]}
    json_doc = {"command": "spectrum", "n_max": n_max, "hbar": hbar, "tol": tol,
                "two_j": n, "casimir": value, "mean_square": mean_square,
                "max_residual": spread, "rows": Table("row", levels)}
    rows = Table("row", {"two_j": [n] * (n + 1), **levels,
                         "casimir": [value] * (n + 1),
                         "mean_square": [mean_square] * (n + 1)})
    check = {"name": "casimir_block_spread", "max_residual": spread, "pass": spread <= tol}
    return json_doc, [rows], [check]


def cmd_sumrule(two_j_max: int):
    two_js = np.arange(two_j_max + 1)
    lhs, rhs = sum_rule_check(two_js)
    deviations = np.abs(lhs - rhs)
    passes = deviations == 0
    all_pass = bool(passes.all())
    rows = Table("row", {"two_j": two_js, "lhs_quarters": lhs,
                         "rhs_quarters": rhs, "pass": passes})
    json_doc = {"command": "sumrule", "two_j_max": two_j_max, "rows": rows,
                "all_pass": all_pass}
    summary = Table("summary", {"pass": [all_pass]})
    check = {"name": "sum_rule", "max_residual": int(deviations.max()), "pass": all_pass}
    return json_doc, [rows, summary], [check]


def cmd_angle(two_j: int, epsilon: float):
    two_mjs = np.arange(two_j, -two_j - 1, -2)
    rows = Table("row", {
        "two_j": [two_j] * len(two_mjs),
        "two_mj": two_mjs,
        "epsilon": [epsilon] * len(two_mjs),
        "cos_theta": cos_theta(two_j, two_mjs, epsilon),
    })
    json_doc = {"command": "angle", "two_j": two_j, "epsilon": epsilon, "rows": rows}
    return json_doc, [rows], []


def cmd_limit(two_j_max: int, epsilon: float):
    two_js = np.arange(1, two_j_max + 1)
    values = cos_theta(two_js, two_js, epsilon)
    monotonic = bool(np.all(values[1:] > values[:-1]))
    rows = Table("row", {
        "two_j": two_js,
        "epsilon": [epsilon] * two_j_max,
        "cos_theta": values,
        "gap_bound": 1.0 / two_js,
    })
    json_doc = {"command": "limit", "two_j_max": two_j_max, "epsilon": epsilon,
                "rows": rows, "monotonic": monotonic}
    summary = Table("summary", {"monotonic": [monotonic]})
    return json_doc, [rows, summary], []


def cmd_classical(count: int, bound: float, seed: int, hbar: float, tol: float):
    top = hbar * bound * bound  # jtot <= hbar * bound^2
    re1, im1, re2, im2 = sample_amplitudes(count, bound, seed)
    # conj(a1) a2, |a1|^2 and |a2|^2 written out as Python's complex
    # arithmetic evaluates them, so each value matches a scalar evaluation
    jx = hbar * (re1 * re2 + im1 * im2)
    jy = hbar * (re1 * im2 - im1 * re2)
    m1 = re1 * re1 + im1 * im1
    m2 = re2 * re2 + im2 * im2
    jz = (0.5 * hbar) * (m1 - m2)
    jtot = (0.5 * hbar) * (m1 + m2)
    tiny = float(np.finfo(float).tiny)
    rel = np.abs(jx * jx + jy * jy + jz * jz - jtot * jtot) / np.maximum(jtot * jtot, tiny)
    max_rel = float(rel.max())
    counts, edges = np.histogram(jtot, bins=HIST_BINS, range=(0.0, top))
    samples = Table("sample", {"index": range(count), "jx": jx, "jy": jy, "jz": jz,
                               "jtot": jtot, "rel_residual": rel})
    histogram = Table("hist", {"bin_lo": edges[:-1], "bin_hi": edges[1:],
                               "count": counts})
    ok = max_rel <= tol
    json_doc = {"command": "classical", "count": count, "amplitude_bound": bound,
                "seed": seed, "hbar": hbar, "tol": tol, "samples": samples,
                "histogram": histogram, "max_rel_residual": max_rel, "pass": ok}
    summary = Table("summary", {"max_rel_residual": [max_rel], "pass": [ok]})
    check = {"name": "classical_square_identity", "max_residual": max_rel, "pass": ok}
    return json_doc, [samples, histogram, summary], [check]


# ---------------------------------------------------------------------------
# argument parsing

def _two_j_from_decimal(j: float) -> int:
    two_j = 2.0 * j
    if not (math.isfinite(two_j) and two_j == round(two_j)):
        raise UsageError(f"--j must end in .0 or .5, got {j}")
    _require_in_range("--j", j, TWO_J_LIMIT / 2)
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
                   help="checked and echoed only: the basis always stops at --n")

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


def _dispatch(args):
    """Check each flag the command reads, once and in a fixed order,
    then run the command on the checked values.

    Returns the command's (json_doc, csv_tables, checks), the tol its
    checks are judged against, and the flags its values come from.
    """
    if args.command == "sumrule":
        _require_in_range("--two-j-max", args.two_j_max, TWO_J_LIMIT)
        # both sides are integers, so the check is exact
        return cmd_sumrule(args.two_j_max), 0, f"--two-j-max {args.two_j_max}"
    if args.command == "angle":
        if args.two_j is None:
            flag, two_j = "--j", _two_j_from_decimal(args.j)
        else:
            flag, two_j = "--two-j", args.two_j
            _require_in_range(flag, two_j, TWO_J_LIMIT)
        if two_j < 1:
            raise UsageError(
                f"{flag} must be positive: the angle is undefined at j = 0, where |J| = 0"
            )
        _require_epsilon(args.epsilon)
        return cmd_angle(two_j, args.epsilon), None, f"--epsilon {args.epsilon}"
    if args.command == "limit":
        _require_in_range("--two-j-max", args.two_j_max, TWO_J_LIMIT, least=1)
        _require_epsilon(args.epsilon)
        return cmd_limit(args.two_j_max, args.epsilon), None, f"--epsilon {args.epsilon}"

    # verify, spectrum and classical also take --hbar and --tol
    hbar, tol = args.hbar, args.tol
    if args.command == "verify":
        _require_in_range("--nmax", args.nmax, N_MAX_LIMIT)
        _require_hbar_tol(hbar, tol)
        corruption, flags = None, f"--hbar {hbar}"
        if args.corrupt is not None:
            corruption = _parse_corruption(args.corrupt, build_basis(args.nmax).size)
            flags += f" with --corrupt {args.corrupt}"
        # ``frozen`` refuses an operator or J^2 that stores inf or NaN
        try:
            return cmd_verify(args.nmax, hbar, tol, corruption), tol, flags
        except OverflowError:
            raise _overflow(flags) from None
    if args.command == "spectrum":
        # without --nmax the basis is just large enough for --n
        n_max = args.n if args.nmax is None else args.nmax
        _require_in_range("--n" if args.nmax is None else "--nmax", n_max, N_MAX_LIMIT)
        _require_hbar_tol(hbar, tol)
        if args.n < 0:
            raise UsageError(f"--n must be non-negative, got {args.n}")
        if args.n > n_max:
            raise UsageError(f"--n {args.n} exceeds --nmax {n_max}")
        try:
            return cmd_spectrum(args.n, n_max, hbar, tol), tol, f"--hbar {hbar}"
        except OverflowError:
            raise _overflow(f"--hbar {hbar}") from None

    # classical: the subparsers are required, so no other command is left
    _require_in_range("--count", args.count, COUNT_LIMIT, least=1)
    _require_positive("--bound", args.bound)
    _require_hbar_tol(hbar, tol)
    flags = f"--hbar {hbar} with --bound {args.bound}"
    top = hbar * args.bound * args.bound  # jtot <= hbar * bound^2
    # the squares reach top^2 up to rounding; the factor 2 is headroom
    if not math.isfinite(2.0 * top * top):
        raise _overflow(flags)
    # below the floor every jtot^2 underflows and each residual would read 0
    if top < HBAR_FLOOR:
        raise UsageError(f"{flags}: hbar*bound^2 is below {HBAR_FLOOR:.4g}, "
                         "where its square underflows")
    return cmd_classical(args.count, args.bound, args.seed, hbar, tol), tol, flags


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: parsing
    leaves no state in it."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:  # argparse already printed the message
        return int(exc.code or 0)
    config = RunConfig(args.format, args.out, args.no_meta)
    try:
        # overflow shows up as an operator or J^2 that frozen refuses, or
        # as a non-finite result, which _emit refuses
        with np.errstate(all="ignore"):
            (json_doc, csv_tables, checks), tol, flags = _dispatch(args)
            _emit(config, args.command, json_doc, csv_tables, flags)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return _verdict(checks, tol)


if __name__ == "__main__":
    sys.exit(main())
