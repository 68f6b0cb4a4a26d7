"""Oracles the tests compare the package against.

``extract_block`` densifies one constant-n block of the J operators and
``jacobi_eigen`` diagonalizes a dense Hermitian matrix with no help from
the package; ``block_report`` and ``analyze_block`` feed a dense block to
the same ``diagonal_report`` the commands run on the global sparse
operators.  ``scalar_amplitudes`` is the sampler one state at a time,
``classical_records`` the classical check one sample at a time, and
``json_text`` and ``csv_text`` encode a command's document with the
standard library.  No command uses any of them.
"""

from __future__ import annotations

import cmath
import csv
import io
import json
import math
from dataclasses import dataclass

import numpy as np

from schwinger.angular import AngularMomentumSet
from schwinger.classical import classical_components, sample_states
from schwinger.cli import Table, _fmt
from schwinger.spectra import SpectrumReport, diagonal_report, gershgorin_discs


@dataclass(frozen=True)
class Block:
    """Dense restriction of the J operators to one constant-n block.

    two_j equals the total occupation n of the block; the matrices have
    dimension two_j + 1 and are Hermitian by construction.  The
    small-block oracle of the tests; every command reads its blocks off
    the global sparse operators instead and never builds one.
    """

    two_j: int
    jx: np.ndarray
    jy: np.ndarray
    jz: np.ndarray
    hbar: float

    @property
    def dim(self) -> int:
        return self.two_j + 1


def extract_block(amset: AngularMomentumSet, n: int) -> Block:
    """Dense J_x, J_y, J_z on the block of total occupation n (two_j = n)."""
    rng = amset.basis.block_range(n)  # validates n
    sl = slice(rng.start, rng.stop)
    return Block(
        two_j=n,
        jx=amset.jx.to_csr()[sl, sl].toarray(),
        jy=amset.jy.to_csr()[sl, sl].toarray(),
        jz=amset.jz.to_csr()[sl, sl].toarray(),
        hbar=amset.hbar,
    )


JACOBI_MAX_SWEEPS = 50


class ConvergenceError(RuntimeError):
    """Jacobi sweeps exhausted without reaching the target threshold."""


def _offdiag_max(a: np.ndarray) -> float:
    n = a.shape[0]
    if n < 2:
        return 0.0
    off = a.copy()
    np.fill_diagonal(off, 0.0)
    return float(np.max(np.abs(off)))


def jacobi_eigen(
    matrix, tol: float = 1e-12, max_sweeps: int = JACOBI_MAX_SWEEPS
) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition of a Hermitian matrix by cyclic Jacobi rotations.

    Sweeps unitary plane rotations over all (p, q) pairs until every
    off-diagonal magnitude is below ``tol``.  Each rotation zeroes one
    entry a_pq = r e^{i phase} exactly: a real Givens angle from
    tan(2 phi) = 2r / (a_pp - a_qq) combined with the unit phase.

    Returns (eigenvalues ascending, eigenvector columns).  Ties are
    ordered stably by original column index.  Raises ValueError if the
    input is not Hermitian within 1e-12 (relative to its largest entry)
    and ConvergenceError if ``max_sweeps`` sweeps do not converge.
    """
    a = np.array(matrix, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 1:
        raise ValueError(f"need a square matrix of dimension >= 1, got {a.shape}")
    n = a.shape[0]
    scale = max(1.0, float(np.max(np.abs(a))))
    if float(np.max(np.abs(a - a.conj().T))) > 1e-12 * scale:
        raise ValueError("matrix is not Hermitian within 1e-12")
    v = np.eye(n, dtype=np.complex128)
    if n == 1:
        return np.array([a[0, 0].real]), v

    skip = 0.01 * tol  # entries this small cannot push the max above tol
    converged = False
    for _ in range(max_sweeps):
        if _offdiag_max(a) < tol:
            converged = True
            break
        for p in range(n - 1):
            for q in range(p + 1, n):
                r = abs(a[p, q])
                if r <= skip:
                    continue
                omega = a[p, q] / r
                tau = (a[q, q].real - a[p, p].real) / (2.0 * r)
                t = (1.0 if tau >= 0.0 else -1.0) / (abs(tau) + math.hypot(1.0, tau))
                c = 1.0 / math.hypot(1.0, t)
                s = t * c
                ws = omega * s
                # A <- U^H A U with U the identity except
                # U[[p,q],[p,q]] = [[c, s], [-conj(omega) s, conj(omega) c]]
                col_p = a[:, p] * c - a[:, q] * np.conj(ws)
                col_q = a[:, p] * s + a[:, q] * np.conj(omega) * c
                a[:, p], a[:, q] = col_p, col_q
                row_p = a[p, :] * c - a[q, :] * ws
                row_q = a[p, :] * s + a[q, :] * omega * c
                a[p, :], a[q, :] = row_p, row_q
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                vcol_p = v[:, p] * c - v[:, q] * np.conj(ws)
                vcol_q = v[:, p] * s + v[:, q] * np.conj(omega) * c
                v[:, p], v[:, q] = vcol_p, vcol_q
    if not converged and _offdiag_max(a) >= tol:
        raise ConvergenceError(
            f"off-diagonal maximum still {_offdiag_max(a):.3e} after "
            f"{max_sweeps} sweeps (tol {tol:.3e})"
        )
    eigvals = np.diag(a).real.copy()
    order = np.argsort(eigvals, kind="stable")
    return eigvals[order], v[:, order]


def block_report(block: Block) -> SpectrumReport:
    """Spectrum report for one dense block, with every residual filled in.

    Forms J^2 densely and passes its Gershgorin discs to
    ``diagonal_report``, the same analysis ``verify`` runs on rows of the
    global sparse J^2.  Never raises on an inconsistent block: J^2 is
    Hermitized first, and corrupted operators show up as residuals.
    """
    cas = block.jx @ block.jx + block.jy @ block.jy + block.jz @ block.jz
    return diagonal_report(
        block.two_j, block.hbar, np.diag(block.jz), *gershgorin_discs(cas)
    )


def analyze_block(block: Block, tol: float = 1e-12) -> SpectrumReport:
    """Spectrum report for one block: J_z levels and the casimir value.

    Raises ValueError when the Gershgorin bound on the spread of the
    casimir eigenvalues exceeds ``tol``: that never happens for a
    correctly built block and signals a construction bug upstream.
    """
    report = block_report(block)
    if report.spread > tol:
        raise ValueError(
            f"casimir eigenvalues on block two_j={block.two_j} spread by up "
            f"to {report.spread:.3e} (> {tol:.3e}); the block operators are inconsistent"
        )
    return report


# ---------------------------------------------------------------------------
# the classical sampler and check, one sample at a time

_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_TWO53 = float(1 << 53)


def _uniforms(seed: int):
    state = seed & _LCG_MASK
    while True:
        state = (state * _LCG_A + _LCG_C) & _LCG_MASK
        yield (state >> 11) / _TWO53


def scalar_amplitudes(count: int, amplitude_bound: float, seed: int):
    """(Re a1, Im a1, Re a2, Im a2) lists, one LCG step and one
    ``cmath.rect`` at a time."""
    u = _uniforms(seed)
    out = ([], [], [], [])
    for _ in range(count):
        r1 = amplitude_bound * math.sqrt(next(u))
        t1 = 2.0 * math.pi * next(u)
        r2 = amplitude_bound * math.sqrt(next(u))
        t2 = 2.0 * math.pi * next(u)
        a1, a2 = cmath.rect(r1, t1), cmath.rect(r2, t2)
        for column, value in zip(out, (a1.real, a1.imag, a2.real, a2.imag)):
            column.append(value)
    return out


def classical_records(count: int, bound: float, seed: int, hbar: float) -> list[dict]:
    """The ``classical`` sample records from ``classical_components``."""
    tiny = float(np.finfo(float).tiny)
    records = []
    for idx, state in enumerate(sample_states(count, bound, seed, hbar)):
        c = classical_components(state)
        lhs = c.jx ** 2 + c.jy ** 2 + c.jz ** 2
        rel = abs(lhs - c.jtot ** 2) / max(c.jtot ** 2, tiny)
        records.append({"index": idx, "jx": c.jx, "jy": c.jy, "jz": c.jz,
                        "jtot": c.jtot, "rel_residual": rel})
    return records


# ---------------------------------------------------------------------------
# a command's document, encoded with the standard library

def records(table: Table) -> list[dict]:
    """One dict per record of ``table``."""
    columns = {name: (col.tolist() if isinstance(col, np.ndarray) else list(col))
               for name, col in table.columns.items()}
    return [dict(zip(columns, cells)) for cells in zip(*columns.values())]


def json_text(doc: dict) -> str:
    """``json.dumps(indent=2)`` of ``doc`` with each table as a list of dicts."""
    plain = {k: records(v) if isinstance(v, Table) else v for k, v in doc.items()}
    return json.dumps(plain, indent=2, allow_nan=False) + "\n"


def csv_text(header: list[str], tables: list[Table]) -> str:
    """The CSV document, written one row dict at a time."""
    rows = [{"record": t.record, **r} for t in tables for r in records(t)]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_fmt(row.get(col)) for col in header])
    return buf.getvalue()
