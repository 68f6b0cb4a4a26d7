"""Oracles the tests compare the package against.

``extract_block`` densifies one constant-n block of the J operators and
``jacobi_eigen`` diagonalizes a dense Hermitian matrix with no help from
the package.  ``diagonal_report`` reads every value of one block into a
``SpectrumReport``, a block at a time: it is the per-block reference for
``spectra.block_table``, which the commands run over every block of the
global sparse operators in one pass.  ``block_report`` and
``analyze_block`` feed it a dense block, and
``mean_square_from_spectrum`` is 3 <J_z^2> of one report.
``gershgorin_discs`` reads the discs of the Hermitian part of a matrix,
the reference for the discs ``verify`` reads off J^2's stored entries.
``scalar_amplitudes`` is the sampler one state at a time,
``classical_records`` the classical check one sample at a time, and
``json_text`` and ``csv_text`` encode a command's document with the
standard library.

The tests' matrices are canonical CSR: column indices sorted within
each row, duplicate positions merged, exact zeros dropped, and
``data``, ``indices`` and ``indptr`` read-only.  ``canonical`` puts a
matrix in that form and ``from_entries`` makes one of (row, col, value)
triplets.

``triplet_annihilation`` and ``triplet_number_operator`` build the mode
operators from triplets, and ``arithmetic_set`` the four J operators as
sparse arithmetic over them.  ``row_map_csr`` writes one of the
package's row maps as its canonical matrix, and ``ladder`` a mode
operator.  ``identical`` compares two matrices to the bit, index dtypes
and read-only flags included.

The package holds each J operator as an ``operators`` band.
``to_csr`` writes a band as its canonical matrix, ``csr_set`` turns a
set of bands into one of canonical matrices, and every oracle that
takes a set reads it through ``csr_set``; ``band_of`` reads a canonical
matrix as a band.  ``max_abs``, ``fro_norm`` and ``row_indices`` read
the stored entries of a matrix.

``identity``, ``zero``, ``adjoint``, ``multiply``, ``add``,
``subtract``, ``scale`` and ``commutator`` are an operator algebra over
canonical CSR matrices that passes every result through ``canonical``,
and ``equal`` compares two such matrices array for array.  ``algebra_set``,
``algebra_casimir``, ``algebra_casimir_residual`` and
``algebra_residuals`` build the J operators, J^2 and the verify
residuals through that algebra, canonicalizing every intermediate: the
reference for the one-expression forms the commands evaluate.

``OccupationPair``, ``states`` and ``index_of`` enumerate the Fock basis
one pair at a time, against the closed-form positions the package uses.
``ClassicalState``, ``ClassicalJ``, ``classical_components``,
``state_with_j`` and ``sample_states`` evaluate the classical backend
one state at a time.  No command uses any of them.
"""

from __future__ import annotations

import cmath
import csv
import dataclasses
import io
import json
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy.sparse as sp

from schwinger.angular import AngularMomentumSet
from schwinger.fock import FockBasis, position
from schwinger.operators import annihilation
from schwinger.classical import sample_amplitudes
from schwinger.cli import Segments, Table
from schwinger.spectra import _quarter_sum


def canonical(m: sp.spmatrix) -> sp.csr_matrix:
    """Sort, merge duplicates, drop exact zeros and freeze a fresh matrix.

    ``m`` must not be shared with any other operator: it is modified in
    place.
    """
    m = m.tocsr()
    m.sum_duplicates()
    m.eliminate_zeros()
    for arr in (m.data, m.indices, m.indptr):
        arr.flags.writeable = False
    return m


def from_entries(dim: int, rows, cols, vals) -> sp.csr_matrix:
    """Canonicalize raw triplets: sort, merge duplicates, drop exact zeros."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    vals = np.asarray(vals, dtype=np.complex128)
    if not (rows.shape == cols.shape == vals.shape):
        raise ValueError("rows, cols and vals must have equal length")
    if len(rows) and (
        rows.min() < 0 or cols.min() < 0 or rows.max() >= dim or cols.max() >= dim
    ):
        raise ValueError(f"triplet index outside a {dim}x{dim} matrix")
    m = sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim), dtype=np.complex128)
    return canonical(m)


def row_map_csr(row_map: tuple) -> sp.csr_matrix:
    """The canonical matrix of the row map ``(cols, vals)``: row r stores
    vals[r] at column cols[r] unless vals[r] is 0."""
    cols, vals = row_map
    rows = np.flatnonzero(vals)
    return from_entries(len(vals), rows, cols[rows], vals[rows])


def ladder(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """The package's ``annihilation`` of one mode as a canonical matrix."""
    return row_map_csr(annihilation(basis, mode))


def to_csr(a: dict, dim: int) -> sp.csr_matrix:
    """The canonical dim x dim matrix of the band ``a``."""
    rows, cols, vals = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)], []
    for p, values in a.items():
        stored = np.flatnonzero(values)
        rows.append(stored)
        cols.append(stored + p)
        vals.append(values[stored])
    return from_entries(dim, np.concatenate(rows), np.concatenate(cols),
                        np.concatenate(vals or [np.zeros(0)]))


def csr_set(amset: AngularMomentumSet) -> AngularMomentumSet:
    """``amset`` with each operator as its canonical matrix: ``to_csr`` of
    each band; a reference set that already holds matrices comes back as
    it is."""
    if not isinstance(amset.jx, dict):
        return amset
    dim = amset.basis.size
    return dataclasses.replace(amset, **{name: to_csr(getattr(amset, name), dim)
                                         for name in ("jx", "jy", "jz", "jtot")})


def band_of(m: sp.spmatrix) -> dict:
    """The ``operators`` band of the canonical matrix ``m``: each stored
    entry (i, j) at offset j - i, row i."""
    m = sp.coo_matrix(m)
    offsets = m.col.astype(np.int64) - m.row
    out = {}
    for p in np.unique(offsets).tolist():
        values = np.zeros(m.shape[0], dtype=np.complex128)
        at = offsets == p
        values[m.row[at]] = m.data[at]
        out[p] = values
    return out


def max_abs(m: sp.spmatrix) -> float:
    """Largest stored-entry magnitude of ``m`` (0 when it stores none)."""
    return float(np.max(np.abs(m.data), initial=0.0))


def fro_norm(m: sp.csr_matrix) -> float:
    """Frobenius norm over the stored entries of ``m``, summed in row-major
    order: the column indices of each row are sorted in place first."""
    m.sort_indices()
    mags = np.abs(m.data)
    with np.errstate(over="ignore"):
        total = np.sum(mags ** 2)
    if np.isinf(total):
        # scaled by the largest magnitude, a norm that fits in a double
        # comes out finite
        big = mags.max()
        if np.isfinite(big):
            return float(big * np.sqrt(np.sum((mags / big) ** 2)))
    return float(np.sqrt(total))


def row_indices(m: sp.csr_matrix) -> np.ndarray:
    """Row index of every stored entry of ``m``, in row-major order."""
    return np.repeat(np.arange(m.shape[0], dtype=np.int64), np.diff(m.indptr))


def _check_dims(a, b):
    if a.shape[0] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape[0]} vs {b.shape[0]}")


def gershgorin_discs(matrix) -> tuple[np.ndarray, np.ndarray]:
    """Centres and radii of the Gershgorin discs of the Hermitian part.

    ``matrix`` is a square numpy array or scipy sparse matrix M.  The
    centres are the (real) diagonal of H = (M + M^H)/2 and the radii its
    off-diagonal absolute row sums, so every eigenvalue of H lies in some
    [centre - radius, centre + radius].  A radius is exactly 0 on a row
    where H has no off-diagonal entry.
    """
    m = sp.csr_matrix(matrix)
    h = ((m + m.conj().T) * 0.5).tocoo()
    off = h.row != h.col
    radii = np.bincount(h.row[off], weights=np.abs(h.data[off]), minlength=h.shape[0])
    return h.diagonal().real, radii


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
    amset = csr_set(amset)
    rng = amset.basis.block_range(n)  # validates n
    sl = slice(rng.start, rng.stop)
    return Block(
        two_j=n,
        jx=amset.jx[sl, sl].toarray(),
        jy=amset.jy[sl, sl].toarray(),
        jz=amset.jz[sl, sl].toarray(),
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


# ---------------------------------------------------------------------------
# one block's report, a block at a time

@dataclass(frozen=True)
class SpectrumReport:
    """Eigenstructure of one constant-j block, with every block residual.

    Built by ``diagonal_report`` from the J_z diagonal and the
    Gershgorin discs of the Hermitized J^2, with no eigensolve.
    jz_eigenvalues are the J_z diagonal in absolute units (hbar times
    m), sorted descending; casimir_value is the J^2 trace over the block
    dimension, which is the mean J^2 eigenvalue exactly; max_residual
    combines the casimir spread with the deviation of the J_z spectrum
    from the exact grid {j, j-1, ..., -j} hbar.  The other residuals
    each measure one property of a correct spin-j block and vanish on it
    (up to rounding).
    """

    two_j: int
    jz_eigenvalues: tuple[float, ...]
    casimir_value: float
    max_residual: float
    # Gershgorin bound max(d + r) - min(d - r) on the spread of the J^2
    # eigenvalues; equal to the spread when J^2 is diagonal (r = 0)
    spread: float
    value_dev: float        # |casimir - j(j+1) hbar^2|
    grid_dev: float         # largest |J_z level - grid level|
    mean_square_dev: float  # |3 <J_z^2> - casimir|
    # |lhs - rhs| of the sum rule in quarters, lhs from the measured
    # J_z levels rounded to the nearest 2m
    sum_rule_dev: float
    dim_dev: float          # |number of distinct J_z levels - (2j + 1)|


def diagonal_report(
    two_j: int, hbar: float, jz_diag, cas_centres, cas_radii
) -> SpectrumReport:
    """Every report field of one block, read off three 1-D arrays.

    ``jz_diag`` is the J_z diagonal on the block's rows; ``cas_centres``
    and ``cas_radii`` are the block's rows of ``gershgorin_discs`` of
    J^2.  Never raises: an inconsistent block shows up as residuals.
    J_z levels closer than hbar/2 count as one level; the sum rule
    rounds each level to the nearest multiple of hbar/2, and a NaN
    level fails it.
    """
    n = two_j
    jz_levels = np.sort(np.real(jz_diag))[::-1]
    value = float(np.mean(cas_centres))
    spread = float(np.max(cas_centres + cas_radii) - np.min(cas_centres - cas_radii))
    j = 0.5 * n
    grid = (j - np.arange(n + 1)) * hbar
    grid_dev = float(np.max(np.abs(jz_levels - grid)))
    distinct = 1 + np.count_nonzero(jz_levels[:-1] - jz_levels[1:] >= 0.5 * hbar)
    # a level past 2m = +-(2j + 1) is off the grid anyway; the clip keeps
    # the squares finite however far a corrupted level lies
    two_m = np.clip(np.rint(2.0 * jz_levels / hbar), -n - 1, n + 1)
    return SpectrumReport(
        two_j=n,
        jz_eigenvalues=tuple(jz_levels.tolist()),
        casimir_value=value,
        max_residual=spread + grid_dev,
        spread=spread,
        value_dev=abs(value - j * (j + 1) * hbar * hbar),
        grid_dev=grid_dev,
        mean_square_dev=abs(_mean_square(jz_levels) - value),
        sum_rule_dev=float(abs(np.sum(two_m * two_m) - _quarter_sum(n))),
        dim_dev=float(abs(distinct - (n + 1))),
    )


def mean_square_from_spectrum(report: SpectrumReport) -> float:
    """3 <J_z^2> averaged over the 2j+1 levels; reproduces the casimir.

    Isotropy requires <J^2> = 3 <J_z^2>, and the sum rule turns the level
    average into j(j+1) hbar^2, matching the operator eigenvalue.
    """
    return _mean_square(np.asarray(report.jz_eigenvalues))


def _mean_square(levels: np.ndarray) -> float:
    return float(3.0 * np.sum(levels * levels) / len(levels))


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
# the classical backend and its sampler, one state at a time

@dataclass(frozen=True)
class ClassicalState:
    """A pair of complex mode amplitudes with an action scale hbar."""

    alpha1: complex
    alpha2: complex
    hbar: float = 1.0


@dataclass(frozen=True)
class ClassicalJ:
    """Real angular-momentum components of one classical state."""

    jx: float
    jy: float
    jz: float
    jtot: float


def classical_components(state: ClassicalState) -> ClassicalJ:
    """Evaluate (jx, jy, jz, jtot) from the amplitudes.

    jx = hbar Re(conj(a1) a2), jy = hbar Im(conj(a1) a2),
    jz = (hbar/2)(|a1|^2 - |a2|^2), jtot = (hbar/2)(|a1|^2 + |a2|^2).
    """
    a1, a2 = complex(state.alpha1), complex(state.alpha2)
    if not all(
        math.isfinite(x) for x in (a1.real, a1.imag, a2.real, a2.imag)
    ):
        raise ValueError(f"non-finite amplitude in ({a1}, {a2})")
    cross = a1.conjugate() * a2
    m1 = a1.real * a1.real + a1.imag * a1.imag
    m2 = a2.real * a2.real + a2.imag * a2.imag
    h = state.hbar
    return ClassicalJ(
        jx=h * cross.real,
        jy=h * cross.imag,
        jz=0.5 * h * (m1 - m2),
        jtot=0.5 * h * (m1 + m2),
    )


def state_with_j(
    j: float, theta: float, phi: float, hbar: float = 1.0
) -> ClassicalState:
    """State whose components have magnitude hbar*j along (theta, phi).

    alpha1 = sqrt(2j) cos(theta/2), alpha2 = sqrt(2j) sin(theta/2) e^{i phi}.
    Any real j >= 0 is allowed; classically nothing restricts j to half
    integers.
    """
    if j < 0:
        raise ValueError(f"j must be non-negative, got {j}")
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    r = math.sqrt(2.0 * j)
    return ClassicalState(
        alpha1=complex(r * math.cos(0.5 * theta)),
        alpha2=r * math.sin(0.5 * theta) * cmath.exp(1j * phi),
        hbar=hbar,
    )


def sample_states(
    count: int, amplitude_bound: float, seed: int, hbar: float = 1.0
) -> list[ClassicalState]:
    """The samples of ``sample_amplitudes`` as ``ClassicalState`` objects."""
    re1, im1, re2, im2 = sample_amplitudes(count, amplitude_bound, seed)
    return [
        ClassicalState(complex(x1, y1), complex(x2, y2), hbar)
        for x1, y1, x2, y2 in zip(re1.tolist(), im1.tolist(), re2.tolist(), im2.tolist())
    ]


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
        lhs = c.jx * c.jx + c.jy * c.jy + c.jz * c.jz
        rel = abs(lhs - c.jtot * c.jtot) / max(c.jtot * c.jtot, tiny)
        records.append({"index": idx, "jx": c.jx, "jy": c.jy, "jz": c.jz,
                        "jtot": c.jtot, "rel_residual": rel})
    return records


# ---------------------------------------------------------------------------
# a command's document, encoded with the standard library

def cell_list(column) -> list:
    """The cells of one ``Table`` column as a list of Python values; a
    ``Segments`` column expands to one list per cell by slicing its
    values at its bounds."""
    if isinstance(column, Segments):
        bounds = column.bounds.tolist()
        return [column.values[a:b].tolist() for a, b in zip(bounds, bounds[1:])]
    return column.tolist() if isinstance(column, np.ndarray) else list(column)


def records(table: Table) -> list[dict]:
    """One dict per record of ``table``."""
    columns = {name: cell_list(col) for name, col in table.columns.items()}
    return [dict(zip(columns, cells)) for cells in zip(*columns.values())]


def json_text(doc: dict) -> str:
    """``json.dumps(indent=2)`` of ``doc`` with each table as a list of dicts."""
    plain = {k: records(v) if isinstance(v, Table) else v for k, v in doc.items()}
    return json.dumps(plain, indent=2, allow_nan=False) + "\n"


def csv_field(value) -> str:
    """One CSV field as the README specifies it; ``None`` is an absent column."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return "%.17g" % value
    if isinstance(value, list):
        return ";".join(map(csv_field, value))
    return str(value)


def csv_text(tables: list[Table]) -> str:
    """The CSV document, written one row dict at a time under a header of
    ``record`` and the tables' columns in order of first appearance."""
    header = ["record"]
    for table in tables:
        header += [name for name in table.columns if name not in header]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for table in tables:
        for row in records(table):
            row["record"] = table.record
            writer.writerow([csv_field(row.get(name)) for name in header])
    return buf.getvalue()


# ---------------------------------------------------------------------------
# the Fock basis, one pair at a time

class OccupationPair(NamedTuple):
    """Occupation numbers (n1, n2) of the two oscillator modes."""

    n1: int
    n2: int

    @property
    def total(self) -> int:
        return self.n1 + self.n2


def states(basis: FockBasis) -> tuple[OccupationPair, ...]:
    """Every pair in basis order, built by direct enumeration."""
    return tuple(
        OccupationPair(n1, n - n1)
        for n in range(basis.n_max + 1)
        for n1 in range(n, -1, -1)
    )


def index_of(basis: FockBasis, pair: OccupationPair | tuple[int, int]) -> int:
    """Position of ``pair`` in the basis ordering.

    Raises ValueError for pairs outside the cutoff (or with negative
    occupations).
    """
    n1, n2 = OccupationPair(*pair)
    if n1 < 0 or n2 < 0 or n1 + n2 > basis.n_max:
        raise ValueError(
            f"occupation pair {(n1, n2)} is outside the basis "
            f"(need n1, n2 >= 0 and n1 + n2 <= {basis.n_max})"
        )
    return position(n1, n2)


# ---------------------------------------------------------------------------
# the mode operators from triplets, and J as sparse arithmetic over them

def triplet_annihilation(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """a_k from one (row, col, sqrt(n_k)) triplet per state with n_k > 0."""
    n1, n2, _ = basis.occupations()
    nk = n1 if mode == 1 else n2
    cols = np.flatnonzero(nk)
    lowered = (n1[cols] - 1, n2[cols]) if mode == 1 else (n1[cols], n2[cols] - 1)
    return from_entries(basis.size, position(*lowered), cols, np.sqrt(nk[cols]))


def triplet_number_operator(basis: FockBasis, mode: int) -> sp.csr_matrix:
    """n_k from one diagonal triplet per state."""
    n1, n2, _ = basis.occupations()
    idx = np.arange(basis.size, dtype=np.int64)
    return from_entries(basis.size, idx, idx, n1 if mode == 1 else n2)


def arithmetic_set(basis: FockBasis, hbar: float = 1.0) -> AngularMomentumSet:
    """The four operators as scipy expressions over the triplet-built mode
    operators, a1^dag a2 taken through CSC, each canonicalized once."""
    a1 = triplet_annihilation(basis, 1)
    a2 = triplet_annihilation(basis, 2)
    up_down = a1.conj().T @ a2
    down_up = up_down.conj().T
    n1 = triplet_number_operator(basis, 1)
    n2 = triplet_number_operator(basis, 2)
    jx = canonical((up_down + down_up) * (0.5 * hbar))
    jy = canonical((up_down - down_up) * (-0.5j * hbar))
    jz = canonical((n1 - n2) * (0.5 * hbar))
    jtot = canonical((n1 + n2) * (0.5 * hbar))
    return AngularMomentumSet(jx=jx, jy=jy, jz=jz, jtot=jtot, hbar=hbar, basis=basis)


def identical(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """True when two canonical matrices hold the same bits in arrays of the
    same dtypes, all of them read-only."""
    arrays = [(a.data, b.data), (a.indices, b.indices), (a.indptr, b.indptr)]
    return (
        a.shape == b.shape
        and all(x.dtype == y.dtype and x.tobytes() == y.tobytes() for x, y in arrays)
        and not any(x.flags.writeable for pair in arrays for x in pair)
    )


# ---------------------------------------------------------------------------
# an operator algebra over canonical CSR matrices

def equal(a: sp.csr_matrix, b: sp.csr_matrix) -> bool:
    """True when two canonical matrices hold the same arrays."""
    return (
        a.shape == b.shape
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and np.array_equal(a.data, b.data)
    )


def identity(dim: int) -> sp.csr_matrix:
    idx = np.arange(dim, dtype=np.int64)
    return from_entries(dim, idx, idx, np.ones(dim, dtype=np.complex128))


def zero(dim: int) -> sp.csr_matrix:
    return from_entries(dim, [], [], [])


def adjoint(op: sp.csr_matrix) -> sp.csr_matrix:
    """Conjugate transpose.  In the truncated space a_k^dag = adjoint(a_k)."""
    return canonical(op.conj().T)


def multiply(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    _check_dims(a, b)
    return canonical(a @ b)


def add(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    _check_dims(a, b)
    return canonical(a + b)


def subtract(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """a - b, as scipy subtracts: an inf in b stays an inf, where a
    subtraction through ``scale(b, -1.0)`` would make 0 * inf a NaN
    part."""
    _check_dims(a, b)
    return canonical(a - b)


def scale(a: sp.csr_matrix, c: complex) -> sp.csr_matrix:
    return canonical(a * complex(c))


def commutator(a: sp.csr_matrix, b: sp.csr_matrix) -> sp.csr_matrix:
    """ab - ba.  For the truncated ladder operators [a_k, a_k^dag] equals
    the identity only below the top shell n1 + n2 = n_max; the deviation
    there is real and expected, not a bug."""
    _check_dims(a, b)
    return subtract(multiply(a, b), multiply(b, a))


# ---------------------------------------------------------------------------
# the J operators, J^2 and the verify residuals through the operator algebra

def algebra_set(basis: FockBasis, hbar: float = 1.0) -> AngularMomentumSet:
    """The four operators, every intermediate canonicalized."""
    if hbar <= 0:
        raise ValueError(f"hbar must be positive, got {hbar}")
    a1 = triplet_annihilation(basis, 1)
    a2 = triplet_annihilation(basis, 2)
    up_down = multiply(adjoint(a1), a2)  # a1^dag a2, block preserving
    down_up = adjoint(up_down)           # a1 a2^dag, exact on the top shell
    n1 = triplet_number_operator(basis, 1)
    n2 = triplet_number_operator(basis, 2)
    jx = scale(add(up_down, down_up), 0.5 * hbar)
    jy = scale(add(up_down, scale(down_up, -1.0)), -0.5j * hbar)
    jz = scale(add(n1, scale(n2, -1.0)), 0.5 * hbar)
    jtot = scale(add(n1, n2), 0.5 * hbar)
    return AngularMomentumSet(jx=jx, jy=jy, jz=jz, jtot=jtot, hbar=hbar, basis=basis)


def algebra_casimir(amset: AngularMomentumSet) -> sp.csr_matrix:
    """J^2 = J_x^2 + J_y^2 + J_z^2."""
    amset = csr_set(amset)
    return add(
        add(multiply(amset.jx, amset.jx), multiply(amset.jy, amset.jy)),
        multiply(amset.jz, amset.jz),
    )


def algebra_casimir_residual(
    amset: AngularMomentumSet, epsilon: float, *, cas: sp.csr_matrix | None = None
) -> sp.csr_matrix:
    """J^2 - J (J + epsilon hbar 1)."""
    amset = csr_set(amset)
    if cas is None:
        cas = algebra_casimir(amset)
    jt = amset.jtot
    quad = add(multiply(jt, jt), scale(jt, epsilon * amset.hbar))
    return subtract(cas, quad)


def _hermiticity_residual(op: sp.csr_matrix) -> float:
    return max_abs(subtract(op, adjoint(op)))


def algebra_residuals(amset: AngularMomentumSet) -> dict[str, float]:
    """The Hermiticity, commutator and quadratic-identity residuals of the
    verify battery, by check name."""
    amset = csr_set(amset)
    hbar = amset.hbar
    jx, jy, jz, jt = amset.jx, amset.jy, amset.jz, amset.jtot
    checks: list[tuple[str, float]] = []

    checks.append(("hermitian_jx", _hermiticity_residual(jx)))
    checks.append(("hermitian_jy", _hermiticity_residual(jy)))
    checks.append(("hermitian_jz", _hermiticity_residual(jz)))
    checks.append(("hermitian_jtot", _hermiticity_residual(jt)))

    pairs = [("commutator_xy_z", jx, jy, jz), ("commutator_yz_x", jy, jz, jx),
             ("commutator_zx_y", jz, jx, jy)]
    for name, a, b, c in pairs:
        resid = add(commutator(a, b), scale(c, -1j * hbar))
        checks.append((name, max_abs(resid)))

    cas = algebra_casimir(amset)
    for name, op in (("casimir_commutes_x", jx), ("casimir_commutes_y", jy),
                     ("casimir_commutes_z", jz)):
        checks.append((name, max_abs(commutator(cas, op))))
    for name, op in (("total_commutes_x", jx), ("total_commutes_y", jy),
                     ("total_commutes_z", jz)):
        checks.append((name, max_abs(commutator(op, jt))))

    quantum = algebra_casimir_residual(amset, 1.0, cas=cas)
    checks.append(("quadratic_identity_quantum", max_abs(quantum)))
    classical_form = subtract(subtract(cas, multiply(jt, jt)), scale(jt, hbar))
    checks.append(("quadratic_identity_classical_form", max_abs(classical_form)))
    return dict(checks)
