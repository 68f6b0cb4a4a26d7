"""Shared dense brute-force oracle.

Everything here is built with plain dense numpy arrays straight from the
ladder-operator rule, independently of the sparse algebra under test, so
the two routes can be compared entrywise.
"""

import os

import numpy as np

from schwinger import FockBasis

from oracles import index_of, states

# pytest puts src/ on sys.path (pyproject.toml); the tests that run
# ``python -m schwinger`` in a child process need it there too.
_SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
os.environ["PYTHONPATH"] = os.pathsep.join(
    p for p in (_SRC, os.environ.get("PYTHONPATH")) if p
)


def dense_annihilation(basis: FockBasis, mode: int) -> np.ndarray:
    out = np.zeros((basis.size, basis.size), dtype=complex)
    for col, (n1, n2) in enumerate(states(basis)):
        nk = n1 if mode == 1 else n2
        if nk == 0:
            continue
        lowered = (n1 - 1, n2) if mode == 1 else (n1, n2 - 1)
        out[index_of(basis, lowered), col] = np.sqrt(nk)
    return out


def dense_number(basis: FockBasis, mode: int) -> np.ndarray:
    occ = [(n1 if mode == 1 else n2) for n1, n2 in states(basis)]
    return np.diag(np.array(occ, dtype=complex))


def dense_angular_momentum(basis: FockBasis, hbar: float = 1.0):
    """Dense (jx, jy, jz, jtot) built the same safe way: the lowering
    product first, then its conjugate transpose."""
    a1 = dense_annihilation(basis, 1)
    a2 = dense_annihilation(basis, 2)
    up_down = a1.conj().T @ a2
    down_up = up_down.conj().T
    jx = 0.5 * hbar * (up_down + down_up)
    jy = -0.5j * hbar * (up_down - down_up)
    jz = 0.5 * hbar * (dense_number(basis, 1) - dense_number(basis, 2))
    jtot = 0.5 * hbar * (dense_number(basis, 1) + dense_number(basis, 2))
    return jx, jy, jz, jtot


def max_entry_diff(dense: np.ndarray, op) -> float:
    """Largest entrywise gap between a dense matrix and a sparse operator."""
    return float(np.max(np.abs(dense - op.toarray()))) if dense.size else 0.0
