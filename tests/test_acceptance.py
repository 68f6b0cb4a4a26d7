"""Acceptance battery: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -s`` to see one PASS line per
criterion; a pytest failure is the corresponding FAIL line.
"""

import json
import math
import subprocess
import sys
import time

import numpy as np
import pytest

import schwinger as sw
from schwinger.cli import main as cli_main

from conftest import dense_annihilation, dense_number, max_entry_diff
from oracles import (
    add,
    adjoint,
    analyze_block,
    classical_components,
    commutator,
    csr_set,
    extract_block,
    fro_norm,
    ladder,
    max_abs,
    mean_square_from_spectrum,
    multiply,
    sample_states,
    scale,
    state_with_j,
    states,
    to_csr,
    triplet_number_operator,
)

N_MAX = 40


@pytest.fixture(scope="module")
def amset40():
    return sw.build_set(sw.build_basis(N_MAX), 1.0)


def report(num, label, detail):
    print(f"ACCEPTANCE {num} {label}: PASS ({detail})")


def test_criterion_1_commutation_relations():
    start = time.monotonic()
    amset = sw.build_set(sw.build_basis(N_MAX), 1.0)
    s = csr_set(amset)
    assert s.basis.size == 861
    worst = 0.0
    for a, b, c in ((s.jx, s.jy, s.jz), (s.jy, s.jz, s.jx), (s.jz, s.jx, s.jy)):
        resid = add(commutator(a, b), scale(c, -1j * s.hbar))
        worst = max(worst, fro_norm(resid))
        assert fro_norm(resid) < 1e-11
    cas = to_csr(sw.casimir(amset), s.basis.size)
    assert fro_norm(commutator(cas, s.jz)) < 1e-11
    for op in (s.jx, s.jy, s.jz):
        assert fro_norm(commutator(op, s.jtot)) < 1e-11
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    report(1, "commutation-relations",
           f"max Frobenius residual {worst:.3e}, {elapsed:.2f}s")


def test_criterion_2_quadratic_identity(amset40):
    dim = amset40.basis.size
    quantum = max_abs(to_csr(sw.casimir_residual(amset40, 1.0), dim))
    assert quantum < 1e-11
    classical_form = max_abs(add(
        to_csr(sw.casimir_residual(amset40, 0.0), dim),
        scale(csr_set(amset40).jtot, -amset40.hbar),
    ))
    assert classical_form < 1e-12
    report(2, "quadratic-identity",
           f"eps=1 max entry {quantum:.3e}, eps=0 form {classical_form:.3e}")


def test_criterion_3_block_spectra(amset40):
    worst_value, worst_spread, worst_grid = 0.0, 0.0, 0.0
    for n in range(N_MAX + 1):
        rep = analyze_block(extract_block(amset40, n))
        j = 0.5 * n
        assert len(rep.jz_eigenvalues) == n + 1
        value_dev = abs(rep.casimir_value - j * (j + 1))
        assert value_dev < 1e-10
        # intra-block spread is already enforced inside analyze_block at 1e-12
        grid = np.array([j - k for k in range(n + 1)])
        grid_dev = float(np.max(np.abs(np.array(rep.jz_eigenvalues) - grid)))
        assert grid_dev < 1e-10
        worst_value = max(worst_value, value_dev)
        worst_grid = max(worst_grid, grid_dev)
        worst_spread = max(worst_spread, rep.max_residual)
    report(3, "block-spectra",
           f"casimir dev {worst_value:.3e}, jz grid dev {worst_grid:.3e}")


def test_criterion_4_sum_rule_and_average(amset40):
    # the one array call that sumrule makes for its table
    start = time.monotonic()
    lhs, rhs = sw.sum_rule_check(np.arange(10_001))
    elapsed = time.monotonic() - start
    assert elapsed < 1.0
    assert len(lhs) == len(rhs) == 10_001
    for row_lhs, row_rhs in zip(lhs, rhs):
        assert row_lhs == row_rhs
    worst = 0.0
    for n in range(N_MAX + 1):
        rep = analyze_block(extract_block(amset40, n))
        dev = abs(mean_square_from_spectrum(rep) - rep.casimir_value)
        worst = max(worst, dev)
        assert dev < 1e-10
    report(4, "sum-rule", f"10001 exact rows in {elapsed:.3f}s, "
                          f"mean-square dev {worst:.3e}")


def test_criterion_5_angles_and_limits():
    assert sw.cos_theta(1, 1, 1.0) == pytest.approx(0.5773503, abs=1e-6)
    two_js = np.arange(1, 401)
    values = sw.cos_theta(two_js, two_js, 1.0)
    assert all(b > a for a, b in zip(values, values[1:]))
    for two_j, value in enumerate(values, 1):
        assert 1.0 - value <= 1.0 / two_j  # 1/(2j)
    for two_j in range(1, 30):
        assert sw.cos_theta(two_j, two_j, 0.0) == 1.0
        assert sw.cos_theta(two_j, -two_j, 0.0) == -1.0
    tables = []
    for hbar in (1.0, 2.0):
        amset = sw.build_set(sw.build_basis(8), hbar)
        table = []
        for n in range(1, 9):
            rep = analyze_block(extract_block(amset, n))
            table.extend(
                sw.cos_theta(n, round(2 * jz / hbar), 1.0)
                for jz in rep.jz_eigenvalues
            )
        tables.append(table)
    assert tables[0] == tables[1]
    report(5, "angles-and-limits",
           f"cos at j=1/2: {sw.cos_theta(1, 1, 1.0):.7f}, table hbar-invariant")


def test_criterion_6_classical_backend():
    states = sample_states(10_000, 5.0, seed=1)
    worst = 0.0
    continuous = False
    for state in states:
        c = classical_components(state)
        lhs = c.jx**2 + c.jy**2 + c.jz**2
        worst = max(worst, abs(lhs - c.jtot**2) / max(c.jtot**2, 1e-300))
        if abs(2 * c.jtot - round(2 * c.jtot)) > 1e-3:
            continuous = True
    assert worst < 1e-12
    assert continuous
    for j in (0.25, 0.7, 1.0, 3.5, 11.0):
        for theta in (0.3, 1.0, 2.5):
            for phi in (-2.0, 0.4, 3.0):
                c = classical_components(state_with_j(j, theta, phi))
                assert abs(c.jtot - j) < 1e-10 * max(1, j)
                assert abs(math.acos(c.jz / c.jtot) - theta) < 1e-10
                assert abs(math.atan2(c.jy, c.jx) - phi) < 1e-10
    report(6, "classical-backend",
           f"max relative residual {worst:.3e} over 10^4 states")


def test_criterion_7_dense_oracle():
    worst = 0.0
    for n_max in range(7):
        basis = sw.build_basis(n_max)
        a1 = ladder(basis, 1)
        a2 = ladder(basis, 2)
        d1 = dense_annihilation(basis, 1)
        d2 = dense_annihilation(basis, 2)
        pairs = [
            (d1, a1),
            (d2, a2),
            (d1.conj().T, adjoint(a1)),
            (dense_number(basis, 1), triplet_number_operator(basis, 1)),
            (dense_number(basis, 2), triplet_number_operator(basis, 2)),
            (d1.conj().T @ d2, multiply(adjoint(a1), a2)),
            (d1 + 2.0 * d2, add(a1, scale(a2, 2.0))),
            (0.5j * d1, scale(a1, 0.5j)),
            (
                d1 @ d1.conj().T - d1.conj().T @ d1,
                commutator(a1, adjoint(a1)),
            ),
        ]
        for dense, sparse in pairs:
            worst = max(worst, max_entry_diff(dense, sparse))
            assert max_entry_diff(dense, sparse) < 1e-13
        comm = commutator(a1, adjoint(a1)).toarray()
        for pos, pair in enumerate(states(basis)):
            if pair.total < n_max:
                assert comm[pos, pos] == pytest.approx(1.0, abs=1e-13)
            else:  # top shell: truncated creation operator annihilates
                assert comm[pos, pos] == pytest.approx(-pair.n1, abs=1e-13)
    report(7, "dense-oracle", f"max entrywise gap {worst:.3e} for n_max <= 6")


def test_criterion_8_cli_contract(tmp_path, capsys):
    cmd = [sys.executable, "-m", "schwinger", "verify", "--nmax", "20", "--no-meta"]
    start = time.monotonic()
    first = subprocess.run(cmd, capture_output=True, text=True)
    elapsed = time.monotonic() - start
    assert first.returncode == 0
    assert elapsed < 10.0

    second = subprocess.run(cmd, capture_output=True, text=True)
    assert second.stdout == first.stdout  # byte-identical data output

    corrupted = subprocess.run(
        cmd + ["--corrupt", "jx,2,4,1e-6"], capture_output=True, text=True
    )
    assert corrupted.returncode == 1
    doc = json.loads(corrupted.stdout)
    failed = [c["name"] for c in doc["checks"] if not c["pass"]]
    assert failed
    assert all(f"FAILED {name}" in corrupted.stderr for name in failed)

    # same contract through the in-process entry point
    assert cli_main(["verify", "--nmax", "20", "--no-meta"]) == 0
    capsys.readouterr()
    report(8, "cli-contract",
           f"verify --nmax 20 exit 0 in {elapsed:.2f}s, "
           f"corruption names {failed[0]}")
