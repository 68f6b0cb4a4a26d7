import dataclasses
import math

import numpy as np
import pytest

from schwinger import (
    build_basis,
    build_set,
    casimir,
    casimir_residual,
)
import schwinger.operators as operators
from schwinger.operators import plus, product

from conftest import dense_angular_momentum, max_entry_diff
from oracles import (
    add,
    adjoint,
    algebra_casimir,
    algebra_casimir_residual,
    algebra_set,
    arithmetic_set,
    canonical,
    commutator,
    csr_set,
    equal,
    extract_block,
    fro_norm,
    identical,
    max_abs,
    row_indices,
    scale,
    states,
    to_csr,
)


@pytest.fixture(scope="module")
def amset20():
    return build_set(build_basis(20), 1.0)


@pytest.fixture(scope="module")
def matrices20(amset20):
    return csr_set(amset20)


def residual(amset, epsilon):
    """``casimir_residual`` as its canonical matrix."""
    return to_csr(casimir_residual(amset, epsilon), amset.basis.size)


class TestBuildSet:
    def test_spin_half_block_is_half_pauli(self):
        amset = build_set(build_basis(1), 1.0)
        block = extract_block(amset, 1)
        assert np.allclose(block.jz, np.diag([0.5, -0.5]), atol=1e-15)
        assert np.allclose(block.jx, [[0, 0.5], [0.5, 0]], atol=1e-15)
        assert np.allclose(block.jy, [[0, -0.5j], [0.5j, 0]], atol=1e-15)

    def test_jtot_diagonal_nmax2(self):
        amset = csr_set(build_set(build_basis(2), 1.0))
        diag = np.diag(amset.jtot.toarray()).real
        assert np.allclose(diag, [0, 0.5, 0.5, 1, 1, 1], atol=1e-15)

    def test_commutation_relation_example(self, matrices20):
        resid = add(
            commutator(matrices20.jx, matrices20.jy), scale(matrices20.jz, -1j)
        )
        assert fro_norm(resid) < 1e-12

    def test_hbar_scaling(self):
        block = extract_block(build_set(build_basis(1), 2.0), 1)
        assert np.allclose(block.jz, np.diag([1.0, -1.0]), atol=1e-15)

    def test_invalid_hbar(self):
        with pytest.raises(ValueError):
            build_set(build_basis(1), 0.0)

    @pytest.mark.parametrize("hbar", [math.nan, math.inf])
    def test_non_finite_hbar_rejected(self, hbar):
        with pytest.raises(ValueError, match="finite"):
            build_set(build_basis(3), hbar)

    def test_matches_dense_construction(self):
        basis = build_basis(5)
        amset = csr_set(build_set(basis, 1.0))
        dx, dy, dz, dt = dense_angular_momentum(basis, 1.0)
        for dense, op in ((dx, amset.jx), (dy, amset.jy), (dz, amset.jz),
                          (dt, amset.jtot)):
            assert max_entry_diff(dense, op) < 1e-13

    def test_stored_offsets(self):
        # J_x and J_y store the first off-diagonals, J_z, J and J^2 the
        # main one alone
        amset = build_set(build_basis(7), 0.3)
        assert set(amset.jz) == set(amset.jtot) == set(casimir(amset)) == {0}
        assert set(amset.jx) == set(amset.jy) == {-1, 1}


@pytest.mark.parametrize("n_max", [0, 1, 2, 3, 5, 8, 12, 20])
class TestAlgebraInvariants:
    def test_cyclic_commutators(self, n_max):
        s = csr_set(build_set(build_basis(n_max), 1.0))
        for a, b, c in ((s.jx, s.jy, s.jz), (s.jy, s.jz, s.jx),
                        (s.jz, s.jx, s.jy)):
            resid = add(commutator(a, b), scale(c, -1j * s.hbar))
            assert fro_norm(resid) < 1e-12

    def test_casimir_commutes(self, n_max):
        amset = build_set(build_basis(n_max), 1.0)
        s, cas = csr_set(amset), to_csr(casimir(amset), amset.basis.size)
        for op in (s.jx, s.jy, s.jz):
            assert fro_norm(commutator(cas, op)) < 1e-12

    def test_total_is_conserved(self, n_max):
        s = csr_set(build_set(build_basis(n_max), 1.0))
        for op in (s.jx, s.jy, s.jz):
            assert fro_norm(commutator(op, s.jtot)) < 1e-12

    def test_hermiticity(self, n_max):
        s = csr_set(build_set(build_basis(n_max), 1.0))
        for op in (s.jx, s.jy, s.jz, s.jtot):
            assert max_abs(add(op, scale(adjoint(op), -1.0))) < 1e-13

    def test_block_diagonal_structure(self, n_max):
        s = csr_set(build_set(build_basis(n_max), 1.0))
        totals = np.array([p.total for p in states(s.basis)])
        for op in (s.jx, s.jy, s.jz, s.jtot):
            if op.nnz:
                assert np.array_equal(totals[row_indices(op)], totals[op.indices])

    def test_allowed_j_values_and_degeneracy(self, n_max):
        s = csr_set(build_set(build_basis(n_max), 1.0))
        diag = np.diag(s.jtot.toarray()).real
        values, counts = np.unique(diag, return_counts=True)
        assert np.allclose(values, [0.5 * n for n in range(n_max + 1)], atol=1e-15)
        # each j = n/2 appears exactly 2j + 1 times
        assert list(counts) == [n + 1 for n in range(n_max + 1)]


class TestBlocks:
    def test_vacuum_block(self):
        amset = build_set(build_basis(3), 1.0)
        block = extract_block(amset, 0)
        assert block.dim == 1
        assert block.jx[0, 0] == 0 and block.jy[0, 0] == 0 and block.jz[0, 0] == 0

    def test_spin_one_block(self):
        amset = build_set(build_basis(3), 1.0)
        block = extract_block(amset, 2)
        assert np.allclose(block.jz, np.diag([1.0, 0.0, -1.0]), atol=1e-15)
        r = 1 / np.sqrt(2)
        expected_jx = np.array([[0, r, 0], [r, 0, r], [0, r, 0]])
        assert np.allclose(block.jx, expected_jx, atol=1e-15)

    def test_blocks_hermitian(self):
        amset = build_set(build_basis(9), 1.0)
        for n in range(10):
            block = extract_block(amset, n)
            for m in (block.jx, block.jy, block.jz):
                assert np.max(np.abs(m - m.conj().T)) < 1e-13

    def test_out_of_range(self):
        amset = build_set(build_basis(2), 1.0)
        with pytest.raises(ValueError):
            extract_block(amset, 3)

    @pytest.mark.parametrize("n_max", [1, 4, 9])
    def test_top_shell_block_is_exact(self, n_max):
        # the su(2) algebra must hold on the highest block with no
        # degradation: J products never leave a block upward
        block = extract_block(build_set(build_basis(n_max), 1.0), n_max)
        comm = block.jx @ block.jy - block.jy @ block.jx
        assert np.max(np.abs(comm - 1j * block.jz)) < 1e-13
        cas = block.jx @ block.jx + block.jy @ block.jy + block.jz @ block.jz
        j = n_max / 2
        assert np.max(np.abs(cas - j * (j + 1) * np.eye(n_max + 1))) < 1e-12


class TestCasimir:
    def test_block_values(self):
        amset = build_set(build_basis(2), 1.0)
        cas = to_csr(casimir(amset), amset.basis.size).toarray()
        b0 = amset.basis.block_range(0)
        b1 = amset.basis.block_range(1)
        b2 = amset.basis.block_range(2)
        assert cas[b0.start, b0.start] == pytest.approx(0.0, abs=1e-14)
        sub1 = cas[b1.start:b1.stop, b1.start:b1.stop]
        assert np.allclose(sub1, 0.75 * np.eye(2), atol=1e-14)
        sub2 = cas[b2.start:b2.stop, b2.start:b2.stop]
        assert np.allclose(sub2, 2.0 * np.eye(3), atol=1e-14)

    def test_residual_quantum(self, amset20):
        assert max_abs(residual(amset20, 1.0)) < 1e-12

    def test_residual_classical_form(self, amset20, matrices20):
        # at epsilon = 0 the residual reduces to hbar * J entrywise
        diff = add(
            residual(amset20, 0.0), scale(matrices20.jtot, -amset20.hbar)
        )
        assert max_abs(diff) < 1e-12

    def test_residual_intermediate_epsilon(self, amset20, matrices20):
        # residual(eps) - residual(1) = (1 - eps) hbar J for any eps
        diff = add(
            residual(amset20, 0.25),
            scale(matrices20.jtot, -0.75 * amset20.hbar),
        )
        assert max_abs(diff) < 1e-12

    def test_residual_on_vacuum_basis(self):
        amset = build_set(build_basis(0), 1.0)
        assert max_abs(residual(amset, 1.0)) == 0.0

    def test_residual_scales_with_hbar(self):
        amset = build_set(build_basis(4), 2.0)
        assert max_abs(residual(amset, 1.0)) < 1e-12
        diff = add(residual(amset, 0.0), scale(csr_set(amset).jtot, -2.0))
        assert max_abs(diff) < 1e-12

    def test_entries_cancelling_off_the_diagonal(self):
        # J_x^2 and J_y^2 store offsets -2, 0 and 2, and cancel at -2 and
        # 2: only their sum is diagonal
        amset = build_set(build_basis(5), 0.3)
        assert set(product(amset.jx, amset.jx)) == {-2, 0, 2}
        assert set(casimir(amset)) == {0}
        m = csr_set(amset)
        want = canonical(m.jx @ m.jx + m.jy @ m.jy + m.jz @ m.jz)
        assert identical(to_csr(casimir(amset), amset.basis.size), want)

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 2.0, 1e-30])
    def test_casimir_bits(self, hbar):
        # J^2 holds the bits of scipy's J_x J_x + J_y J_y + J_z J_z, clean
        # or with an entry off J_z's diagonal, off J_x's band or on it
        for n_max in (0, 1, 2, 7, 23, 40):
            amset = build_set(build_basis(n_max), hbar)
            sets = [amset]
            if n_max >= 2:
                for name, row, col in (("jz", 1, 2), ("jx", 0, 5), ("jx", 1, 2)):
                    bump = np.zeros(amset.basis.size, dtype=complex)
                    bump[row] = 1e-3 * hbar
                    bumped = plus(getattr(amset, name), {col - row: bump})
                    sets.append(dataclasses.replace(amset, **{name: bumped}))
            for s in sets:
                m = csr_set(s)
                want = canonical(m.jx @ m.jx + m.jy @ m.jy + m.jz @ m.jz)
                assert identical(to_csr(casimir(s), s.basis.size), want), n_max


class TestOneExpression:
    """Each band the package builds equals, to the bit, the matrix the
    oracles build: through their operator algebra, which canonicalizes
    every intermediate, or as sparse arithmetic over triplet-built
    modes."""

    @pytest.mark.parametrize("hbar", [0.3, 1.0, 2.0, 1e-30])
    @pytest.mark.parametrize("n_max", [0, 1, 7, 40])
    def test_matches_operator_algebra(self, n_max, hbar):
        basis = build_basis(n_max)
        amset, reference = build_set(basis, hbar), algebra_set(basis, hbar)
        matrices = csr_set(amset)
        for name in ("jx", "jy", "jz", "jtot"):
            assert equal(getattr(matrices, name), getattr(reference, name)), name
        assert equal(to_csr(casimir(amset), basis.size), algebra_casimir(reference))
        for epsilon in (0.0, 0.25, 1.0):
            assert equal(to_csr(casimir_residual(amset, epsilon), basis.size),
                         algebra_casimir_residual(reference, epsilon))

    @pytest.mark.parametrize("rows", [1, 7, 64])
    def test_windows_match_the_whole(self, monkeypatch, rows):
        # J^2 summed over windows holds the bits of the whole matrix's, on
        # clean sets and on one with entries far off the band of J_x and of J
        for n_max, hbar, bumps in ((0, 1.0, ()), (12, 0.3, ()), (40, 1e-30, ()), (40, 2.0, ()),
                                   (12, 0.3, (("jx", 20, 27), ("jtot", 50, 3)))):
            amset = build_set(build_basis(n_max), hbar)
            for name, row, col in bumps:
                bump = np.zeros(amset.basis.size, dtype=complex)
                bump[row] = 0.7 * hbar
                amset = dataclasses.replace(amset, **{name: plus(getattr(amset, name), {col - row: bump})})
            cas = casimir(amset)
            with monkeypatch.context() as m:
                m.setattr(operators, "WINDOW_ROWS", rows)
                assert identical(to_csr(casimir(amset), amset.basis.size),
                                 to_csr(cas, amset.basis.size)), n_max

    @pytest.mark.parametrize("hbar", [0.1, 0.3, 1.0, 2.0, 1e-30, 1e30])
    def test_matches_sparse_arithmetic(self, hbar):
        # J_x and J_y written from the one product a1^dag a2, J_z and J
        # from the occupations: the bits of the expressions over
        # triplet-built modes, up to the n_max cap
        for n_max in [*range(41), 500, 1000]:
            basis = build_basis(n_max)
            amset, reference = csr_set(build_set(basis, hbar)), arithmetic_set(basis, hbar)
            for name in ("jx", "jy", "jz", "jtot"):
                assert identical(getattr(amset, name), getattr(reference, name)), (n_max, name)

    @pytest.mark.parametrize("hbar", [5e-324, 1e-320])
    def test_underflowing_entries_are_dropped(self, hbar):
        # hbar/2 times an entry underflows to 0 here: at 5e-324 every
        # entry does, at 1e-320 the small ones
        for n_max in (0, 1, 3, 12):
            basis = build_basis(n_max)
            amset, reference = csr_set(build_set(basis, hbar)), arithmetic_set(basis, hbar)
            for name in ("jx", "jy", "jz", "jtot"):
                op = getattr(amset, name)
                assert op.data.all(), (n_max, name)
                assert identical(op, getattr(reference, name)), (n_max, name)
        assert build_set(build_basis(3), 5e-324).jx == {}

    @pytest.mark.parametrize("hbar", [5e-324, 1e-320, 3e-310, 1e-150, 0.1, 0.3, 1.0, 2.0,
                                      1e30, 1e200, 1e305, 1e308])
    def test_matches_band_algebra(self, hbar):
        # each array holds the bits of U + U^dag, U - U^dag and the
        # occupations scaled in the band algebra, the zeros a stored offset
        # holds included, with their signs; at 1e308 some entries overflow
        for n_max in (0, 1, 2, 5, 12, 40, 127):
            basis = build_basis(n_max)
            u = operators.band({1: operators.row_product(
                operators.creation(basis, 1),
                operators.annihilation(basis, 2))[1].astype(np.complex128)})
            u_dag = operators.adjoint(u)
            n1, n2, total = basis.occupations()
            with np.errstate(over="ignore"):
                want = {
                    "jx": operators.scaled(plus(u, u_dag), 0.5 * hbar),
                    "jy": operators.scaled(operators.minus(u, u_dag), -0.5j * hbar),
                    "jz": operators.band({0: ((n1 - n2) * (0.5 * hbar)).astype(np.complex128)}),
                    "jtot": operators.band({0: (total * (0.5 * hbar)).astype(np.complex128)}),
                }
                amset = build_set(basis, hbar)
            for name, band in want.items():
                got = getattr(amset, name)
                assert sorted(got) == sorted(band), (n_max, name)
                for p, values in band.items():
                    assert got[p].tobytes() == values.tobytes(), (n_max, name, p)
