import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from schwinger import (
    ClassicalState,
    classical_components,
    sample_amplitudes,
    sample_states,
    state_with_j,
)

from oracles import scalar_amplitudes

finite = st.floats(min_value=-30.0, max_value=30.0, allow_nan=False)


def components_tuple(state):
    c = classical_components(state)
    return c.jx, c.jy, c.jz, c.jtot


class TestComponents:
    def test_single_mode(self):
        assert components_tuple(ClassicalState(1.0, 0.0)) == (0.0, 0.0, 0.5, 0.5)

    def test_equal_in_phase(self):
        assert components_tuple(ClassicalState(1.0, 1.0)) == (1.0, 0.0, 0.0, 1.0)

    def test_quarter_phase(self):
        jx, jy, jz, jtot = components_tuple(ClassicalState(1.0, 1.0j))
        assert (jx, jz) == (0.0, 0.0)
        assert jy == pytest.approx(1.0, abs=1e-15)
        assert jtot == pytest.approx(1.0, abs=1e-15)

    def test_hbar_scale(self):
        c = classical_components(ClassicalState(1.0, 0.0, hbar=2.0))
        assert (c.jz, c.jtot) == (1.0, 1.0)

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            classical_components(ClassicalState(float("nan"), 0.0))
        with pytest.raises(ValueError):
            classical_components(ClassicalState(1.0, complex(0, float("inf"))))

    @given(finite, finite, finite, finite)
    def test_square_identity(self, re1, im1, re2, im2):
        c = classical_components(
            ClassicalState(complex(re1, im1), complex(re2, im2))
        )
        lhs = c.jx**2 + c.jy**2 + c.jz**2
        assert abs(lhs - c.jtot**2) <= 1e-12 * max(c.jtot**2, 1e-30)
        assert c.jtot >= 0.0


class TestStateWithJ:
    def test_continuous_j(self):
        c = classical_components(state_with_j(0.7, 0.0, 0.0))
        assert c.jz == pytest.approx(0.7, abs=1e-15)
        assert c.jtot == pytest.approx(0.7, abs=1e-15)

    def test_spin_half_pole(self):
        state = state_with_j(0.5, 0.0, 0.0)
        assert state.alpha1 == pytest.approx(1.0)
        assert state.alpha2 == 0.0

    def test_equatorial(self):
        c = classical_components(state_with_j(1.0, math.pi / 2, 0.0))
        assert c.jx == pytest.approx(1.0, abs=1e-15)
        assert abs(c.jy) < 1e-15 and abs(c.jz) < 1e-15

    def test_extremal_alignment_is_exact(self):
        # theta = 0 puts all the momentum on the z axis: jz / jtot = 1
        for j in (0.3, 1.0, 7.25):
            c = classical_components(state_with_j(j, 0.0, 1.3))
            assert c.jz == c.jtot

    def test_negative_j_rejected(self):
        with pytest.raises(ValueError):
            state_with_j(-0.1, 0.0, 0.0)

    @given(
        st.floats(min_value=0.01, max_value=50.0),
        st.floats(min_value=0.01, max_value=math.pi - 0.01),
        st.floats(min_value=-math.pi, max_value=math.pi),
    )
    def test_round_trip(self, j, theta, phi):
        c = classical_components(state_with_j(j, theta, phi))
        assert c.jtot == pytest.approx(j, abs=1e-10 * max(1, j))
        assert math.acos(
            min(1.0, max(-1.0, c.jz / c.jtot))
        ) == pytest.approx(theta, abs=1e-10)
        assert math.atan2(c.jy, c.jx) == pytest.approx(phi, abs=1e-10)


class TestSampler:
    def test_determinism(self):
        a = sample_states(3, 2.0, seed=42)
        b = sample_states(3, 2.0, seed=42)
        assert a == b

    def test_seed_sensitivity(self):
        assert sample_states(3, 2.0, seed=1) != sample_states(3, 2.0, seed=2)

    def test_amplitude_bound(self):
        for state in sample_states(500, 1.5, seed=9):
            assert abs(state.alpha1) <= 1.5
            assert abs(state.alpha2) <= 1.5

    def test_identity_over_large_sample(self):
        worst = 0.0
        for state in sample_states(10_000, 5.0, seed=1):
            c = classical_components(state)
            lhs = c.jx**2 + c.jy**2 + c.jz**2
            worst = max(worst, abs(lhs - c.jtot**2) / max(c.jtot**2, 1e-300))
        assert worst < 1e-12

    def test_jtot_is_continuous(self):
        # sampled total momenta are generically not half integers
        values = [
            classical_components(s).jtot for s in sample_states(20, 2.0, seed=3)
        ]
        assert any(abs(2 * v - round(2 * v)) > 1e-3 for v in values)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_states(0, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_states(1, 0.0, seed=0)


class TestJumpedGenerator:
    """``sample_amplitudes`` against the LCG stepped one state at a time."""

    @pytest.mark.filterwarnings("error")
    @given(
        st.sampled_from([1, 2, 3, 4, 5, 1023, 1024, 1025]),
        st.floats(min_value=1e-3, max_value=1e3),
        st.one_of(
            st.integers(min_value=-(2**70), max_value=-1),
            st.integers(min_value=0, max_value=2**64 - 1),
            st.integers(min_value=2**64, max_value=2**70),
        ),
    )
    def test_equals_scalar_loop_bit_for_bit(self, count, bound, seed):
        got = [a.tolist() for a in sample_amplitudes(count, bound, seed)]
        assert got == [list(c) for c in scalar_amplitudes(count, bound, seed)]

    def test_arrays(self):
        arrays = sample_amplitudes(7, 2.0, seed=5)
        assert len(arrays) == 4
        assert all(a.dtype == np.float64 and a.shape == (7,) for a in arrays)

    @pytest.mark.parametrize("count, seed", [(1, 0), (1025, -3), (300, 2**64 + 9)])
    def test_states_share_the_generator(self, count, seed):
        re1, im1, re2, im2 = (a.tolist() for a in sample_amplitudes(count, 1.5, seed))
        states = sample_states(count, 1.5, seed, hbar=2.0)
        assert [s.alpha1 for s in states] == [complex(x, y) for x, y in zip(re1, im1)]
        assert [s.alpha2 for s in states] == [complex(x, y) for x, y in zip(re2, im2)]
        assert all(s.hbar == 2.0 for s in states)

    def test_validation(self):
        with pytest.raises(ValueError):
            sample_amplitudes(0, 1.0, seed=0)
        with pytest.raises(ValueError):
            sample_amplitudes(1, -1.0, seed=0)
