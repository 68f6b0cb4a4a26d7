"""Classical phase-space counterpart of the coupled-boson construction.

Here the two ladder operators are replaced by plain commuting complex
amplitudes (alpha1, alpha2).  The angular-momentum components become
real-valued functions and satisfy jx^2 + jy^2 + jz^2 = jtot^2 exactly:
the square of a classical angular momentum is j^2, with no j(j+1)
correction, and j ranges over a continuum instead of half integers.
No matrices appear anywhere in this module; the sampler works on
numpy arrays.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np


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


# 64-bit linear congruential generator (Knuth's MMIX constants).  Fixed
# explicitly so the sampled sequences are reproducible bit for bit on any
# platform: x_{k+1} = (A x_k + C) mod 2^64, u_k = (x_{k+1} >> 11) / 2^53.
_LCG_A = 6364136223846793005
_LCG_C = 1442695040888963407
_LCG_MASK = (1 << 64) - 1
_TWO53 = float(1 << 53)


def _lcg_states(seed: int, count: int) -> np.ndarray:
    """x_1 ... x_count of the generator started at x_0 = seed mod 2^64.

    Jumps ahead by doubling (F. B. Brown, "Random number generation with
    arbitrary strides", 1994): once x_1 ... x_L are known, the affine map
    x_{k+L} = A_L x_k + C_L mod 2^64 fills the next L states at once, and
    (A_{2L}, C_{2L}) = (A_L^2, A_L C_L + C_L).  The map is composed in
    Python integers and applied in uint64, whose products wrap mod 2^64.
    """
    states = np.empty(count, dtype=np.uint64)
    states[0] = ((seed & _LCG_MASK) * _LCG_A + _LCG_C) & _LCG_MASK
    a, c, filled = _LCG_A, _LCG_C, 1
    while filled < count:
        step = min(filled, count - filled)
        block = states[filled:filled + step]
        np.multiply(states[:step], np.uint64(a), out=block)
        block += np.uint64(c)
        a, c, filled = (a * a) & _LCG_MASK, (a * c + c) & _LCG_MASK, filled + step
    return states


def sample_amplitudes(
    count: int, amplitude_bound: float, seed: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic pseudo-random amplitudes, |alpha_k| <= amplitude_bound.

    Returns (Re alpha1, Im alpha1, Re alpha2, Im alpha2), one float64
    array each.  Sample i uses the uniforms u_{4i} ... u_{4i+3}: each
    amplitude is drawn uniformly from the complex disc of the given
    radius as (r cos t, r sin t) with r = bound * sqrt(u) and t = 2 pi u.
    The same seed always reproduces the same sequence.
    """
    if count < 1:
        raise ValueError(f"count must be at least 1, got {count}")
    if amplitude_bound <= 0:
        raise ValueError(f"amplitude_bound must be positive, got {amplitude_bound}")
    u = (_lcg_states(seed, 4 * count) >> np.uint64(11)).astype(np.float64) / _TWO53
    u_r1, u_t1, u_r2, u_t2 = u.reshape(count, 4).T
    r1 = amplitude_bound * np.sqrt(u_r1)
    r2 = amplitude_bound * np.sqrt(u_r2)
    t1 = (2.0 * math.pi) * u_t1
    t2 = (2.0 * math.pi) * u_t2
    return r1 * np.cos(t1), r1 * np.sin(t1), r2 * np.cos(t2), r2 * np.sin(t2)


def sample_states(
    count: int, amplitude_bound: float, seed: int, hbar: float = 1.0
) -> list[ClassicalState]:
    """The samples of ``sample_amplitudes`` as ``ClassicalState`` objects."""
    re1, im1, re2, im2 = sample_amplitudes(count, amplitude_bound, seed)
    return [
        ClassicalState(complex(x1, y1), complex(x2, y2), hbar)
        for x1, y1, x2, y2 in zip(re1.tolist(), im1.tolist(), re2.tolist(), im2.tolist())
    ]
