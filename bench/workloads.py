"""Seeded argv lists for each benchmark workload.

The program only ever sees the lists built here.  Each workload is a
function of the seed: the same seed always gives the same calls.

- ``verify_n500``: one ``verify --nmax 500 --tol 1e-6`` call, the cap the
  README documents.  The per-block path (block extraction, dense J^2
  products, the Jacobi solve) does most of the work.
- ``small_mix``: 200 small ``verify`` and ``spectrum`` calls, so fixed
  per-call cost (basis, ladder operators, canonicalization, global sparse
  checks) dominates and the per-block path is small.
- ``classical_200k``: one ``classical --count 200000`` call, which does no
  operator or block work; the sampler and JSON serialization dominate.
"""

from __future__ import annotations

import random

WORKLOADS = ("verify_n500", "small_mix", "classical_200k")

HBARS = (0.5, 1.0, 2.0)
FORMATS = ("json", "csv")
CORRUPT_OPS = ("jx", "jy", "jz", "jtot")
CORRUPT_DELTA = 1e-3  # far above every tol below, so the hermiticity check fails


def scaled_tol(n_max: int, hbar: float) -> float:
    """Tolerance that correct code meets: residuals grow like eps (n/2)^3."""
    return 1e-13 * max(1.0, hbar) ** 3 * (n_max / 2 + 1) ** 3 + 1e-12


def _stratified(count: int, top: int, rng: random.Random) -> list[int]:
    """One draw in 0..top from each of ``count`` equal slices of the range.

    The multiset of sizes, and so the total work of the mix, then barely
    depends on the seed, while each call still gets a seeded size.
    """
    span = top + 1
    out = []
    for i in range(count):
        lo = i * span // count
        hi = max(lo, (i + 1) * span // count - 1)
        out.append(rng.randint(lo, hi))
    return out


def _balanced(values: tuple, count: int, rng: random.Random) -> list:
    """Cycle through ``values`` in a seeded order, so each is used equally."""
    order = list(values)
    rng.shuffle(order)
    return [order[i % len(order)] for i in range(count)]


def _corrupt_directive(n_max: int, rng: random.Random) -> str:
    dim = (n_max + 1) * (n_max + 2) // 2
    row = rng.randrange(dim)
    col = rng.randrange(dim - 1)
    col += col >= row  # off the diagonal, so J - J^dag != 0 at (row, col)
    delta = CORRUPT_DELTA * rng.choice((1, -1))
    return f"{rng.choice(CORRUPT_OPS)},{row},{col},{delta!r}"


def small_mix(seed: int, n_verify: int = 150, n_spectrum: int = 50,
              n_max_top: int = 60, corrupt_every: int = 8) -> list[list[str]]:
    """About 1 in 4 calls is ``spectrum``; 1 in 8 ``verify`` calls is corrupted.

    Sizes, hbar and format are spread evenly over the calls (see
    ``_stratified``), then the calls are shuffled.
    """
    rng = random.Random(f"small_mix:{seed}")
    calls = []

    sizes = _stratified(n_verify, n_max_top, rng)
    hbars = _balanced(HBARS, n_verify, rng)
    formats = _balanced(FORMATS, n_verify, rng)
    corruptible = [i for i, n in enumerate(sizes) if n >= 1]
    corrupted = set(corruptible[rng.randrange(corrupt_every)::corrupt_every])
    for i, (n_max, hbar, fmt) in enumerate(zip(sizes, hbars, formats)):
        argv = ["verify", "--nmax", str(n_max), "--hbar", repr(hbar),
                "--tol", f"{scaled_tol(n_max, hbar):.3e}", "--format", fmt]
        if i in corrupted:
            argv += ["--corrupt", _corrupt_directive(n_max, rng)]
        calls.append(argv)

    sizes = _stratified(n_spectrum, n_max_top, rng)
    hbars = _balanced(HBARS, n_spectrum, rng)
    formats = _balanced(FORMATS, n_spectrum, rng)
    for n_max, hbar, fmt in zip(sizes, hbars, formats):
        calls.append(["spectrum", "--n", str(rng.randint(0, n_max)),
                      "--nmax", str(n_max), "--hbar", repr(hbar),
                      "--tol", f"{scaled_tol(n_max, hbar):.3e}", "--format", fmt])

    rng.shuffle(calls)
    return calls


def verify_n500(seed: int) -> list[list[str]]:
    # The documented cap and its documented tolerance; the seed changes
    # nothing here, because every other n_max or hbar is a different workload.
    return [["verify", "--nmax", "500", "--tol", "1e-6", "--format", "json"]]


def classical_200k(seed: int, count: int = 200_000) -> list[list[str]]:
    return [["classical", "--count", str(count), "--seed", str(seed)]]


def calls_for(workload: str, seed: int) -> list[list[str]]:
    if workload == "verify_n500":
        return verify_n500(seed)
    if workload == "small_mix":
        return small_mix(seed)
    if workload == "classical_200k":
        return classical_200k(seed)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


def determinism_subset(calls: list[list[str]], seed: int, size: int = 16) -> list[int]:
    """Indices of the calls that are issued a second time to compare stdout."""
    rng = random.Random(f"determinism:{seed}")
    return sorted(rng.sample(range(len(calls)), min(size, len(calls))))
