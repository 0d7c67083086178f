"""Deterministic random streams for reproducible simulation.

Two fixed, named algorithms with published constants:

* SplitMix64 (Steele/Lea/Vigna) derives independent 64-bit stream keys
  from a master seed.  Key ``i`` is the ``i``-th output of the SplitMix64
  sequence started at the master seed, available in closed form, so keys
  can be computed out of order.
* Philox4x64 (counter-based, as shipped by numpy) turns each key into an
  independent uniform stream.  Identical (seed, index) always reproduces
  the identical stream, on every platform.

``stream`` is the reference implementation of this contract.  Both
the Monte Carlo sampler and the CLT harness draw through a C copy of both
algorithms, entered only through ``simulate``'s typed entries (which say
how seeds are reduced); the tests hold it to
``stream(seed, index).random(k)`` bit for bit.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1

# SplitMix64 constants (golden-ratio increment and the two mix multipliers).
GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1E3FD879
_MIX2 = 0x94D049BB133111EB


def splitmix64(seed: int, index: int) -> int:
    """Return the ``index``-th output (0-based) of SplitMix64 seeded at ``seed``."""
    if index < 0:
        raise ValueError("stream index must be nonnegative")
    x = (seed + (index + 1) * GOLDEN_GAMMA) & _MASK64
    x = ((x ^ (x >> 30)) * _MIX1) & _MASK64
    x = ((x ^ (x >> 27)) * _MIX2) & _MASK64
    return x ^ (x >> 31)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Independent uniform generator for stream ``index`` derived from ``seed``."""
    return np.random.Generator(np.random.Philox(key=splitmix64(seed, index)))
