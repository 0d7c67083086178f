"""The classical (fully deterministic) elimination game.

Three independent computations of the survivor's one-based position b_N
are provided -- the halving recurrence, the closed form ``2l + 1`` with
``N = 2^m + l``, and a cyclic rotation of the binary digits -- together
with the exact power-series expansion whose coefficients reproduce the
survivor sequence.  Each scalar function returns b_N as an ``int``, the
value ``survivor_sequence`` holds at index N-1; the zero-based label of
the simulation modules is b_N - 1.
"""

from __future__ import annotations

from itertools import accumulate

import numpy as np

from .errors import DomainError

__all__ = [
    "survivor_recurrence",
    "survivor_closed_form",
    "survivor_binary_rotation",
    "survivor_sequence",
    "generating_series_coefficients",
]


def _require_positive(n: int) -> None:
    if n < 1:
        raise DomainError(f"participant count must be >= 1, got {n}")


def survivor_recurrence(n: int) -> int:
    """Survivor via ``b(N) = 2 b(N//2) - (-1)^N`` with ``b(1) = 1``.

    Walks the binary digits of N below the top bit, most significant
    first: the prefixes read so far are the halving chain N//2^k, and each
    digit d applies b <- 2b + 1 (d = 1) or b <- 2b - 1 (d = 0).
    """
    _require_positive(n)
    b = 1
    for digit in bin(n)[3:]:
        b = 2 * b + (1 if digit == "1" else -1)
    return b


def survivor_closed_form(n: int) -> int:
    """Survivor via ``b = 2l + 1`` where ``N = 2^m + l`` with ``0 <= l < 2^m``."""
    _require_positive(n)
    high = 1 << (n.bit_length() - 1)
    return 2 * (n - high) + 1


def survivor_binary_rotation(n: int) -> int:
    """Survivor via a one-position left cyclic rotation of N's binary digits."""
    _require_positive(n)
    digits = bin(n)[2:]
    return int(digits[1:] + digits[0], 2)


def survivor_sequence(n_max: int) -> np.ndarray:
    """One-based survivors for all N in 1..n_max as an int64 array.

    Fills dyadic blocks [2^k, 2^(k+1)) bottom-up from the halving
    recurrence, one vectorised step per block.  The scalar
    ``survivor_closed_form`` and ``survivor_binary_rotation`` are its
    independent references.
    """
    _require_positive(n_max)
    b = np.zeros(n_max + 1, dtype=np.int64)
    b[1] = 1
    k = 1
    while 2**k <= n_max:
        idx = np.arange(2**k, min(2 ** (k + 1), n_max + 1), dtype=np.int64)
        b[idx] = 2 * b[idx >> 1] - (1 - 2 * (idx & 1))
        k += 1
    return b[1:]


def generating_series_coefficients(max_degree: int) -> list[int]:
    """Coefficients of x^0..x^max_degree of the survivor generating series.

    Expands ``1 + (1/(1-x)) * ((3x-1)/(1-x) - sum_{k>=1} 2^k x^(2^k))`` as a
    formal power series in exact integer arithmetic.  Multiplying by
    1/(1-x) takes the running sums of the coefficients, so the expansion
    is two running sums.  The coefficient of x^N equals the one-based
    survivor position for every N >= 1.
    """
    if max_degree < 1:
        raise DomainError(f"max_degree must be >= 1, got {max_degree}")
    d = max_degree
    inner = list(accumulate([-1, 3] + [0] * (d - 1)))  # (3x-1)/(1-x)
    k = 1
    while 2**k <= d:
        inner[2**k] -= 2**k
        k += 1
    coeffs = list(accumulate(inner))
    coeffs[0] += 1
    return coeffs
