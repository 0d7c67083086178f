"""Exact dynamic programming for survival-probability vectors.

Two relabeling recursions express the round-N vector in terms of the
round-(N-1) vector: r1's, whose flipped branch mirrors the circle, and
the knife kernel ``_rows``, which r2 (the knife follows the victim) and
r3 (the knife tosses its own coin) parameterise.  Iterating from the
three-person base case costs O(N^2) time and O(N) working memory.
``*_rows`` stream the full triangle row by row for sweep consumers;
``*_distribution`` return only the final vector.

Index arguments on the right-hand side of every recursion live in the
(N-1)-person round and are reduced modulo N-1 before lookup; every lookup
is a contiguous slice, plus one wrap-around element for the rules that
shift labels forward.

The kernels pick their row dtype from the probabilities: a ``Fraction``
gives object rows of exact rationals, any other number (int, float, numpy
scalar) gives float64 rows (the main DP; every step is a convex
combination, so error growth is benign).  Rational rows cost big-integer
arithmetic that grows with N, so ``*_distribution_exact`` run them only as
a cross-check for small N that bounds the accumulated float error, and
``*_distribution`` always run in float64.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterator

import numpy as np

from .distributions import SurvivalDistribution
from .errors import DomainError
from .rules import RuleKind, RuleSpec, _check_prob

__all__ = [
    "r1_rows",
    "r2_rows",
    "r3_rows",
    "rows_for_rule",
    "r1_distribution",
    "r2_distribution",
    "r3_distribution",
    "distribution_for_rule",
    "r1_distribution_exact",
    "r2_distribution_exact",
    "r3_distribution_exact",
]

EXACT_DP_CAP = 64


def _check_n(n: int) -> None:
    if n < 3:
        raise DomainError(f"the recursion's base case is N=3; got N={n}")


def _row_dtype(*probs) -> type:
    return object if any(isinstance(x, Fraction) for x in probs) else np.float64


def r1_rows(n_max: int, p: float) -> Iterator[tuple[int, np.ndarray]]:
    """Stream (N, g_N) for N = 3..n_max under the direction-persistence rule.

    Four cases per entry: the old knife holder maps to -1; the two
    neighbours of the holder inherit a single weighted edge value; interior
    participants mix the kept-direction image n-2 with the mirrored image
    N-n-2 (the flipped branch relabels the circle in the opposite
    orientation).
    """
    _check_n(n_max)
    _check_prob(p, "p")
    q = 1 - p
    g = np.array([0 * p, q, p], dtype=_row_dtype(p))
    yield 3, g
    for n in range(4, n_max + 1):
        old = g
        g = np.empty(n, dtype=old.dtype)
        g[0] = old[n - 2]            # g_{N-1}(-1)
        g[1] = q * old[n - 3]        # (1-p) g_{N-1}(-2)
        g[n - 1] = p * old[n - 3]    # p g_{N-1}(-2)
        mid = g[2 : n - 1]
        np.multiply(p, old[0 : n - 3], out=mid)
        mid += q * old[n - 4 :: -1]
        yield n, g


def _rows(n_max: int, p, q_r, q_l, k) -> Iterator[tuple[int, np.ndarray]]:
    """Stream (N, h_N) for the knife-kernel recursion that r2 and r3 share.

    The victim is on the right with probability p; the knife then passes
    right with probability q_r after a right victim, q_l after a left one
    and k overall (only h_N(0) reads k).  Survivors map into the
    (N-1)-round frame, new knife holder at 0, orientation kept:

    * victim right, pass right: j -> j-2 (old holder -> -1);
    * victim right, pass left:  old holder -> 1, j -> j for j >= 2,
      old N-1 -> 0, i.e. j -> j mod (N-1);
    * victim left,  pass right: j -> j-1 (old holder -> -1 via N-2);
    * victim left,  pass left:  j -> j+1 mod (N-1).

    An interior pass after the first is skipped when its weight is 0, and
    so is an edge term of weight 0 (the other term's weight is then 1): it
    would add +0.0 to entries >= +0 and change no bit.
    """
    P, Q_r, Q_l, K = 1 - p, 1 - q_r, 1 - q_l, 1 - k
    pq, pQ, Pq, PQ = p * q_r, p * Q_r, P * q_l, P * Q_l
    h = np.array([0 * p, P, p], dtype=_row_dtype(p, q_r, q_l, k))
    yield 3, h
    for n in range(4, n_max + 1):
        old = h
        h = np.empty(n, dtype=old.dtype)
        h[0] = k * old[n - 2] + K * old[1]
        h[1] = P * (q_l * old[0] + Q_l * old[2] if q_l else old[2])
        h[n - 1] = p * (q_r * old[n - 3] + Q_r * old[0] if Q_r else old[n - 3])
        # interior j = 2..N-2: old[j-2], old[j mod N-1], old[j-1], old[j+1 mod N-1]
        mid = h[2 : n - 1]
        np.multiply(pq, old[0 : n - 3], out=mid)
        if pQ:
            mid += pQ * old[2 : n - 1]
        if Pq:
            mid += Pq * old[1 : n - 2]
        if PQ:
            mid[: n - 4] += PQ * old[3 : n - 1]
            mid[n - 4] += PQ * old[0]
        yield n, h


def r2_rows(n_max: int, p: float) -> Iterator[tuple[int, np.ndarray]]:
    """Stream (N, f_N) for the memoryless stab-right-with-probability-p rule.

    The knife follows the victim: q_r = 1 and q_l = 0, as ints, so that
    ``Fraction`` rows stay exact.
    """
    _check_n(n_max)
    _check_prob(p, "p")
    yield from _rows(n_max, p, 1, 0, p)


def r3_rows(n_max: int, p: float, q: float) -> Iterator[tuple[int, np.ndarray]]:
    """Stream (N, h_N) for the two-coin rule (victim side p, knife side q).

    Validated termwise against the exhaustive-enumeration oracle for all
    N up to the oracle's four-branch cap on a (p, q) grid before being
    trusted at large N.
    """
    _check_n(n_max)
    _check_prob(p, "p")
    _check_prob(q, "q")
    yield from _rows(n_max, p, q, q, q)


def rows_for_rule(rule: RuleSpec, n_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """Stream DP rows for an arbitrary rule."""
    if rule.kind is RuleKind.R1:
        return r1_rows(n_max, float(rule.p))
    if rule.kind is RuleKind.R2:
        return r2_rows(n_max, float(rule.p))
    return r3_rows(n_max, float(rule.p), float(rule.q))


def _last_row(rows: Iterator[tuple[int, np.ndarray]]) -> np.ndarray:
    for _, row in rows:
        pass
    return row


def r1_distribution(n: int, p: float) -> SurvivalDistribution:
    """Survival distribution under R1 via the four-case recursion, in float64."""
    return distribution_for_rule(RuleSpec.r1(p), n)


def r2_distribution(n: int, p: float) -> SurvivalDistribution:
    return distribution_for_rule(RuleSpec.r2(p), n)


def r3_distribution(n: int, p: float, q: float) -> SurvivalDistribution:
    return distribution_for_rule(RuleSpec.r3(p, q), n)


def distribution_for_rule(rule: RuleSpec, n: int) -> SurvivalDistribution:
    return SurvivalDistribution(_last_row(rows_for_rule(rule, n)))


# --- exact-rational variants (cross-check for the float DP) ---------------


def _exact_row(rows, n: int, *probs) -> list[Fraction]:
    """The last row of ``rows(n, *probs)`` in rationals, for N up to ``EXACT_DP_CAP``."""
    if n > EXACT_DP_CAP:
        raise DomainError(f"rational DP is provided for N <= {EXACT_DP_CAP}, got N={n}")
    return list(_last_row(rows(n, *map(Fraction, probs))))


def r1_distribution_exact(n: int, p: Fraction) -> list[Fraction]:
    return _exact_row(r1_rows, n, p)


def r2_distribution_exact(n: int, p: Fraction) -> list[Fraction]:
    return _exact_row(r2_rows, n, p)


def r3_distribution_exact(n: int, p: Fraction, q: Fraction) -> list[Fraction]:
    return _exact_row(r3_rows, n, p, q)
