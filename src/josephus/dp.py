"""Exact dynamic programming for survival-probability vectors.

Each rule admits one relabeling recursion expressing the round-N vector in
terms of the round-(N-1) vector, implemented once per rule by the
``*_rows`` generators; iterating from the three-person base case costs
O(N^2) time and O(N) working memory.  ``*_rows`` stream the full triangle
row by row for sweep consumers; ``*_distribution`` return only the final
vector.

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


def r2_rows(n_max: int, p: float) -> Iterator[tuple[int, np.ndarray]]:
    """Stream (N, f_N) for the memoryless stab-right-with-probability-p rule.

    The right-stab branch relabels participant j to j-2 except the old
    holder, who becomes -1; the left-stab branch shifts every survivor to
    j+1 mod N-1.  Both branches keep the counterclockwise orientation (this
    rule never mirrors the circle).
    """
    _check_n(n_max)
    _check_prob(p, "p")
    q = 1 - p
    f = np.array([0 * p, q, p], dtype=_row_dtype(p))
    yield 3, f
    for n in range(4, n_max + 1):
        old = f
        f = np.empty(n, dtype=old.dtype)
        f[0] = p * old[n - 2] + q * old[1]
        f[1] = q * old[2]
        f[n - 1] = p * old[n - 3]
        # interior: p f_{N-1}(n-2) + (1-p) f_{N-1}(n+1 mod N-1)
        mid = f[2 : n - 1]
        np.multiply(p, old[0 : n - 3], out=mid)
        mid[: n - 4] += q * old[3 : n - 1]
        mid[n - 4] += q * old[0]
        yield n, f


def r3_rows(n_max: int, p: float, q: float) -> Iterator[tuple[int, np.ndarray]]:
    """Stream (N, h_N) for the two-coin rule (victim side p, knife side q).

    Derived by conditioning on the first step's two independent coins and
    mapping surviving labels into the (N-1)-round frame with the new knife
    holder relabelled 0 and orientation preserved:

    * victim right, pass right: j -> j-2 (old holder -> -1);
    * victim right, pass left:  old holder -> 1, j -> j for j >= 2,
      old N-1 -> 0, i.e. j -> j mod (N-1);
    * victim left,  pass right: j -> j-1 (old holder -> -1 via N-2);
    * victim left,  pass left:  j -> j+1 mod (N-1).

    Validated termwise against the exhaustive-enumeration oracle for all
    N up to the oracle's four-branch cap on a (p, q) grid before being
    trusted at large N.
    """
    _check_n(n_max)
    _check_prob(p, "p")
    _check_prob(q, "q")
    pq, pQ, Pq, PQ = p * q, p * (1 - q), (1 - p) * q, (1 - p) * (1 - q)
    h = np.array([0 * p, 1 - p, p], dtype=_row_dtype(p, q))
    yield 3, h
    for n in range(4, n_max + 1):
        old = h
        m = n - 1
        h = np.empty(n, dtype=old.dtype)
        h[0] = q * old[m - 1] + (1 - q) * old[1]
        h[1] = (1 - p) * (q * old[0] + (1 - q) * old[2])
        h[n - 1] = p * (q * old[m - 2] + (1 - q) * old[0])
        # interior j = 2..N-2: old[j-2], old[j mod N-1], old[j-1], old[j+1 mod N-1]
        mid = h[2 : n - 1]
        np.multiply(pq, old[0 : n - 3], out=mid)
        mid += pQ * old[2 : n - 1]
        mid += Pq * old[1 : n - 2]
        mid[: n - 4] += PQ * old[3 : n - 1]
        mid[n - 4] += PQ * old[0]
        yield n, h


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
