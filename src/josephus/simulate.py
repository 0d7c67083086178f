"""Faithful step-by-step simulation of the elimination processes.

Two views of one set of process semantics:

* ``step`` -- readable forward transition on an immutable ring, used by
  the exhaustive oracle, by ``run_path`` and by tests as the reference;
* ``sample_survivor`` and ``empirical_distribution`` -- seeded sampling
  through one vectorised engine that simulates no ring: it draws each
  sample's coins, then walks the rounds backwards from the last two
  participants, relabeling the survivor with the inverse of each round's
  relabeling map (the maps of the ``dp`` recursions).  Samples are
  processed in chunks of step-major coin rows, (N-1) x chunk booleans.

A single run is the engine applied to one sample, so a batch run
reproduces single runs bit for bit; tests assert this and check the engine
against ``run_path`` path by path.  Coins are booleans: ``True`` is the
probability-``p`` branch (and the probability-``q`` branch for the knife
coin of the two-coin rule).  When every coin is certain (probability 0 or
1, as in the classical game, r1 at ``p = 1``) no uniform is drawn and every
sample takes the one possible path.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

import numpy as np

from . import prng
from .distributions import SurvivalDistribution
from .errors import DomainError, EnumerationCapError, InvalidStateError
from .rules import RuleKind, RuleSpec

__all__ = [
    "ProcessState",
    "initial_state",
    "step",
    "run_path",
    "oracle_distribution",
    "sample_survivor",
    "empirical_distribution",
    "ORACLE_CAP_TWO_BRANCH",
    "ORACLE_CAP_FOUR_BRANCH",
]

ORACLE_CAP_TWO_BRANCH = 16
ORACLE_CAP_FOUR_BRANCH = 12

RIGHT = 1
LEFT = -1


@dataclass(frozen=True)
class ProcessState:
    """Live state of one elimination round.

    ``alive`` holds the original labels in counterclockwise order;
    ``direction`` is the previous stabbing direction (+1 right, -1 left),
    meaningful only for the direction-persistence rule and initialised
    Right (the first stab's p-branch targets participant 1).
    """

    rule: RuleSpec
    alive: tuple[int, ...]
    knife: int
    direction: int = RIGHT

    def __post_init__(self) -> None:
        if self.knife not in self.alive:
            raise InvalidStateError(f"knife holder {self.knife} is not alive")
        if self.direction not in (RIGHT, LEFT):
            raise InvalidStateError(f"direction must be +1 or -1, got {self.direction}")


def initial_state(rule: RuleSpec, n: int) -> ProcessState:
    if n < 1:
        raise DomainError(f"participant count must be >= 1, got {n}")
    return ProcessState(rule, tuple(range(n)), 0, RIGHT)


def _neighbor(alive: tuple[int, ...], label: int, direction: int) -> int:
    return alive[(alive.index(label) + direction) % len(alive)]


def step(
    state: ProcessState, coin_victim: bool, coin_knife: bool | None = None
) -> ProcessState:
    """Apply one elimination step and return the successor state.

    ``coin_victim`` is the p-branch indicator; ``coin_knife`` must be
    supplied exactly for the two-coin rule.  Exactly one participant is
    removed; the knife relocates per the rule text.

    Two-person convention (this function is the single place it lives):
    both neighbours of the knife holder coincide, so the holder eliminates
    the other participant under either coin and keeps the knife.  This is
    what makes the three-person base vectors reproducible.
    """
    if len(state.alive) < 2:
        raise InvalidStateError("cannot step a round with fewer than 2 participants")
    kind = state.rule.kind
    if (coin_knife is not None) != (kind is RuleKind.R3):
        raise DomainError("coin_knife must be supplied iff the rule is r3")

    if kind is RuleKind.R1:
        new_dir = state.direction if coin_victim else -state.direction
        d_victim = d_pass = new_dir
    elif kind is RuleKind.R2:
        d_victim = d_pass = RIGHT if coin_victim else LEFT
        new_dir = state.direction
    else:  # R3
        d_victim = RIGHT if coin_victim else LEFT
        d_pass = RIGHT if coin_knife else LEFT
        new_dir = state.direction

    victim = _neighbor(state.alive, state.knife, d_victim)
    alive = tuple(x for x in state.alive if x != victim)
    # next alive beyond the victim in the passing direction == next alive
    # from the holder once the victim is out (a 1-ring yields the holder)
    knife = _neighbor(alive, state.knife, d_pass)
    return replace(state, alive=alive, knife=knife, direction=new_dir)


def run_path(rule: RuleSpec, n: int, coins) -> int:
    """Run the whole process from an explicit coin sequence; returns the survivor.

    ``coins`` holds one boolean per step for the one-coin rules and one
    (victim, knife) pair per step for the two-coin rule.
    """
    state = initial_state(rule, n)
    for c in coins:
        if rule.kind is RuleKind.R3:
            state = step(state, c[0], c[1])
        else:
            state = step(state, c)
    if len(state.alive) != 1:
        raise InvalidStateError(f"{len(state.alive)} participants left after the path")
    return state.alive[0]


# --- exhaustive enumeration oracle -----------------------------------------


def _branches(rule: RuleSpec) -> list[tuple[bool, bool | None, Fraction]]:
    p = rule.p_exact
    if rule.kind is RuleKind.R3:
        q = rule.q_exact
        return [
            (cv, ck, (p if cv else 1 - p) * (q if ck else 1 - q))
            for cv in (True, False)
            for ck in (True, False)
        ]
    return [(True, None, p), (False, None, 1 - p)]


def oracle_distribution(rule: RuleSpec, n: int) -> SurvivalDistribution:
    """Exact distribution by enumerating every coin sequence with rational weights.

    States reached by different coin prefixes are merged on
    (alive ring, knife, direction) with summed weights, which keeps the
    state space far below the raw path count.  Refuses N above the cap:
    16 for the one-coin rules, 12 for the two-coin rule.
    """
    cap = ORACLE_CAP_FOUR_BRANCH if rule.kind is RuleKind.R3 else ORACLE_CAP_TWO_BRANCH
    if n > cap:
        raise EnumerationCapError(
            f"exhaustive oracle for rule {rule.kind.value} is capped at N <= {cap}, got N={n}"
        )
    if n < 2:
        raise DomainError(f"oracle requires N >= 2, got N={n}")
    branches = [(cv, ck, w) for cv, ck, w in _branches(rule) if w != 0]
    start = initial_state(rule, n)
    states: dict[tuple, Fraction] = {(start.alive, start.knife, start.direction): Fraction(1)}
    for _ in range(n - 1):
        merged: dict[tuple, Fraction] = {}
        for (alive, knife, direction), weight in states.items():
            state = ProcessState(rule, alive, knife, direction)
            for cv, ck, w in branches:
                nxt = step(state, cv, ck)
                key = (nxt.alive, nxt.knife, nxt.direction)
                merged[key] = merged.get(key, Fraction(0)) + weight * w
        states = merged
    exact = [Fraction(0)] * n
    for (alive, _, _), weight in states.items():
        exact[alive[0]] += weight
    if sum(exact) != 1:
        raise InvalidStateError("oracle weights do not sum to one")  # pragma: no cover
    return SurvivalDistribution([float(x) for x in exact], exact=tuple(exact))


# --- seeded sampling --------------------------------------------------------

_CHUNK = 4096  # samples per pass of the sampling engine


def _coin_probs(rule: RuleSpec) -> list[float]:
    """Probabilities of one step's coins: the victim coin, then r3's knife coin."""
    return [rule.p_float, rule.q_float] if rule.kind is RuleKind.R3 else [rule.p_float]


def _certain(rule: RuleSpec) -> bool:
    """Whether every coin of ``rule`` has probability 0 or 1."""
    return set(_coin_probs(rule)) <= {0.0, 1.0}


def _coins(
    rule: RuleSpec, n: int, seed: int, start: int, count: int
) -> tuple[np.ndarray, np.ndarray | None]:
    """Coins of streams ``start .. start+count-1`` as ``(victim, knife)`` rows.

    Each is a step-major (n-1) x count boolean array: row ``t`` holds every
    sample's coin for step ``t``.  ``knife`` is None except for the two-coin
    rule, whose stream alternates victim and knife uniforms.  Certain coins
    draw no stream: a uniform in [0, 1) is below 1 and never below 0.
    """
    threshold = np.tile(_coin_probs(rule), n - 1)
    if _certain(rule):
        coins = np.broadcast_to(threshold == 1, (count, threshold.size))
    else:
        coins = np.empty((count, threshold.size), dtype=bool)
        for i in range(count):
            np.less(prng.stream(seed, start + i).random(threshold.size), threshold,
                    out=coins[i])
    if rule.kind is RuleKind.R3:
        return np.ascontiguousarray(coins[:, 0::2].T), np.ascontiguousarray(coins[:, 1::2].T)
    return np.ascontiguousarray(coins.T), None


def _survivors(
    rule: RuleSpec, n: int, victim: np.ndarray, knife: np.ndarray | None
) -> np.ndarray:
    """Survivor of every sample (column) of step-major coin rows from ``_coins``.

    Backward relabeling, the coin-dependent Josephus recurrence: each round
    relabels the survivors so the new knife holder is 0, and by the
    two-person convention of ``step`` the holder of the last two wins.
    Starting from label 0 in the 2-person round, round M = 3..N maps the
    survivor's label ``s`` in the (M-1)-person frame back to the M-person
    frame, reading coin row N-M, so the coins are used in reverse.  The maps
    are the inverses of the relabelings in the ``dp`` recursions.
    """
    kind = rule.kind
    s = np.zeros(victim.shape[1], dtype=np.intp)
    for m in range(3, n + 1):
        ahead = s + 2  # victim right (and pass right for r3): s -> (s+2) mod M
        ahead[ahead == m] = 0
        if kind is RuleKind.R2:
            other = s - 1  # stab left: s -> (s-1) mod (M-1)
            other[other < 0] = m - 2
        elif kind is RuleKind.R3:
            pass_right = knife[n - m]
            swap = np.where(s < 2, s - 1, s)  # victim right, pass left: 0 -> M-1, 1 -> 0
            swap[swap < 0] = m - 1
            ahead = np.where(pass_right, ahead, swap)
            fwd = s + 1  # victim left, pass right: s -> (s+1) mod (M-1)
            fwd[fwd == m - 1] = 0
            back = s - 1  # victim left, pass left: s -> (s-1) mod (M-1)
            back[back < 0] = m - 2
            other = np.where(pass_right, fwd, back)
        else:
            other = m - 2 - s  # r1 flips direction: the circle is mirrored
        s = np.where(victim[n - m], ahead, other)
    return s


def sample_survivor(rule: RuleSpec, n: int, seed: int, stream_index: int = 0) -> int:
    """The survivor's label in 0..N-1 for one run from stream ``stream_index`` of ``seed``.

    Identical (rule, N, seed, stream_index) always yields the identical
    survivor; streams follow the SplitMix64/Philox scheme in ``prng``.  This
    is the sampling engine run on a single sample, so
    ``empirical_distribution`` aggregates exactly these runs over
    ``stream_index = 0 .. samples-1``.
    """
    if n < 2:
        raise DomainError(f"sampling requires N >= 2, got N={n}")
    return int(_survivors(rule, n, *_coins(rule, n, seed, stream_index, 1))[0])


def empirical_distribution(
    rule: RuleSpec, n: int, samples: int, seed: int
) -> SurvivalDistribution:
    """Aggregate ``samples`` independent seeded runs into a histogram.

    Sample ``s`` consumes the uniform stream of key ``splitmix64(seed, s)``,
    exactly as ``sample_survivor`` would with that derived stream, so the
    result is a pure function of (rule, N, samples, seed) regardless of
    chunking or execution order.  Samples run through the engine
    ``_CHUNK`` = 4096 at a time; a chunk holds (N-1) x 4096 coin booleans
    (twice that for r3), drawn sample-major and copied once to step-major,
    and one label per sample.  When every coin is certain the engine runs
    once and its survivor takes all ``samples``.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if n < 2:
        raise DomainError(f"sampling requires N >= 2, got N={n}")
    counts = np.zeros(n, dtype=np.int64)
    if _certain(rule):  # every sample takes the same path
        counts[_survivors(rule, n, *_coins(rule, n, seed, 0, 1))] = samples
    else:
        for start in range(0, samples, _CHUNK):
            m = min(_CHUNK, samples - start)
            survivors = _survivors(rule, n, *_coins(rule, n, seed, start, m))
            counts += np.bincount(survivors, minlength=n)
    return SurvivalDistribution(counts / samples, counts=counts)
