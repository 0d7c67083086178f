"""Elimination rule descriptions.

Three rules act on a circle of participants labelled counterclockwise:

* ``R1`` -- the holder keeps the previous stabbing direction with
  probability ``p`` and flips it otherwise; the knife follows the stab.
  The very first stab goes right with probability ``p``.
* ``R2`` -- memoryless: each holder stabs right with probability ``p``,
  left otherwise, and the knife follows the victim's side.
* ``R3`` -- two independent coins per step: the victim's side is right
  with probability ``p``; the knife then passes to the holder's right
  neighbour with probability ``q``, to his left neighbour otherwise.

The classical game, where every knife holder stabs his right neighbour
and passes the knife rightwards, is *defined* as R1 at ``p = 1``
(``RuleSpec.deterministic()``); tests check it against the closed forms
of ``deterministic``.  No other identification between rules is assumed;
coincidences (for instance R1 and R2 at ``p = 1/2``) are established by
tests only.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError


class RuleKind(enum.Enum):
    R1 = "r1"
    R2 = "r2"
    R3 = "r3"


def _check_prob(value, name: str) -> None:
    if not 0 <= value <= 1:
        raise DomainError(f"{name} must lie in [0, 1], got {value!r}")
    if math.copysign(1.0, value) < 0:
        raise DomainError(f"{name} is -0.0, which outputs and file names print as -0; pass 0")


@dataclass(frozen=True)
class RuleSpec:
    """Which elimination process to run, with its Bernoulli parameters.

    ``p`` and ``q`` may be floats or exact ``Fraction``s; exact values are
    preserved so the enumeration oracle can read them exactly.
    """

    kind: RuleKind
    p: float | Fraction | None = None
    q: float | Fraction | None = None

    def __post_init__(self) -> None:
        if self.p is None:
            raise DomainError(f"rule {self.kind.value} requires parameter p")
        _check_prob(self.p, "p")
        if self.kind is RuleKind.R3:
            if self.q is None:
                raise DomainError("rule r3 requires parameter q")
            _check_prob(self.q, "q")
        elif self.q is not None:
            raise DomainError(f"rule {self.kind.value} carries no parameter q")

    @staticmethod
    def deterministic() -> "RuleSpec":
        """The classical game: R1 at ``p = 1``."""
        return RuleSpec(RuleKind.R1, p=1)

    @staticmethod
    def r1(p) -> "RuleSpec":
        return RuleSpec(RuleKind.R1, p=p)

    @staticmethod
    def r2(p) -> "RuleSpec":
        return RuleSpec(RuleKind.R2, p=p)

    @staticmethod
    def r3(p, q) -> "RuleSpec":
        return RuleSpec(RuleKind.R3, p=p, q=q)
