"""Survival-probability distributions and their provenance."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError
from .rules import RuleSpec


class Method(enum.Enum):
    EXACT_DP = "exact-dp"
    EXACT_ORACLE = "exact-oracle"
    MONTE_CARLO = "monte-carlo"


@dataclass(frozen=True)
class SurvivalDistribution:
    """Probability vector ``probs[n]`` = survival probability of participant ``n``.

    Immutable value object: the float vector is frozen on construction and
    safe to share across threads.  ``exact`` carries the rational vector for
    oracle results; ``counts``/``mc_samples``/``seed`` record Monte Carlo
    provenance.
    """

    rule: RuleSpec
    n_participants: int
    probs: np.ndarray
    method: Method
    mc_samples: int | None = None
    counts: np.ndarray | None = field(default=None, repr=False)
    exact: tuple[Fraction, ...] | None = field(default=None, repr=False)
    seed: int | None = None

    def __post_init__(self) -> None:
        probs = np.asarray(self.probs, dtype=np.float64)
        if probs.shape != (self.n_participants,):
            raise DomainError(
                f"probs must have length {self.n_participants}, got shape {probs.shape}"
            )
        probs = probs.copy()
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if self.counts is not None:
            counts = np.asarray(self.counts, dtype=np.int64).copy()
            counts.setflags(write=False)
            object.__setattr__(self, "counts", counts)

    @property
    def positions(self) -> np.ndarray:
        """Normalized positions n/N the distribution lives on."""
        return np.arange(self.n_participants) / self.n_participants

    def total_variation(self, other: "SurvivalDistribution") -> float:
        if self.n_participants != other.n_participants:
            raise DomainError("total variation requires equal participant counts")
        return 0.5 * float(np.abs(self.probs - other.probs).sum())
