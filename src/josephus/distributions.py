"""Survival-probability distributions: the vector a computation produced."""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class SurvivalDistribution:
    """Probability vector ``probs[n]`` = survival probability of participant ``n``.

    Immutable value object: the float vector is frozen on construction and
    safe to share across threads.  ``exact`` carries the rational vector of
    an oracle result and ``counts`` the histogram of a Monte Carlo run; the
    rule, N and seed are the caller's own inputs and are not repeated here.
    """

    probs: np.ndarray
    counts: np.ndarray | None = field(default=None, repr=False)
    exact: tuple[Fraction, ...] | None = field(default=None, repr=False)

    def __post_init__(self) -> None:
        probs = np.array(self.probs, dtype=np.float64)
        probs.setflags(write=False)
        object.__setattr__(self, "probs", probs)
        if self.counts is not None:
            counts = np.array(self.counts, dtype=np.int64)
            counts.setflags(write=False)
            object.__setattr__(self, "counts", counts)

    @property
    def n_participants(self) -> int:
        return len(self.probs)

    @property
    def positions(self) -> np.ndarray:
        """Normalized positions n/N the distribution lives on."""
        return np.arange(self.n_participants) / self.n_participants

    def total_variation(self, other: "SurvivalDistribution") -> float:
        if self.n_participants != other.n_participants:
            raise DomainError("total variation requires equal participant counts")
        return 0.5 * float(np.abs(self.probs - other.probs).sum())
