"""Faithful step-by-step simulation of the elimination processes.

Two views of one set of process semantics:

* ``step`` -- readable forward transition on an immutable ring, used by
  the exhaustive oracle, by ``run_path`` and by tests as the reference;
* ``sample_survivor`` and ``empirical_distribution`` -- seeded sampling
  through one compiled kernel (``_sampler.c``) that simulates no ring: per
  sample it draws the uniforms into one buffer and walks the rounds
  backwards, relabeling the survivor with the inverse of each round's
  relabeling map (the maps of the ``dp`` recursions).

Sample ``s`` of seed ``S`` reads the uniforms of ``prng.stream(S, s)``
(SplitMix64 key, numpy's Philox4x64-10), which the kernel reproduces bit
for bit in C.  The kernel also runs ``analysis.clt_experiment``'s trial
draws.  Only this module knows its ABI: the typed entries ``_uniforms``,
``_walk``, ``_sample_counts``, ``_inverse_cdf`` and ``_clt_draws`` are the
only callers of ``_kernel()``, which compiles it with gcc on first use and
caches it in ``__pycache__`` under the sha256 of its source and flags;
without gcc, sampling and the CLT draws raise ``KernelBuildError``.

The coin rule lives only in the kernel's walk: a coin is ``u < p`` (and
``u < q`` for r3's knife coin), ``True`` being the probability-``p`` branch
that ``step`` takes.  A batch run reproduces single runs bit for bit, and
tests check the walk, fed explicit uniforms through ``_walk``, against
``run_path`` path by path.  When every coin is certain (probability 0 or
1, as in the classical game) the kernel draws no uniform and every sample
takes the one possible path.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import shutil
import tempfile
import threading
from dataclasses import dataclass, replace
from fractions import Fraction
from pathlib import Path

import numpy as np

from .distributions import SurvivalDistribution
from .errors import DomainError, EnumerationCapError, InvalidStateError, KernelBuildError
from .prng import _MASK64
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


# --- seeded sampling: the compiled kernel -----------------------------------

_SOURCE = Path(__file__).with_name("_sampler.c")
_CACHE_DIR = _SOURCE.parent / "__pycache__"
# exact float semantics: no fused multiply-add, no -ffast-math, no -march=native
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_KIND_CODES = {RuleKind.R1: 1, RuleKind.R2: 2, RuleKind.R3: 3}
_kernel_lock = threading.Lock()
_kernel_lib = None


def _library_path() -> Path:
    """Cached shared library for the current source and flags."""
    key = hashlib.sha256(_SOURCE.read_bytes() + " ".join(_CFLAGS).encode()).hexdigest()
    return _CACHE_DIR / f"_sampler-{key[:16]}.so"


def _build(path: Path) -> None:
    """Compile ``_sampler.c`` to ``path`` through a temporary file and ``os.replace``."""
    import subprocess  # only a build needs it; importing josephus stays as light as before

    gcc = shutil.which("gcc")
    if gcc is None:
        raise KernelBuildError(
            "the Monte Carlo sampler and the clt harness compile their C kernel with gcc, "
            "and no gcc is on PATH"
        )
    try:
        path.parent.mkdir(exist_ok=True)
        fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.stem, suffix=".tmp")
        os.close(fd)
        try:
            proc = subprocess.run([gcc, *_CFLAGS, "-o", tmp, str(_SOURCE)],
                                  capture_output=True, text=True)
            if proc.returncode != 0:
                raise KernelBuildError(f"gcc could not build {_SOURCE.name}:\n{proc.stderr}")
            os.replace(tmp, path)
        finally:
            Path(tmp).unlink(missing_ok=True)
    except OSError as exc:  # say, a read-only install: the cache directory is not writable
        raise KernelBuildError(f"cannot build the C kernel into {path.parent}: {exc}") from exc


def _kernel():
    """The kernel of the sampler and CLT draws, compiled on first use and loaded by ``ctypes``."""
    global _kernel_lib
    with _kernel_lock:
        if _kernel_lib is None:
            path = _library_path()
            if not path.exists():
                _build(path)
            lib = ctypes.CDLL(str(path))
            f64, i64 = (np.ctypeslib.ndpointer(t, ndim=1, flags="C_CONTIGUOUS")
                        for t in (np.float64, np.int64))
            c_int, c_i64, c_u64, c_f64 = (ctypes.c_int, ctypes.c_int64, ctypes.c_uint64,
                                          ctypes.c_double)
            rule = [c_int, c_i64, c_f64, c_f64]  # kind, n, p, q
            lib.josephus_uniforms.argtypes = [c_u64, c_u64, c_i64, f64]
            lib.josephus_uniforms.restype = None
            lib.josephus_walk.argtypes = [*rule, f64]
            lib.josephus_walk.restype = c_i64
            lib.josephus_sample.argtypes = [*rule, c_u64, c_u64, c_i64, f64, i64]
            lib.josephus_sample.restype = None
            lib.josephus_inverse_cdf.argtypes = [c_i64, f64, c_i64, f64, i64, i64]
            lib.josephus_inverse_cdf.restype = None
            lib.josephus_clt_draws.argtypes = [c_u64, c_i64, f64, c_f64, c_i64, i64, f64, f64]
            lib.josephus_clt_draws.restype = None
            _kernel_lib = lib
    return _kernel_lib


# --- the typed entries: each sizes what C fills and checks what C reads -------
# Seeds and stream indices go in mod 2^64 (``& _MASK64``), as ``splitmix64``
# takes them: -1 and 2^64 - 1 are one seed, and none is left to ctypes.


def _guide(n: int) -> np.ndarray:
    """Scratch for the guide table of an n-entry CDF: K entries, K the least power of 2 >= n."""
    return np.empty(1 << max(n - 1, 0).bit_length(), dtype=np.int64)


def _rule_args(rule: RuleSpec, n: int) -> list:
    """The kernel's ``kind, n, p, q``; q is 0 for the one-coin rules."""
    q = rule.q_float if rule.kind is RuleKind.R3 else 0.0
    return [_KIND_CODES[rule.kind], n, rule.p_float, q]


def _stream_length(rule: RuleSpec, n: int) -> int:
    """Uniforms one sample reads: one per step, a (victim, knife) pair for r3."""
    return (2 if rule.kind is RuleKind.R3 else 1) * (n - 1)


def _uniforms(seed: int, index: int, k: int) -> np.ndarray:
    """The first ``k`` uniforms of stream ``index`` of ``seed``, as the kernel draws them."""
    u = np.empty(k)
    _kernel().josephus_uniforms(int(seed) & _MASK64, index & _MASK64, k, u)
    return u


def _walk(rule: RuleSpec, n: int, u) -> int:
    """The survivor the kernel's walk reads from one sample's uniforms ``u``.

    ``u`` holds N-1 uniforms (2(N-1) for r3, victim and knife alternating),
    which the walk reads in reverse, from the knife holder of the last
    two-person round (the winner by ``step``'s two-person convention) back
    to round N.  C reads ``u`` unchecked, so its length is checked here.
    """
    u = np.ascontiguousarray(u, dtype=np.float64)
    if u.shape != (_stream_length(rule, n),):
        raise DomainError(f"a sample of rule {rule.kind.value} at N={n} reads "
                          f"{_stream_length(rule, n)} uniforms, got shape {u.shape}")
    return _kernel().josephus_walk(*_rule_args(rule, n), u)


def _sample_counts(rule: RuleSpec, n: int, seed: int, first: int, count: int) -> np.ndarray:
    """Survivor counts of samples ``first .. first+count-1``, in one kernel call."""
    counts = np.zeros(n, dtype=np.int64)
    _kernel().josephus_sample(*_rule_args(rule, n), int(seed) & _MASK64, first & _MASK64,
                              count, np.empty(_stream_length(rule, n)), counts)
    return counts


def _inverse_cdf(cdf, u) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for a nondecreasing ``cdf``, by the kernel.

    The lookup uses a guide table (Chen & Asau 1974) of K buckets, K a power
    of two: u*K is exact, so bucket floor(u*K) starts at or below the answer
    and the lookup steps forward to it.  C indexes the guide by u*K, so each
    u must lie in [0, 1).
    """
    cdf, u = (np.ascontiguousarray(a, dtype=np.float64) for a in (cdf, u))
    outside = u[~((u >= 0.0) & (u < 1.0))]  # NaN included
    if outside.size:
        raise DomainError(f"a uniform must lie in [0, 1), got {float(outside[0])}")
    draws = np.empty(len(u), dtype=np.int64)
    _kernel().josephus_inverse_cdf(len(cdf), cdf, len(u), u, _guide(len(cdf)), draws)
    return draws


def _clt_draws(seed: int, cdf, mean: float, centered, mid) -> None:
    """One N = ``len(cdf)`` of the CLT ensemble, added to the trial sums in place.

    Trial i clips d, the ``_inverse_cdf`` of uniform i of stream (seed, N),
    to N-1, then adds d/N - mean to ``centered[i]`` and d/N - 0.5 to
    ``mid[i]``, each rounded as numpy's ``+=`` rounds it.
    """
    if mid.shape != centered.shape:
        raise DomainError(f"the trial sums differ in shape: {centered.shape}, {mid.shape}")
    _kernel().josephus_clt_draws(int(seed) & _MASK64, len(cdf), cdf, mean, len(centered),
                                 _guide(len(cdf)), centered, mid)


def sample_survivor(rule: RuleSpec, n: int, seed: int, stream_index: int = 0) -> int:
    """The survivor's label in 0..N-1 for one run from stream ``stream_index`` of ``seed``.

    Identical (rule, N, seed, stream_index) always yields the identical
    survivor; streams follow the SplitMix64/Philox scheme in ``prng``.  This
    is the sampling kernel run on a single sample, so
    ``empirical_distribution`` aggregates exactly these runs over
    ``stream_index = 0 .. samples-1``.
    """
    if n < 2:
        raise DomainError(f"sampling requires N >= 2, got N={n}")
    if stream_index < 0:
        raise DomainError(f"stream index must be nonnegative, got {stream_index}")
    return int(np.argmax(_sample_counts(rule, n, seed, stream_index, 1)))


def empirical_distribution(
    rule: RuleSpec, n: int, samples: int, seed: int
) -> SurvivalDistribution:
    """Aggregate ``samples`` independent seeded runs into a histogram.

    Sample ``s`` consumes the uniform stream of key ``splitmix64(seed, s)``,
    exactly as ``sample_survivor`` would with that derived stream, so the
    result is a pure function of (rule, N, samples, seed).  All samples run
    in one kernel call, which holds one sample's uniforms at a time.
    """
    if samples < 1:
        raise DomainError(f"samples must be >= 1, got {samples}")
    if n < 2:
        raise DomainError(f"sampling requires N >= 2, got N={n}")
    counts = _sample_counts(rule, n, seed, 0, samples)
    return SurvivalDistribution(counts / samples, counts=counts)
