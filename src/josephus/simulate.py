"""Faithful step-by-step simulation of the elimination processes.

Two views of one set of process semantics:

* ``step`` -- readable forward transition on an immutable ring, used by
  the exhaustive oracle, by ``run_path`` and by tests as the reference;
* ``sample_survivor`` and ``empirical_distribution`` -- seeded sampling
  through one compiled kernel (``_sampler.c``) that simulates no ring: per
  sample it draws the uniforms into one buffer and walks the rounds
  backwards, relabeling the survivor with the inverse of each round's
  relabeling map (the maps of the ``dp`` recursions).  A batch of samples
  is split into contiguous chunks, one per CPU in the process's affinity
  mask, that run side by side; counts are integer sums, so they are the
  same for any split.  There is no flag: parallel ``josephus`` processes
  share those CPUs.

Sample ``s`` of seed ``S`` reads the uniforms of numpy's Philox4x64-10
keyed by ``splitmix64(S, s)``, bit for bit as numpy draws them; the kernel
is the package's only copy of that stream, and the tests hold it to a
numpy reference.  The kernel also runs ``analysis.clt_experiment``'s trial
draws and the normal CDF of its Kolmogorov-Smirnov distances, a port of the
Cephes ``ndtr`` that the tests hold to ``scipy.special.ndtr`` bit for bit.
Only this module knows its ABI: the typed entries ``_uniforms``, ``_walk``,
``_sample_counts``, ``_inverse_cdf``, ``_CltSums`` and ``_ndtr`` are the
only callers of ``_kernel()``, which compiles it with gcc on first use and
caches it in ``__pycache__`` under the sha256 of its source and flags;
without gcc, sampling and ``clt`` raise ``KernelBuildError``.
``_CltSums`` sizes the CLT buffers once per experiment, so they need no
check; per N it checks only the DP row, whose CDF C builds itself.

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
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

import numpy as np

from .distributions import SurvivalDistribution
from .errors import DomainError, EnumerationCapError, InvalidStateError, KernelBuildError
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
    return ProcessState(state.rule, alive, knife, new_dir)


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


def _branches(rule: RuleSpec) -> tuple[list[tuple[bool, bool | None, int]], int]:
    """The coin branches of nonzero integer weight, and the total of all weights.

    p = a/b gives weights a and b-a (each times c or d-c for r3's q = c/d),
    read from the exact value of p and q: a float at its binary value.
    """
    a, b = Fraction(rule.p).as_integer_ratio()  # np.int64 has no as_integer_ratio
    victim, knife, d = [(True, a), (False, b - a)], [(None, 1)], 1  # one coin: no knife coin
    if rule.kind is RuleKind.R3:
        c, d = Fraction(rule.q).as_integer_ratio()
        knife = [(True, c), (False, d - c)]
    return [(cv, ck, wv * wk) for cv, wv in victim for ck, wk in knife if wv * wk], b * d


def oracle_distribution(rule: RuleSpec, n: int) -> SurvivalDistribution:
    """Exact distribution by enumerating every coin sequence with integer weights.

    States reached by different coin prefixes are merged on
    (alive ring, knife, direction) with summed weights, which keeps the
    state space far below the raw path count.  A path of N-1 steps weighs
    the product of its branch weights over total^(N-1), so the merge sums
    plain ints and each label's probability is one ``Fraction`` at the end.
    Refuses N above the cap: 16 for the one-coin rules, 12 for the two-coin
    rule.
    """
    cap = ORACLE_CAP_FOUR_BRANCH if rule.kind is RuleKind.R3 else ORACLE_CAP_TWO_BRANCH
    if n > cap:
        raise EnumerationCapError(
            f"exhaustive oracle for rule {rule.kind.value} is capped at N <= {cap}, got N={n}"
        )
    if n < 2:
        raise DomainError(f"oracle requires N >= 2, got N={n}")
    branches, total = _branches(rule)
    start = initial_state(rule, n)
    states: dict[tuple, int] = {(start.alive, start.knife, start.direction): 1}
    for _ in range(n - 1):
        merged: dict[tuple, int] = {}
        for (alive, knife, direction), weight in states.items():
            state = ProcessState(rule, alive, knife, direction)
            for cv, ck, w in branches:
                nxt = step(state, cv, ck)
                key = (nxt.alive, nxt.knife, nxt.direction)
                merged[key] = merged.get(key, 0) + weight * w
        states = merged
    weights = [0] * n
    for (alive, _, _), weight in states.items():
        weights[alive[0]] += weight
    scale = total ** (n - 1)
    if sum(weights) != scale:
        raise InvalidStateError("oracle weights do not sum to one")  # pragma: no cover
    exact = tuple(Fraction(w, scale) for w in weights)
    return SurvivalDistribution([float(x) for x in exact], exact=exact)


# --- seeded sampling: the compiled kernel -----------------------------------

_SOURCE = Path(__file__).with_name("_sampler.c")
_CACHE_DIR = _SOURCE.parent / "__pycache__"
# exact float semantics: no fused multiply-add, no -ffast-math, no -march=native
_CFLAGS = ("-O3", "-ffp-contract=off", "-fPIC", "-shared")
_LDLIBS = ("-lm",)  # after the source, so the linker keeps libm for its exp
_KIND_CODES = {RuleKind.R1: 1, RuleKind.R2: 2, RuleKind.R3: 3}
_MASK64 = (1 << 64) - 1
_kernel_lock = threading.Lock()
_kernel_lib = None


def _library_path() -> Path:
    """Cached shared library for the current source and flags."""
    flags = " ".join(_CFLAGS + _LDLIBS).encode()
    key = hashlib.sha256(_SOURCE.read_bytes() + flags).hexdigest()
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
            proc = subprocess.run([gcc, *_CFLAGS, "-o", tmp, str(_SOURCE), *_LDLIBS],
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
            lib.josephus_ndtr.argtypes = [c_i64, f64, f64]
            lib.josephus_ndtr.restype = None
            ptr = ctypes.c_void_p  # _CltSums allocates its buffers and checks each row itself
            lib.josephus_clt_draws.argtypes = [c_u64, c_i64, ptr, c_f64, c_i64, *[ptr] * 6]
            lib.josephus_clt_draws.restype = None
            _kernel_lib = lib
    return _kernel_lib


# --- the typed entries: each sizes what C fills and checks what C reads -------
# Seeds and stream indices go in mod 2^64 (``& _MASK64``), as the kernel's
# ``splitmix64`` takes them: -1 and 2^64 - 1 are one seed, and none is left to ctypes.


def _guide(n: int) -> np.ndarray:
    """Scratch for the guide table of an n-entry CDF: K entries, K the least power of 2 >= n."""
    return np.empty(1 << max(n - 1, 0).bit_length(), dtype=np.int64)


def _rule_args(rule: RuleSpec, n: int) -> list:
    """The kernel's ``kind, n, p, q``; q is 0 for the one-coin rules."""
    q = float(rule.q) if rule.kind is RuleKind.R3 else 0.0
    return [_KIND_CODES[rule.kind], n, float(rule.p), q]


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


def _cpus() -> int:
    """The CPUs this process may run on: its affinity mask, where the OS keeps one."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this OS (macOS, say)
        return os.cpu_count() or 1


def _sample_counts(rule: RuleSpec, n: int, seed: int, first: int, count: int) -> np.ndarray:
    """Survivor counts of samples ``first .. first+count-1``, split across the CPUs.

    The samples fall into W = min(CPUs, count) contiguous chunks, one kernel
    call each with its own uniforms and its own row of counts.  Chunk 0 runs
    here and the others on threads, since ctypes releases the GIL for the
    call; the rows are then summed, so the counts are the same for any W.
    """
    if not 1 <= count < 1 << 63:  # the int64 counts must hold the total
        raise DomainError(f"samples must lie in [1, 2**63 - 1], got {count}")
    if n < 2:
        raise DomainError(f"sampling requires N >= 2, got N={n}")
    sample, k = _kernel().josephus_sample, _stream_length(rule, n)
    args = [*_rule_args(rule, n), int(seed) & _MASK64]
    w = min(_cpus(), count)
    counts = np.zeros((w, n), dtype=np.int64)
    errors = []

    def chunk(i: int) -> None:
        lo, hi = count * i // w, count * (i + 1) // w
        try:
            sample(*args, (first + lo) & _MASK64, hi - lo, np.empty(k), counts[i])
        except BaseException as exc:  # re-raised by the caller below, after every join
            errors.append(exc)

    threads = [threading.Thread(target=chunk, args=(i,)) for i in range(1, w)]
    for t in threads:
        t.start()
    chunk(0)
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return counts.sum(axis=0)


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


def _ndtr(x) -> np.ndarray:
    """Phi of each entry of the 1-D array ``x``, bit for bit as ``scipy.special.ndtr``.

    The kernel runs the Cephes ``ndtr`` that SciPy runs (Moshier 1989): the
    same coefficients, Horner order and branches, and libm's ``exp``.
    """
    x = np.ascontiguousarray(x, dtype=np.float64)
    out = np.empty_like(x)
    _kernel().josephus_ndtr(len(x), x, out)
    return out


class _CltSums:
    """The two trial sums of one CLT experiment, to which the kernel adds each N's draws.

    Once per experiment it loads the kernel, reduces the seed and sizes
    every buffer C fills from ``l_max`` and ``trials``: the sums ``centered``
    and ``mid``, the CDF scratch ``cdf`` and the guide table, which serve
    every shorter row, and the per-trial uniforms and draws.  C gets them as
    raw pointers; ``add`` checks the row.
    """

    def __init__(self, seed: int, l_max: int, trials: int):
        self._draws = _kernel().josephus_clt_draws
        self._seed = int(seed) & _MASK64
        self._l_max, self._trials = l_max, trials
        self.cdf, self.centered, self.mid = np.empty(l_max), np.zeros(trials), np.zeros(trials)
        # C holds raw pointers, so the entry keeps its buffers alive
        self._buffers = (self.cdf, _guide(l_max), np.empty(trials),
                         np.empty(trials, dtype=np.int64), self.centered, self.mid)
        self._pointers = [a.ctypes.data for a in self._buffers]

    def add(self, row, mean: float) -> None:
        """Add the draws of N = ``len(row)`` from the DP row ``row``.

        C writes ``np.cumsum(row)`` into ``cdf[:N]``.  Trial i clips d, the
        lookup of uniform i of stream (seed, N) in it, to N-1, then adds
        d/N - mean to ``centered[i]`` and d/N - 0.5 to ``mid[i]``, each
        rounded as numpy's ``+=`` rounds it.  C reads N doubles of ``row``,
        so it must be 1-D, float64 and C-contiguous with 1 <= N <= l_max.
        """
        if not (isinstance(row, np.ndarray) and row.dtype == np.float64 and row.ndim == 1
                and row.flags.c_contiguous and 1 <= len(row) <= self._l_max):
            raise DomainError(
                f"a CLT row must be a 1-D C-contiguous float64 array of 1 to {self._l_max} "
                f"entries, got {getattr(row, 'dtype', type(row).__name__)} of shape "
                f"{np.shape(row)}")
        self._draws(self._seed, len(row), row.ctypes.data, mean, self._trials, *self._pointers)


def sample_survivor(rule: RuleSpec, n: int, seed: int, stream_index: int = 0) -> int:
    """The survivor's label in 0..N-1 for one run from stream ``stream_index`` of ``seed``.

    Identical (rule, N, seed, stream_index) always yields the identical
    survivor; streams follow the SplitMix64/Philox scheme of the module
    docstring.  This is the sampling kernel run on a single sample, so
    ``empirical_distribution`` aggregates exactly these runs over
    ``stream_index = 0 .. samples-1``.
    """
    if stream_index < 0:
        raise DomainError(f"stream index must be nonnegative, got {stream_index}")
    return int(np.argmax(_sample_counts(rule, n, seed, stream_index, 1)))


def empirical_distribution(
    rule: RuleSpec, n: int, samples: int, seed: int
) -> SurvivalDistribution:
    """Aggregate ``samples`` independent seeded runs into a histogram.

    Sample ``s`` consumes the uniform stream of key ``splitmix64(seed, s)``,
    exactly as ``sample_survivor`` would with that derived stream, so the
    result is a pure function of (rule, N, samples, seed).  The samples run
    in contiguous chunks, one kernel call per CPU in the process's affinity
    mask, each holding one sample's uniforms at a time; the counts are the
    same for any split.
    """
    counts = _sample_counts(rule, n, seed, 0, samples)
    return SurvivalDistribution(counts / samples, counts=counts)
