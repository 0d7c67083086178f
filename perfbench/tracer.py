"""Outside-in layer tracer for the josephus package.

The tracer replaces public functions of the package modules with timing
wrappers while a traced pass runs, and puts the originals back after it.
It never imports or patches a private (underscore) name, and wraps a public
name only if the module still has it, so a function removed from the
package drops its metric instead of failing an operation.

* Plain functions get a span: layer, name, parent span, start, end.
* Row generators (``dp.*_rows``) get one span per ``next()``; cells are
  counted from the row length.
* ``simulate.step`` and the ``prng`` stream constructors are counted, not
  spanned.  The RNG time inside the sampler and the CLT harness is
  measured afterwards by ``replay_rng``.

Spans stay in memory; the caller writes them out when the run ends.
"""

from __future__ import annotations

import inspect
import itertools
import os
from collections import Counter, defaultdict
from time import perf_counter

# module -> layer of its spanned functions; simulate is split below
LAYERS = {
    "dp": "dp",
    "analysis": "analysis",
    "io": "io",
    "deterministic": "deterministic",
}
SIMULATE_LAYERS = {
    "empirical_distribution": "sampler",
    "oracle_distribution": "oracle",
}
# Per-value helpers called once per CSV field or JSON value; a span on each
# call would cost more than the work.  Their time stays in the caller.
UNSPANNED = {"io": {"fmt", "json_default"}}
ROW_RULES = {"r1_rows": "r1", "r2_rows": "r2", "r3_rows": "r3", "r1_unbiased_rows": "r1u"}
RNG_CHUNK = 4096


def public_functions(module) -> list[str]:
    """Names of the plain functions a module defines without a leading underscore."""
    return sorted(
        name for name, obj in vars(module).items()
        if not name.startswith("_")
        and inspect.isfunction(obj)
        and obj.__module__ == module.__name__
    )


class Tracer:
    """Span and counter store for one traced pass."""

    def __init__(self):
        self.spans: list[list] = []   # [layer, name, parent index, t0, t1, cells]
        self.counts: Counter = Counter()
        # (layer, seed, first stream index, stream count, uniforms per stream)
        self.rng_calls: list[tuple] = []
        self._stack: list[int] = []
        self._trials: dict[int, int] = {}
        self._steps = itertools.count()
        self._patched: list[tuple] = []

    # --- spans ---------------------------------------------------------

    def _open(self, layer: str, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([layer, name, parent, perf_counter(), None, 0])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][4] = perf_counter()
        self._stack.pop()

    def wrap(self, layer: str, name: str, fn, on_enter=None):
        """``fn`` with a span around every call.

        ``on_enter(span index, arguments)`` sees the call's arguments, bound
        by name with defaults applied, before ``fn`` runs.
        """
        sig = inspect.signature(fn) if on_enter is not None else None

        def traced(*args, **kwargs):
            idx = self._open(layer, name)
            try:
                if sig is not None:
                    bound = sig.bind(*args, **kwargs)
                    bound.apply_defaults()
                    on_enter(idx, bound.arguments)
                return fn(*args, **kwargs)
            finally:
                self._close(idx)
        return traced

    def wrap_rows(self, layer: str, name: str, fn):
        """Generator function ``fn`` whose every ``next()`` is a span; cells = row length.

        The per-row path is kept to a few statements because a short row
        takes only microseconds; counting happens later, in ``summary``.
        """
        spans, stack = self.spans, self._stack

        class TimedRows:
            def __init__(self, gen):
                self._gen = gen

            def __iter__(self):
                return self

            def __next__(self):
                span = [layer, name, stack[-1] if stack else -1, 0.0, 0.0, 0]
                stack.append(len(spans))
                spans.append(span)
                span[3] = perf_counter()
                try:
                    n, row = next(self._gen)
                finally:
                    span[4] = perf_counter()
                    stack.pop()
                span[5] = len(row)
                return n, row

        def traced(*args, **kwargs):
            return TimedRows(fn(*args, **kwargs))
        return traced

    # --- patching ------------------------------------------------------

    def _patch(self, module, name: str, replacement) -> None:
        self._patched.append((module, name, getattr(module, name)))
        setattr(module, name, replacement)

    def install(self, modules: dict) -> None:
        """Wrap the public functions of ``modules`` (short name -> module)."""
        for short, layer in LAYERS.items():
            mod = modules.get(short)
            if mod is None:
                continue
            for name in public_functions(mod):
                if name in UNSPANNED.get(short, ()):
                    continue
                fn = getattr(mod, name)
                label = f"{short}.{name}"
                if inspect.isgeneratorfunction(fn):
                    self._patch(mod, name, self.wrap_rows(layer, label, fn))
                else:
                    hook = self._on_clt if label == "analysis.clt_experiment" else None
                    self._patch(mod, name, self.wrap(layer, label, fn, hook))
            if short == "io" and hasattr(mod, "atomic_write_text"):
                self._count_files(mod)
        self._install_simulate(modules.get("simulate"))
        self._install_prng(modules.get("prng"))

    def _install_simulate(self, sim) -> None:
        if sim is None:
            return
        for name, layer in SIMULATE_LAYERS.items():
            if hasattr(sim, name):
                hook = self._on_sample if name == "empirical_distribution" else None
                self._patch(sim, name, self.wrap(layer, f"simulate.{name}", getattr(sim, name), hook))
        if hasattr(sim, "step"):
            step, tick = sim.step, self._steps.__next__

            def counted_step(*args, **kwargs):
                tick()
                return step(*args, **kwargs)
            self._patch(sim, "step", counted_step)

    def _install_prng(self, prng) -> None:
        if prng is None:
            return
        if hasattr(prng, "stream"):
            stream = prng.stream

            def counted_stream(*args, **kwargs):
                self.counts["prng.streams"] += 1
                return stream(*args, **kwargs)
            self._patch(prng, "stream", counted_stream)
        if hasattr(prng, "stream_keys"):
            stream_keys = prng.stream_keys

            def counted_keys(*args, **kwargs):
                keys = stream_keys(*args, **kwargs)
                self.counts["prng.streams"] += len(keys)
                return keys
            self._patch(prng, "stream_keys", counted_keys)

    def _count_files(self, io_mod) -> None:
        # atomic_write_text is already spanned; count what it wrote
        spanned = io_mod.atomic_write_text

        def counted_write(path, *args, **kwargs):
            spanned(path, *args, **kwargs)
            self.counts["io.files"] += 1
            self.counts["io.bytes"] += os.path.getsize(path)
        self._patch(io_mod, "atomic_write_text", counted_write)

    def restore(self) -> None:
        """Put every original function back, last patch first."""
        while self._patched:
            module, name, original = self._patched.pop()
            setattr(module, name, original)
        self.counts["oracle.step_calls"] = next(self._steps)

    # --- argument hooks (stream contract documented in the README) -----

    def _on_sample(self, idx: int, a: dict) -> None:
        rule, n, samples = a["rule"], a["n"], a["samples"]
        self.counts["sampler.sample_steps"] += samples * (n - 1)
        kind = getattr(rule.kind, "value", rule.kind)
        # sample s reads stream s: one uniform per step, two for r3
        per_stream = 0 if kind == "deterministic" else (2 if kind == "r3" else 1) * (n - 1)
        if per_stream:
            self.rng_calls.append(("sampler", a["seed"], 0, samples, per_stream))

    def _on_clt(self, idx: int, a: dict) -> None:
        self._trials[idx] = a["trials"]
        # the trials for round N come from stream N, for N = 3 .. l_max
        self.rng_calls.append(("analysis", a["seed"], 3, a["l_max"] - 2, a["trials"]))

    # --- reduction -----------------------------------------------------

    def summary(self) -> tuple[dict, dict, Counter]:
        """(self time per layer, self time per span name, counts).

        Self time is a span's duration minus its child spans.  Row counts
        come from the row spans: cells from their length, and rows reduced
        by analysis from their parent span.
        """
        child = [0.0] * len(self.spans)
        for _, _, parent, t0, t1, _ in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        by_layer: dict = defaultdict(float)
        by_name: dict = defaultdict(float)
        counts = Counter(self.counts)
        for i, (layer, name, parent, t0, t1, cells) in enumerate(self.spans):
            own = (t1 - t0) - child[i]
            by_layer[layer] += own
            by_name[name] += own
            if not cells:
                continue
            counts["dp.rows"] += 1
            counts["dp.cells"] += cells
            counts[f"dp.{ROW_RULES.get(name.rpartition('.')[2])}.cells"] += cells
            if parent >= 0 and self.spans[parent][0] == "analysis":
                counts["analysis.rows_reduced"] += 1
                counts["analysis.trial_draws"] += self._trials.get(parent, 0)
        return by_layer, by_name, counts


def replay_rng(prng, rng_calls) -> dict:
    """Time the RNG streams of ``rng_calls`` again through the public ``prng`` API.

    Returns, per calling layer, [streams, uniforms, key setup s, generation s].
    Key setup is ``prng.stream(seed, i)`` (SplitMix64 key plus Philox
    construction); generation is ``.random(k)`` on it.  These are replayed
    numbers, not spans: the traced pass cannot see inside the private
    helpers that build the streams.
    """
    out: dict = defaultdict(lambda: [0, 0, 0.0, 0.0])
    for layer, seed, first, count, per_stream in rng_calls:
        acc = out[layer]
        for start in range(first, first + count, RNG_CHUNK):
            stop = min(start + RNG_CHUNK, first + count)
            t0 = perf_counter()
            gens = [prng.stream(seed, i) for i in range(start, stop)]
            t1 = perf_counter()
            for g in gens:
                g.random(per_stream)
            t2 = perf_counter()
            acc[0] += stop - start
            acc[1] += (stop - start) * per_stream
            acc[2] += t1 - t0
            acc[3] += t2 - t1
    return dict(out)
