"""Run one workload in a fresh, single-threaded process and write its result.

Started by ``run.py``, never by hand.  It imports ``josephus.cli`` (timed),
runs passes over the workload's operations through ``josephus.cli.main``
until ``--seconds`` have passed, checks the outputs of the last pass, and
writes one JSON result file.  With ``--trace 1`` it alternates untraced and
traced passes and reports per-layer metrics instead.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import platform
import resource
import shutil
import statistics
import sys
import traceback
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import checks
import tracer as tr
import workloads

RULE_GENERATORS = (("r1", "r1_rows"), ("r2", "r2_rows"), ("r3", "r3_rows"),
                   ("r1u", "r1_unbiased_rows"))


@dataclass
class OpRun:
    id: str
    code: int
    wall_s: float
    stderr: str


def run_op(main, op: workloads.Op, out_dir: Path) -> OpRun:
    """One CLI invocation; a crash counts as a failed operation, not a failed benchmark."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = perf_counter()
        try:
            code = main(["--out", str(out_dir), *op.argv])
        except Exception:  # a crash of the program is this op's failure
            code = -1
            traceback.print_exc(file=err)
        wall = perf_counter() - t0
    return OpRun(op.id, code, wall, err.getvalue())


def run_pass(main, ops, pass_dir: Path) -> tuple[float, list[OpRun]]:
    t0 = perf_counter()
    runs = [run_op(main, op, pass_dir / op.id) for op in ops]
    return perf_counter() - t0, runs


def _ns(seconds: float, work: int) -> float:
    return 1e9 * seconds / work if work else 0.0


def _rate(work: int, seconds: float) -> float:
    return work / seconds if seconds > 0 else 0.0


def layer_metrics(t: tr.Tracer, replay: dict) -> dict:
    """Per-layer metrics of one traced pass.

    The RNG time inside the sampler and the CLT harness comes from the
    replay: it is taken out of those layers' self time and reported as the
    prng layer, so the layers still add up to the traced wall time.
    """
    by_layer, by_name, c = t.summary()
    zero = [0, 0, 0.0, 0.0]
    samp, ana = replay.get("sampler", zero), replay.get("analysis", zero)
    m = {
        "dp.busy_s": by_layer["dp"],
        "dp.rows": c["dp.rows"],
        "dp.cells": c["dp.cells"],
    }
    for rule, fn in RULE_GENERATORS:
        m[f"dp.{rule}.ns_per_cell"] = _ns(by_name[f"dp.{fn}"], c[f"dp.{rule}.cells"])
    sampler_s = by_layer["sampler"] - samp[2] - samp[3]
    m.update({
        "sampler.busy_s": sampler_s,
        "sampler.sample_steps": c["sampler.sample_steps"],
        "sampler.ns_per_sample_step": _ns(sampler_s, c["sampler.sample_steps"]),
    })
    gen_s = samp[3] + ana[3]
    m.update({
        "prng.streams": c["prng.streams"],
        "prng.key_setup_s": samp[2] + ana[2],
        "prng.uniforms": samp[1] + ana[1],
        "prng.gen_s": gen_s,
        "prng.uniforms_per_s": _rate(samp[1] + ana[1], gen_s),
    })
    clt_s = by_name["analysis.clt_experiment"] - ana[2] - ana[3]
    m.update({
        "analysis.busy_s": by_layer["analysis"] - ana[2] - ana[3],
        "analysis.rows_reduced": c["analysis.rows_reduced"],
        "analysis.trial_draws": c["analysis.trial_draws"],
        "analysis.ns_per_trial_draw": _ns(clt_s, c["analysis.trial_draws"]),
        "oracle.busy_s": by_layer["oracle"],
        "oracle.step_calls": c["oracle.step_calls"],
        "oracle.steps_per_s": _rate(c["oracle.step_calls"], by_layer["oracle"]),
        "io.busy_s": by_layer["io"],
        "io.files": c["io.files"],
        "io.bytes": c["io.bytes"],
        "io.mb_per_s": _rate(c["io.bytes"], by_layer["io"]) / 1e6,
        "deterministic.busy_s": by_layer["deterministic"],
    })
    traced_wall = sum(span[4] - span[3] for span in t.spans if span[2] < 0)
    layers = sum(m[f"{layer}.busy_s"] for layer in
                 ("dp", "sampler", "analysis", "oracle", "io", "deterministic"))
    m["cli.self_s"] = traced_wall - layers - m["prng.key_setup_s"] - m["prng.gen_s"]
    return m


def _median_dicts(dicts: list[dict]) -> dict:
    return {k: statistics.median(d[k] for d in dicts) for k in dicts[0]}


class Runner:
    def __init__(self, args):
        self.args = args
        self.tmp = Path(args.tmp)
        self.ops = workloads.ops(args.workload, args.seed, args.scale)
        self.passes: list[tuple[float, list[OpRun]]] = []   # untraced
        self.traced: list[tuple[float, list[OpRun], tr.Tracer]] = []
        self.last_dir: Path | None = None

    def _fresh_dir(self, name: str) -> Path:
        if self.last_dir is not None:
            shutil.rmtree(self.last_dir, ignore_errors=True)
        self.last_dir = self.tmp / name
        return self.last_dir

    def run(self, cli, modules: dict) -> None:
        """Repeat passes until --seconds have passed; always run at least one."""
        start = perf_counter()
        k = 0
        while True:
            self.passes.append(run_pass(cli.main, self.ops, self._fresh_dir(f"pass{k}")))
            if self.args.trace:
                t = tr.Tracer()
                t.install(modules)
                try:
                    wall, runs = run_pass(t.wrap("cli", "cli.main", cli.main), self.ops,
                                          self._fresh_dir(f"traced{k}"))
                finally:
                    t.restore()
                self.traced.append((wall, runs, t))
            k += 1
            if perf_counter() - start >= self.args.seconds:
                break

    def all_runs(self):
        for _, runs in self.passes:
            yield from runs
        for _, runs, _ in self.traced:
            yield from runs


def load_digests(path: Path, scale: str, fingerprint: dict) -> dict:
    """The recorded digests for ``scale``; platform-bound ones only on their platform."""
    table = json.loads(path.read_text())[scale]
    same = table["platform"] == fingerprint
    return {"portable": table["portable"], "platform_bound": table["platform_bound"] if same else None}


def platform_fingerprint() -> dict:
    """What the bytes of reduction- and log-based outputs depend on."""
    import numpy as np
    import scipy

    cfg = np.show_config(mode="dicts")
    blas = cfg.get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "simd": cfg.get("SIMD Extensions", {}),
        "blas": [blas.get(k) for k in ("name", "version", "openblas configuration")],
    }


def check_runs(runner: Runner, checker: checks.Checker) -> tuple[dict, int]:
    """(failure messages by op id, failed invocations).

    Every invocation with a non-zero exit fails; the last pass's outputs
    then go through the checks, and an op whose outputs fail them counts
    once more.
    """
    failures: dict[str, list[str]] = {}
    failed = 0
    for r in runner.all_runs():
        if r.code != 0:
            failed += 1
            failures.setdefault(r.id, []).append(f"exit code {r.code}: {r.stderr.strip()[-300:]}")
    last_runs = runner.traced[-1][1] if runner.traced else runner.passes[-1][1]
    for op, r in zip(runner.ops, last_runs):
        problems = checker.check(op, runner.last_dir / op.id) if r.code == 0 else []
        if problems:
            failed += 1
            failures.setdefault(op.id, []).extend(problems)
    return failures, failed


def output_digests(runner: Runner, fingerprint: dict) -> dict:
    table = {"platform": fingerprint, "portable": {}, "platform_bound": {}}
    for op in runner.ops:
        kind = "portable" if op.portable else "platform_bound"
        for path in checks.data_files(runner.last_dir / op.id):
            table[kind][f"{op.id}/{path.name}"] = checks.sha256(path)
    return table


def per_layer(runner: Runner, prng) -> tuple[dict, dict]:
    """(per-layer metrics, RNG replay) of the traced passes; medians over passes."""
    replay = tr.replay_rng(prng, runner.traced[-1][2].rng_calls) if prng is not None else {}
    layer = _median_dicts([layer_metrics(t, replay) for _, _, t in runner.traced])
    layer["trace.overhead_s"] = (statistics.median(w for w, _, _ in runner.traced)
                                 - statistics.median(w for w, _ in runner.passes))
    # untraced wall time of every op; ops of other workloads read 0
    layer.update({f"cmd.{op_id}.wall_s": 0.0 for op_id in workloads.all_op_ids()})
    for i, op in enumerate(runner.ops):
        layer[f"cmd.{op.id}.wall_s"] = statistics.median(runs[i].wall_s for _, runs in runner.passes)
    return layer, replay


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--root", required=True)
    ap.add_argument("--tmp", required=True)
    ap.add_argument("--result", required=True)
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=workloads.SCALES, required=True)
    ap.add_argument("--record", action="store_true",
                    help="Run one pass and return output digests instead of checking them.")
    args = ap.parse_args()

    t0 = perf_counter()
    import josephus.cli as cli
    import_s = perf_counter() - t0

    import josephus
    src = (Path(args.root) / "src").resolve()
    if src not in Path(josephus.__file__).resolve().parents:
        print(f"josephus was imported from {josephus.__file__}, not from {src}", file=sys.stderr)
        return 2
    modules = {name: getattr(josephus, name, None)
               for name in ("dp", "simulate", "prng", "analysis", "io", "deterministic")}

    if args.record:
        args.seconds = 0.0
    runner = Runner(args)
    runner.run(cli, modules)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    fingerprint = platform_fingerprint()
    digests = None if args.record else load_digests(
        Path(__file__).with_name("digests.json"), args.scale, fingerprint)
    checker = checks.Checker(args.seed, digests,
                             lambda op, out: run_op(cli.main, op, out).code,
                             runner.tmp / "reference")
    failures, failed = check_runs(runner, checker)
    result = {
        "attempted": sum(1 for _ in runner.all_runs()),
        "failed": failed,
        "failures": failures,
        "passes": len(runner.passes),
        "import_s": import_s,
        "peak_rss_mb": peak_rss_mb,
        "pass_wall_s": [w for w, _ in runner.passes],
        "provenance": {
            "python": sys.version.split()[0],
            "numpy": fingerprint["numpy"],
            "scipy": fingerprint["scipy"],
            "josephus": getattr(josephus, "__version__", "unknown"),
            "platform_bound_digests_checked": bool(digests and digests["platform_bound"] is not None),
        },
    }
    if args.record:
        result["digests"] = output_digests(runner, fingerprint)
    if args.trace:
        result["per_layer"], result["replay"] = per_layer(runner, modules["prng"])
        result["spans"] = runner.traced[-1][2].spans
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
