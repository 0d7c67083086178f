"""Benchmark of the josephus CLI: four workloads, correctness-gated, with layer traces.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dp_exact --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all            # every workload in turn
    python3 perfbench/run.py --workload all --record-digests --scale full

Each workload runs in its own fresh, single-threaded Python process and
drives ``josephus.cli.main`` exactly as a user's command line would.  With
``--trace 0`` the last line of standard output is a JSON object carrying
the end-to-end metrics named in BENCHMARK.json; with ``--trace 1`` it
carries the per-layer metrics, and the raw spans go to
``.perfbench/traces/``.  Outputs are written to a temporary directory under
``.perfbench/`` and removed when the run ends.  The exit code is 0 whenever
a result was printed, also when operations failed; it is non-zero when the
benchmark could not run (for instance without ``src/josephus``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
STATE_DIR = ROOT / ".perfbench"
DIGESTS = HERE / "digests.json"
SETUP_PROBES = 3    # fresh interpreters; with the workload process's own import, setup_s
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
PROBE = (
    "import time\n"
    "t = time.perf_counter()\n"
    "import josephus.cli\n"
    "print(time.perf_counter() - t)\n"
)
# computed by replaying the RNG streams after the traced passes (see tracer.replay_rng)
REPLAYED = {"prng.key_setup_s", "prng.gen_s", "prng.uniforms", "prng.uniforms_per_s"}
# top-level packages whose import cost setup.* splits out; the rest is josephus
IMPORT_GROUPS = {"numpy": "setup.numpy_s", "scipy": "setup.scipy_stats_s", "click": "setup.click_s"}


class BenchError(Exception):
    """The benchmark itself could not run; no result is printed."""


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["TMPDIR"] = str(tmp)
    return env


def parse_importtime(stderr: str) -> dict:
    """Cumulative import seconds of numpy, scipy and click from ``-X importtime``.

    The log lists each module after the modules it imported (post-order),
    indented by depth.  A group's cost is the cumulative time of its
    outermost modules, so scipy importing numpy is not counted twice.
    """
    entries = []
    for line in stderr.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue
        name = parts[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        entries.append((depth, name.strip(), int(parts[1]) * 1e-6))
    out = dict.fromkeys(IMPORT_GROUPS.values(), 0.0)
    stack: list[tuple[int, str | None]] = []
    for depth, name, cumulative in reversed(entries):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        inherited = stack[-1][1] if stack else None
        group = IMPORT_GROUPS.get(name.split(".")[0])
        if group and not inherited:
            out[group] += cumulative
        stack.append((depth, inherited or group))
    return out


def probe_import(env: dict, importtime: bool = False) -> tuple[float, dict]:
    """Import ``josephus.cli`` in a fresh interpreter; (seconds, import split)."""
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []), "-c", PROBE]
    proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True, text=True,
                          timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise BenchError(f"importing josephus.cli failed:\n{proc.stderr[-2000:]}")
    total = float(proc.stdout.split()[-1])
    split = parse_importtime(proc.stderr) if importtime else {}
    if split:
        split["setup.josephus_s"] = total - sum(split.values())
    return total, split


def run_worker(workload: str, args, tmp: Path, env: dict, record: bool = False) -> dict:
    work = tmp / workload
    work.mkdir()
    result = tmp / f"{workload}.result.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--root", str(ROOT), "--tmp", str(work),
           "--result", str(result), "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace), "--scale", args.scale]
    if record:
        cmd.append("--record")
    proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.DEVNULL,
                          timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result.is_file():
        raise BenchError(f"workload process for {workload} exited {proc.returncode}")
    shutil.rmtree(work, ignore_errors=True)
    return json.loads(result.read_text())


def metric_specs(trace: int) -> list[dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload: str, args, tmp: Path) -> tuple[dict, dict]:
    """Run one workload; returns (worker result, metric values by name)."""
    env = child_env(tmp)
    probes = [probe_import(env, importtime=bool(args.trace)) for _ in range(SETUP_PROBES)]
    res = run_worker(workload, args, tmp, env)
    if args.trace:
        values = dict(res["per_layer"])
        for key in probes[0][1]:
            values[key] = statistics.median(split[key] for _, split in probes)
    else:
        values = {
            "wall_s": statistics.median(res["pass_wall_s"]),
            "setup_s": statistics.median([t for t, _ in probes] + [res["import_s"]]),
            "peak_rss_mb": res["peak_rss_mb"],
        }
    return res, values


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD of the checkout if it is a git work tree, read without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            sha, _, name = line.partition(" ")
            if name == ref:
                return sha
    except OSError:
        pass
    return "unknown (not a git checkout)"


def source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "josephus").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(args, workload: str, res: dict) -> dict:
    return {
        "workload": workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "scale": args.scale,
        "commit": git_commit(), "source_sha256": source_digest(),
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(), "platform": platform.platform(),
        **res["provenance"],
        "threads": {var: "1" for var in THREAD_VARS},
        "passes": res["passes"],
    }


def write_trace(workload: str, args, res: dict, prov: dict, metrics: dict) -> Path:
    out = STATE_DIR / "traces" / f"{workload}-seed{args.seed}-{args.scale}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps({
        "provenance": prov,
        "metrics": metrics,
        "replay_note": "prng times are replayed through the public prng API, not spans",
        "replay": res["replay"],
        "span_fields": ["layer", "name", "parent", "t0", "t1", "cells"],
        "spans": res["spans"],
    }))
    return out


def print_workload(workload: str, args, res: dict, metrics: dict) -> None:
    print(f"== {workload}  seed={args.seed} scale={args.scale} trace={args.trace} "
          f"passes={res['passes']}")
    for name, m in metrics.items():
        value = m["value"]
        shown = f"{value:>16d}" if isinstance(value, int) else f"{value:>16.6g}"
        note = "  (RNG replay, not a span)" if name in REPLAYED else ""
        print(f"  {name:<34} {shown} {m['unit']}{note}")
    print(f"  {'ops_failed':<34} {res['failed']:>16d} count")
    print(f"  {'ops_total':<34} {res['attempted']:>16d} count")
    for op_id, problems in res["failures"].items():
        for problem in problems:
            print(f"  FAILED {op_id}: {problem}")


def record_digests(names: list[str], args, tmp: Path) -> int:
    """Write the output digests of one default-seed pass to digests.json."""
    if args.seed != workloads.DEFAULT_SEED:
        raise BenchError(f"digests are recorded at the default seed {workloads.DEFAULT_SEED}")
    table = json.loads(DIGESTS.read_text()) if DIGESTS.is_file() else {}
    entry = table.get(args.scale, {"portable": {}, "platform_bound": {}})
    for workload in names:
        res = run_worker(workload, args, tmp, child_env(tmp), record=True)
        if res["failed"]:
            print(json.dumps(res["failures"], indent=1), file=sys.stderr)
            raise BenchError(f"{workload}: independent checks failed; nothing recorded")
        ids = {op.id for op in workloads.ops(workload, args.seed, args.scale)}
        for kind in ("portable", "platform_bound"):
            entry[kind] = {k: v for k, v in entry[kind].items() if k.split("/")[0] not in ids}
            entry[kind].update(res["digests"][kind])
        entry["platform"] = res["digests"]["platform"]
        print(f"recorded {sum(len(res['digests'][k]) for k in ('portable', 'platform_bound'))} "
              f"digests for {workload} ({args.scale})")
    table[args.scale] = {k: entry[k] for k in ("platform", "portable", "platform_bound")}
    DIGESTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", default="all", choices=(*workloads.WORKLOADS, "all"))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0,
                    help="Minimum measuring time; passes repeat until it is reached.")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=workloads.SCALES, default="full")
    ap.add_argument("--record-digests", action="store_true",
                    help="Record output digests at the default seed instead of measuring.")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "josephus" / "cli.py").is_file():
        print(f"perfbench: no josephus sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print(f"perfbench: no BENCHMARK.json in {ROOT}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    specs = metric_specs(args.trace)
    STATE_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=STATE_DIR))
    try:
        if args.record_digests:
            return record_digests(names, args, tmp)
        summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
        for workload in names:
            res, values = measure(workload, args, tmp)
            missing = [s["name"] for s in specs if s["name"] not in values]
            if missing:
                raise BenchError(f"{workload}: metrics not produced: {missing}")
            metrics = {s["name"]: {"value": values[s["name"]], "unit": s["unit"]} for s in specs}
            prov = provenance(args, workload, res)
            print_workload(workload, args, res, metrics)
            if args.trace:
                print(f"  spans written to {write_trace(workload, args, res, prov, metrics).relative_to(ROOT)}")
            print("provenance " + json.dumps(prov, sort_keys=True))
            summary["attempted"] += res["attempted"]
            summary["failed"] += res["failed"]
            prefix = "" if len(names) == 1 else f"{workload}."
            summary["metrics"].update({prefix + k: v for k, v in metrics.items()})
        summary["correct"] = summary["failed"] == 0
        print(json.dumps(summary))
        return 0
    except (BenchError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
