"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest perfbench/test_smoke.py -q

Runs every workload for one untraced and one traced pass at ``--scale
tiny`` and checks the result line: every metric BENCHMARK.json names is
emitted with its unit, no operation failed, and no layer self time is
negative.  Takes about a minute, most of it interpreter start-up.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SELF_TIMES = [m["name"] for m in SPEC["per_layer"]
              if m["name"].endswith((".busy_s", ".self_s"))
              or m["name"] in ("prng.key_setup_s", "prng.gen_s")]


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)


@pytest.mark.parametrize("trace", [0, 1])
def test_every_metric_is_emitted_and_no_op_fails(trace):
    proc = run_bench(ROOT, "--workload", "all", "--scale", "tiny", "--seconds", "0",
                     "--trace", str(trace))
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["failed"] == 0 and result["correct"] is True, proc.stdout
    assert result["attempted"] >= 1
    specs = SPEC["per_layer" if trace else "end_to_end"]
    units = {f"{w['name']}.{m['name']}": m["unit"] for w in SPEC["workloads"] for m in specs}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if trace:
        negative = {k: v["value"] for k, v in result["metrics"].items()
                    if k.split(".", 1)[1] in SELF_TIMES and v["value"] < 0}
        assert not negative
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench(tmp_path, "--workload", "dp_exact", "--seed", "1", "--seconds", "1",
                     "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
