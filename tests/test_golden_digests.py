"""Committed sha256 digests of the command outputs, so "every byte kept" can be re-checked.

Each command runs in process into ``tmp_path``; the sha256 of every data
file and script it writes must equal its row of ``golden_digests.json``.
The sizes cross the code's seams: DP rows at N = 2000, an r1 row at
N = 10^4 that holds subnormal entries, a ``det`` range past one 8,192-row
block, samples split over two CPUs, and each oracle at its cap.
Manifests stay out, since they record ``--out``.

``moments``, ``decay`` and ``clt`` go through BLAS dot products or SIMD
``log``, so their bytes depend on the platform.  Their digests live in
``golden_digests_platform.json`` beside the fingerprint of the platform
that recorded them (machine, numpy, BLAS and SIMD; no josephus output
depends on scipy), and on any other fingerprint their test skips and
names both.  The ``clt`` rows split the trials over two CPUs, and the rows
of L = 300 and up fill more than one batch of the kernel.

A change that alters a byte on purpose re-records both tables with

    PYTHONPATH=src python tests/test_golden_digests.py

and names each re-recorded row, and why, in CHANGES.md.
"""

import json
import platform
import tempfile
from pathlib import Path

import numpy as np
import pytest

from josephus import simulate
from josephus.cli import main
from josephus.io import file_sha256

TABLE = Path(__file__).with_name("golden_digests.json")
PLATFORM_TABLE = Path(__file__).with_name("golden_digests_platform.json")

COMMANDS = {
    "exact-r1": ["exact", "--rule", "r1", "--n", "2000", "--p", "0.3"],
    "exact-r2": ["exact", "--rule", "r2", "--n", "2000", "--p", "0.3"],
    "exact-r3": ["exact", "--rule", "r3", "--n", "2000", "--p", "0.3", "--q", "0.8"],
    "exact-r1u": ["exact", "--rule", "r1u", "--n", "2000"],
    "exact-r1-subnormal": ["exact", "--rule", "r1", "--p", "0.4", "--n", "10000"],
    "det-csv": ["det", "--n-range", "1:9000"],
    "det-jsonl": ["--format", "jsonl", "det", "--n-range", "1:9000"],
    "simulate-r3-2cpu": ["--seed", "5", "simulate", "--rule", "r3", "--n", "300",
                         "--p", "0.3", "--q", "0.6", "--samples", "20000"],
    "figure-r2-sampled": ["--seed", "6", "figure", "r2", "--n", "200", "--p-grid", "0.3,0.6",
                          "--samples", "5000", "--gnuplot"],
    "oracle-deterministic": ["oracle", "--rule", "deterministic", "--n", "16"],
    "oracle-r1": ["oracle", "--rule", "r1", "--n", "16", "--p-num", "2", "--p-den", "5"],
    "oracle-r1u": ["oracle", "--rule", "r1u", "--n", "16"],
    "oracle-r2": ["oracle", "--rule", "r2", "--n", "16", "--p-num", "2", "--p-den", "5"],
    "oracle-r3": ["oracle", "--rule", "r3", "--n", "12", "--p-num", "1", "--p-den", "3",
                  "--q-num", "3", "--q-den", "4"],
}

PLATFORM_COMMANDS = {
    "clt-L300-2cpu": ["--seed", "5", "clt", "--l-max", "300", "--trials", "1001"],
    "clt-L1000-2cpu": ["--seed", "18446744073709551615", "clt", "--l-max", "1000",
                       "--trials", "1003"],
    "clt-L4000-2cpu": ["clt", "--l-max", "4000", "--trials", "10000"],
    "moments-r1u": ["moments", "--rule", "r1u", "--n-max", "2000"],
    "moments-r3": ["moments", "--rule", "r3", "--p", "0.3", "--q", "0.6", "--n-max", "1000"],
    "decay-unbiased": ["decay", "--unbiased", "--n-max", "1000"],
    "decay-p05": ["decay", "--p", "0.5", "--n-max", "500"],
}


def platform_fingerprint() -> dict:
    """What the bytes of the BLAS- and SIMD-bound outputs depend on."""
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    return {
        "machine": platform.machine(),
        "numpy": np.__version__,
        "simd": config.get("SIMD Extensions", {}),
        "blas": [blas.get(k) for k in ("name", "version", "openblas configuration")],
    }


def _two_cpus() -> int:
    return 2


def _digests(argv, out: Path) -> dict[str, str]:
    """Run ``argv`` into ``out``; the sha256 of each file it wrote, its manifest left out."""
    assert main(["--out", str(out), *argv]) == 0, argv
    return {p.name: file_sha256(p) for p in sorted(out.iterdir())
            if not p.name.endswith(".manifest.json")}


def test_table_holds_one_row_per_command():
    assert sorted(json.loads(TABLE.read_text())) == sorted(COMMANDS)


@pytest.mark.parametrize("name", COMMANDS)
def test_output_bytes_match_the_committed_digests(name, tmp_path, monkeypatch):
    monkeypatch.setattr(simulate, "_cpus", _two_cpus)  # samples split into two chunks
    assert _digests(COMMANDS[name], tmp_path) == json.loads(TABLE.read_text())[name]


def test_platform_table_holds_one_row_per_command():
    assert sorted(json.loads(PLATFORM_TABLE.read_text())["digests"]) == sorted(PLATFORM_COMMANDS)


@pytest.mark.parametrize("name", PLATFORM_COMMANDS)
def test_platform_bound_bytes_match_on_the_recording_platform(name, tmp_path, monkeypatch):
    table = json.loads(PLATFORM_TABLE.read_text())
    here = platform_fingerprint()
    if table["platform"] != here:
        pytest.skip(f"digests recorded on {table['platform']}, this platform is {here}")
    monkeypatch.setattr(simulate, "_cpus", _two_cpus)  # trials split into two slices
    assert _digests(PLATFORM_COMMANDS[name], tmp_path) == table["digests"][name]


def _record(commands) -> dict:
    table = {}
    for name, argv in commands.items():
        with tempfile.TemporaryDirectory() as out:
            table[name] = _digests(argv, Path(out))
    return table


if __name__ == "__main__":
    simulate._cpus = _two_cpus
    TABLE.write_text(json.dumps(_record(COMMANDS), indent=2) + "\n")
    PLATFORM_TABLE.write_text(json.dumps(
        {"platform": platform_fingerprint(), "digests": _record(PLATFORM_COMMANDS)},
        indent=2) + "\n")
