"""Committed sha256 digests of the portable outputs, so "every byte kept" can be re-checked.

Each command runs in process into ``tmp_path``; the sha256 of every data
file and script it writes must equal its row of ``golden_digests.json``.
The sizes cross the code's seams: DP rows at N = 2000, an r1 row at
N = 10^4 that holds subnormal entries, a ``det`` range past one 8,192-row
block, samples split over two CPUs, and each oracle at its cap.

Manifests stay out, since they record ``--out``.  So do ``moments``,
``decay`` and ``clt``, whose bytes go through BLAS dot products or SIMD
``log`` and so depend on the platform.  A change that alters a byte on
purpose re-records the table with

    PYTHONPATH=src python tests/test_golden_digests.py

and names each re-recorded row, and why, in CHANGES.md.
"""

import json
import tempfile
from pathlib import Path

import pytest

from josephus import simulate
from josephus.cli import main
from josephus.io import file_sha256

TABLE = Path(__file__).with_name("golden_digests.json")

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


if __name__ == "__main__":
    simulate._cpus = _two_cpus
    table = {}
    for name, argv in COMMANDS.items():
        with tempfile.TemporaryDirectory() as out:
            table[name] = _digests(argv, Path(out))
    TABLE.write_text(json.dumps(table, indent=2) + "\n")
