"""Mutation table: every mutant of the program must make its listed tests fail.

    PYTHONPATH=src python -m pytest -q mutants/

Each row names a file, a text that occurs in it exactly once, the text that
replaces it, and the tests that must catch the change.  The runner copies
``src/``, ``tests/`` and ``pyproject.toml`` (without ``__pycache__``, so
the sampling kernel is rebuilt from the copied ``_sampler.c``) into a
temporary directory, applies the edit there and runs
``python -m pytest -x -q`` on the listed tests.  A mutant counts as killed
only when pytest exits with code 1, tests failed: a usage error, a test id
that no longer exists or a crashed interpreter does not count.  A text that
does not occur exactly once fails its row, since the edit would be
ambiguous.  The directory lies outside the Tier-1 ``testpaths``; the whole
table runs in about a minute.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

ROOT = Path(__file__).resolve().parent.parent


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    tests: tuple[str, ...]


MUTANTS = [
    Mutant("oracle-scale", "src/josephus/simulate.py",
           "scale = total ** (n - 1)", "scale = total",
           ("tests/test_oracle.py::test_oracle_weights_sum_to_one_exactly",)),
    Mutant("r1-mirrored-coin", "src/josephus/dp.py",
           "mid += q * old[n - 4 :: -1]", "mid += p * old[n - 4 :: -1]",
           ("tests/test_oracle.py::test_r1_oracle_equals_dp_to_n10",)),
    Mutant("moment-report-column", "src/josephus/analysis.py",
           "columns[:, n - n_min] =", "columns[:, n - n_min + 1] =",
           ("tests/test_analysis.py::test_moment_report_records",)),
    Mutant("walk-r1-coin", "src/josephus/_sampler.c",
           "s = u[t] < p ? ahead : m - 2 - s;", "s = u[t] <= p ? ahead : m - 2 - s;",
           ("tests/test_simulate.py::test_backward_engine_matches_forward_paths",)),
    Mutant("manifest-command-stamp", "src/josephus/cli.py",
           '"command": ctx.info_name, ', "",
           ("tests/test_cli.py::test_rerun_round_trip_of_every_writing_command",)),
    Mutant("figure-r2-gate", "src/josephus/cli.py",
           "and samples is None\n", "and samples is not None\n",
           ("tests/test_cli.py::test_figure_r2_exits_3_on_a_stray_argmax",)),
    Mutant("moments-suffix", "src/josephus/cli.py",
           'f"moments_{rule}_n{n_min}_{n_max}" + _suffix(p=p, q=q)',
           'f"moments_{rule}_n{n_min}_{n_max}"',
           ("tests/test_cli.py::test_moments_names_keep_every_parameter",)),
    Mutant("figure-manifest-name", "src/josephus/cli.py",
           'name = f"figure_{variant}_n{n}_{_digest(params)}"', 'name = f"figure_{variant}"',
           ("tests/test_cli.py::test_figures_differing_in_n_or_sampling_keep_every_file",)),
]


def _copy(dest: Path) -> Path:
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, dest / part,
                        ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy2(ROOT / "pyproject.toml", dest)
    return dest


def _pytest(tree: Path, tests) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-m", "pytest", "-x", "-q", *tests], cwd=tree,
                          env={**os.environ, "PYTHONPATH": str(tree / "src")},
                          capture_output=True, text=True, timeout=600)


def test_listed_tests_pass_unmutated(tmp_path):
    # so that a killed mutant was killed by its edit
    proc = _pytest(_copy(tmp_path), sorted({t for m in MUTANTS for t in m.tests}))
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_mutant_is_killed(mutant, tmp_path):
    path = _copy(tmp_path) / mutant.file
    text = path.read_text()
    assert text.count(mutant.old) == 1, (
        f"{mutant.old!r} occurs {text.count(mutant.old)} times in {mutant.file}")
    path.write_text(text.replace(mutant.old, mutant.new))
    proc = _pytest(tmp_path, mutant.tests)
    assert proc.returncode == 1, proc.stdout[-3000:] + proc.stderr[-3000:]
