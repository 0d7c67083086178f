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
           "s = pick(u[n - m] < p, ahead, m - 2 - s);",
           "s = pick(u[n - m] <= p, ahead, m - 2 - s);",
           ("tests/test_simulate.py::test_backward_engine_matches_forward_paths",)),
    Mutant("walk-r2-labels-swapped", "src/josephus/_sampler.c",
           "s = pick(u[n - m] < p, ahead, back);", "s = pick(u[n - m] < p, back, ahead);",
           ("tests/test_simulate.py::test_walk_matches_forward_paths_on_every_coin_sequence",)),
    Mutant("walk-r3-knife-labels-swapped", "src/josephus/_sampler.c",
           "pick(knife, s + 2 == m ? 0 : s + 2, s == 0 ? m - 1 : s == 1 ? 0 : s)",
           "pick(knife, s == 0 ? m - 1 : s == 1 ? 0 : s, s + 2 == m ? 0 : s + 2)",
           ("tests/test_simulate.py::test_walk_matches_forward_paths_on_every_coin_sequence",)),
    Mutant("manifest-command-stamp", "src/josephus/cli.py",
           '"command": ctx.info_name, ', "",
           ("tests/test_cli.py::test_rerun_round_trip_of_every_writing_command",)),
    Mutant("figure-r2-gate", "src/josephus/cli.py",
           'if variant == "r2" and samples is None:', 'if variant == "r2" and samples is not None:',
           ("tests/test_cli.py::test_figure_r2_exits_3_on_a_stray_argmax",)),
    Mutant("r2-argmax-tolerance", "src/josephus/analysis.py",
           "abs(argmax - target) <= 0.03 * n", "abs(argmax - target) <= 0.3 * n",
           ("tests/test_analysis.py::test_r2_argmax_failures_allow_three_percent_of_n",)),
    Mutant("clt-dkw-margin-dropped", "src/josephus/analysis.py",
           "if ks > limit + margin:", "if ks > limit:",
           ("tests/test_analysis.py::test_clt_ks_may_reach_its_bound_plus_the_dkw_margin",)),
    Mutant("decay-message-half-range", "src/josephus/analysis.py",
           "between N <= {n_max // 2} and", "between N <= {n_max} and",
           ("tests/test_analysis.py::test_decay_failures_name_the_growth_and_both_ranges",)),
    Mutant("series-check-offset", "src/josephus/deterministic.py",
           "coeffs[i] != expected[i - 1]", "coeffs[i] != expected[i]",
           ("tests/test_deterministic.py::test_series_failures_name_the_first_five_differing_n",)),
    Mutant("moments-suffix", "src/josephus/cli.py",
           'f"moments_{rule}_n{n_min}_{n_max}" + _suffix(p=p, q=q)',
           'f"moments_{rule}_n{n_min}_{n_max}"',
           ("tests/test_cli.py::test_moments_names_keep_every_parameter",)),
    Mutant("figure-manifest-name", "src/josephus/cli.py",
           'name = f"figure_{variant}_n{n}_{_digest(params)}"', 'name = f"figure_{variant}"',
           ("tests/test_cli.py::test_figures_differing_in_n_or_sampling_keep_every_file",)),
    Mutant("ndtr-cephes-coefficient", "src/josephus/_sampler.c",
           "9.34528527171957607540E2", "9.34528527172957607540E2",
           ("tests/test_simulate.py::test_kernel_ndtr_equals_scipy_ndtr_bit_for_bit",)),
    Mutant("unbiased-alpha-nan", "src/josephus/analysis.py",
           "if not alpha > 1.0:", "if alpha <= 1.0:",
           ("tests/test_analysis.py::test_unbiased_decay_domain_is_refused_before_any_dp_row",)),
    Mutant("manifest-plain-file-name", "src/josephus/io.py",
           ' and Path(f["name"]).name == f["name"] not in ("", "..")', "",
           ("tests/test_cli.py::test_rerun_rejects_malformed_file_entries",)),
    Mutant("manifest-repeated-file", "src/josephus/io.py",
           "if len(set(names)) < len(names):", "if False:",
           ("tests/test_refusals.py::test_library_refusal",)),
    Mutant("clt-trial-slice-start", "src/josephus/simulate.py",
           "bounds = [(count * i // w,", "bounds = [(count * i // w + 1,",
           ("tests/test_simulate.py::test_split_counts_equal_one_cpu_counts",
            "tests/test_simulate.py::test_clt_sums_at_any_cpu_count_equal_one_cpu_sums")),
    Mutant("fan-out-skips-slice-1", "src/josephus/simulate.py",
           "for i in range(1, w)]", "for i in range(2, w)]",
           ("tests/test_simulate.py::test_split_counts_equal_one_cpu_counts",
            "tests/test_simulate.py::test_clt_sums_at_any_cpu_count_equal_one_cpu_sums")),
    Mutant("r2-knife-against-victim", "src/josephus/dp.py",
           "_rows(n_max, p, 1, 0, p)", "_rows(n_max, p, 0, 1, p)",
           ("tests/test_dp.py::test_r2_rows_match_the_frozen_recursion_bit_for_bit",
            "tests/test_oracle.py::test_r2_oracle_equals_dp_to_n10")),
    Mutant("csv-float-digits", "src/josephus/io.py",
           'return "%.17g" if', 'return "%.16g" if',
           ("tests/test_golden_digests.py::test_output_bytes_match_the_committed_digests",)),
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
