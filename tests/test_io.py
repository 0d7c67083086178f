"""CSV writer and import weight.

``csv_text`` is byte-identical to the per-value rendering for the column
kinds the CLI passes (numpy arrays, ranges, lists of Python ints) and
refuses any other column.  Importing the CLI loads no scipy, and ``clt``
loads ``scipy.special`` but never ``scipy.stats``.
"""

import math
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import josephus
from josephus import io

_SPECIAL = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e300, -1e300, 0.1]
FLOATS = st.one_of(st.floats(), st.sampled_from(_SPECIAL))
INTS = st.one_of(st.integers(), st.integers(-(2**256), 2**256))  # oracle-sized numerators


def reference_csv(header, columns) -> str:
    """The row-wise writer this one replaced: one ``format`` or ``str`` per value."""
    def fmt(v):
        return format(v, ".17g") if isinstance(v, float) else str(v)
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in zip(*columns))
    return "\n".join(lines) + "\n"


def _column(kind: str, n: int):
    if kind == "range":
        return st.integers(-10**6, 10**6).map(lambda a: range(a, a + n))
    if kind == "int64":
        return arrays(np.int64, n)
    if kind == "float64":
        return arrays(np.float64, n, elements=FLOATS)
    return st.lists(INTS, min_size=n, max_size=n)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(
        st.sampled_from(["range", "int64", "float64", "ints"]),
        min_size=1, max_size=4))
    return [f"c{i}" for i in range(len(kinds))], [draw(_column(k, n)) for k in kinds]


@given(tables(), st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_csv_text_matches_per_value_rendering(table, block_rows):
    header, columns = table
    # small blocks, so that most tables cross several block boundaries
    with mock.patch.object(io, "_BLOCK_ROWS", block_rows):
        assert io.csv_text(header, columns) == reference_csv(header, columns)


def test_csv_text_crosses_a_full_size_block():
    n = 2 * io._BLOCK_ROWS + 3
    rng = np.random.default_rng(0)
    columns = [range(1, n + 1), rng.integers(-10**12, 10**12, n),
               rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)]
    text = io.csv_text(["n", "k", "x"], columns)
    assert text == reference_csv(["n", "k", "x"], columns)
    assert text.count("\n") == n + 1


@pytest.mark.parametrize("column", [
    [1, 0.5, 2**70], [0.5, -0.0, math.nan], [np.int64(1), 2], ["1"],
    np.array([1, 0.5], dtype=object),
], ids=["mixed", "floats", "numpy_scalar", "str", "object_array"])
def test_a_column_of_other_values_is_refused(column):
    with pytest.raises(TypeError, match="CSV column 'x'"):
        io.csv_text(["n", "x"], [range(len(column)), column])


def test_zero_rows_give_the_header_line_only():
    assert io.csv_text(["a", "b"], [range(0), np.zeros(0)]) == "a,b\n"
    assert io.csv_text([], []) == "\n"


def test_columns_of_different_length_are_refused():
    with pytest.raises(ValueError, match="differ in length"):
        io.csv_text(["a", "b"], [range(3), [1.0, 2.0]])


def _fresh_stdout(code: str, *args: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(josephus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_loads_no_scipy():
    # only clt's KS distances need scipy; every other command must start without it
    code = ("import sys, josephus, josephus.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_stdout(code).strip() == "[]"


def test_clt_loads_scipy_special_but_not_scipy_stats(tmp_path):
    # the KS distances come from scipy.special.ndtr, so no clt path needs scipy.stats
    code = ("import sys\n"
            "from josephus import analysis, cli\n"
            "analysis.clt_experiment(100, 1000, 0)\n"
            "print('scipy.stats' in sys.modules, 'scipy.special' in sys.modules)\n"
            "argv = ['--out', sys.argv[1], 'clt', '--l-max', '100', '--trials', '1000']\n"
            "print(cli.main(argv), 'scipy.stats' in sys.modules)\n")
    assert _fresh_stdout(code, str(tmp_path)).split() == ["False", "True", "0", "False"]
