"""CSV writer: byte-identical to the per-value rendering; the CLI imports no scipy."""

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
    elements = {"ints": INTS, "floats": FLOATS, "mixed": st.one_of(INTS, FLOATS)}[kind]
    return st.lists(elements, min_size=n, max_size=n)


@st.composite
def tables(draw):
    n = draw(st.integers(0, 30))
    kinds = draw(st.lists(
        st.sampled_from(["range", "int64", "float64", "ints", "floats", "mixed"]),
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


def test_mixed_column_keeps_the_per_value_rule():
    assert io.csv_text(["x"], [[1, 0.5, -0.0, 2**70, math.nan]]) == (
        f"x\n1\n0.5\n-0\n{2**70}\nnan\n")


def test_zero_rows_give_the_header_line_only():
    assert io.csv_text(["a", "b"], [range(0), np.zeros(0)]) == "a,b\n"
    assert io.csv_text([], []) == "\n"


def test_columns_of_different_length_are_refused():
    with pytest.raises(ValueError, match="differ in length"):
        io.csv_text(["a", "b"], [range(3), [1.0, 2.0]])


def test_importing_the_cli_loads_no_scipy():
    # only clt's KS test needs scipy; every other command must start without it
    src = str(Path(josephus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, josephus, josephus.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"
