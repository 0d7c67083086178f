"""Table writer, its memory bound, and import weight.

``csv_text`` is byte-identical to the per-value rendering for the column
kinds the CLI passes (numpy arrays, ranges, lists of Python ints) and
refuses any other column.  A table streamed block by block to a file or
to stdout has the bytes of its joined text, a refused table writes
nothing, and ``det --n-range 1:500000`` holds little beyond its survivor
array.  Neither importing the CLI nor running ``clt`` loads scipy.
"""

import hashlib
import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path
from unittest import mock

import click
import numpy as np
import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st
from hypothesis.extra.numpy import arrays

import josephus
from josephus import cli, io

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
        blocks = list(io._table_blocks("csv", header, columns))
        assert io.csv_text(header, columns) == reference_csv(header, columns)
    assert "".join(blocks) == reference_csv(header, columns)
    assert blocks[0] == ",".join(header) + "\n"
    n = len(columns[0])
    assert [b.count("\n") for b in blocks[1:]] == [
        min(block_rows, n - start) for start in range(0, n, block_rows)]


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
    with pytest.raises(TypeError, match="table column 'x'"):
        io.csv_text(["n", "x"], [range(len(column)), column])


def test_zero_rows_give_the_header_line_only():
    assert io.csv_text(["a", "b"], [range(0), np.zeros(0)]) == "a,b\n"
    assert io.csv_text([], []) == "\n"


def test_columns_of_different_length_are_refused():
    with pytest.raises(ValueError, match="differ in length"):
        io.csv_text(["a", "b"], [range(3), [1.0, 2.0]])


def _table(rows: int):
    """Three columns of every kind the CLI passes, ``rows`` long."""
    rng = np.random.default_rng(rows)
    x = rng.standard_normal(rows) * 10.0 ** rng.integers(-300, 300, rows)
    x[::7] = math.nan
    return ["n", "x", "big"], [range(rows), x, [(k - 40) ** 17 - 2**80 for k in range(rows)]]


def _jsonl_whole(header, columns) -> str:
    """The JSON lines of the whole table, each column converted at once."""
    columns = [c.tolist() if isinstance(c, np.ndarray) else c for c in columns]
    return io.jsonl_text(dict(zip(header, row)) for row in zip(*columns))


def _invoke(header, columns, fmt: str, out=None, config=None):
    """Emit the table through ``cli._emit`` in a click context, run by CliRunner."""
    @click.command()
    @click.pass_context
    def table(ctx):
        cli._emit(ctx, "table", header, columns, config)
    return CliRunner().invoke(table, [], obj={"format": fmt, "out": out, "argv": []})


ROW_COUNTS = [0, io._BLOCK_ROWS - 1, io._BLOCK_ROWS, io._BLOCK_ROWS + 1, 2 * io._BLOCK_ROWS + 3]


@pytest.mark.parametrize("rows", ROW_COUNTS)
@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
def test_streamed_table_has_the_bytes_of_its_joined_text(fmt, rows, tmp_path):
    header, columns = _table(rows)
    text = io.csv_text(header, columns) if fmt == "csv" else _jsonl_whole(header, columns)
    echoed = _invoke(header, columns, fmt)
    assert echoed.exit_code == 0, echoed.exception
    assert echoed.stdout_bytes == text.encode()
    written = _invoke(header, columns, fmt, out=str(tmp_path), config={"command": "t"})
    assert written.exit_code == 0 and written.stdout_bytes == b""
    data = (tmp_path / f"table.{fmt}").read_bytes()
    assert data == text.encode()
    [entry] = json.loads((tmp_path / "table.manifest.json").read_text())["files"]
    assert entry == {"name": f"table.{fmt}", "sha256": hashlib.sha256(data).hexdigest()}
    assert sorted(p.name for p in tmp_path.iterdir()) == [f"table.{fmt}", "table.manifest.json"]


@pytest.mark.parametrize("fmt", ["csv", "jsonl"])
@pytest.mark.parametrize("columns, error", [
    ([range(20_000), [0.5] * 20_000], TypeError),
    ([range(20_000), np.zeros(19_999)], ValueError),
], ids=["kind", "length"])
def test_a_refused_table_writes_and_echoes_nothing(fmt, columns, error, tmp_path):
    echoed = _invoke(["n", "x"], columns, fmt)
    assert isinstance(echoed.exception, error) and echoed.stdout_bytes == b""
    out = tmp_path / "out"
    written = _invoke(["n", "x"], columns, fmt, out=str(out), config={"command": "t"})
    assert isinstance(written.exception, error)
    assert not out.exists()


def test_a_failing_block_stream_leaves_the_older_file(tmp_path):
    target = tmp_path / "t.csv"
    target.write_text("older\n")

    def blocks():
        yield "a,b\n"
        yield "1,2\n" * 100_000
        raise RuntimeError("block failed")
    with pytest.raises(RuntimeError, match="block failed"):
        io.atomic_write_text(target, blocks())
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]
    assert target.read_text() == "older\n"
    with pytest.raises(RuntimeError, match="block failed"):
        io.atomic_write_text(tmp_path / "new.csv", blocks())
    assert [p.name for p in tmp_path.iterdir()] == ["t.csv"]


# Measured peak above the int64 survivor array: 1.04 MB with blocks of 2^13
# rows; joining the whole 6.6 MB text before writing it peaked 14.9 MB above.
_DET_ALLOWANCE = 2_000_000


def test_det_range_holds_its_survivors_and_one_block(tmp_path):
    b = 500_000
    assert cli.main(["--out", str(tmp_path), "det", "--n-range", "1:1000"]) == 0  # warm-up
    tracemalloc.start()
    try:
        code = cli.main(["--out", str(tmp_path), "det", "--n-range", f"1:{b}"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert (tmp_path / f"det_1_{b}.csv").stat().st_size > 6_000_000
    assert peak <= 8 * (b + 1) + _DET_ALLOWANCE, peak


def _fresh_stdout(code: str, *args: str) -> str:
    """The standard output of ``code`` run in a fresh interpreter that imports this package."""
    src = str(Path(josephus.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", code, *args], env=env,
                          capture_output=True, text=True, check=True).stdout


def test_importing_the_cli_loads_no_scipy():
    # no josephus command needs scipy; it is the tests' reference only
    code = ("import sys, josephus, josephus.cli\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert _fresh_stdout(code).strip() == "[]"


def test_clt_loads_no_scipy(tmp_path):
    # the KS distances take Phi from the kernel's port of scipy.special.ndtr
    code = ("import sys\n"
            "from josephus import cli\n"
            "argv = ['--out', sys.argv[1], 'clt', '--l-max', '100', '--trials', '1000']\n"
            "code = cli.main(argv)\n"
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
    assert _fresh_stdout(code, str(tmp_path)).split() == ["0", "[]"]
