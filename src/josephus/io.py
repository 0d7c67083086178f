"""Result persistence: CSV/JSON-lines text, run manifests, config hashing.

A table reaches its file or stdout as a stream of text blocks: the CSV
header line, then one string per ``_BLOCK_ROWS`` rows, so a command holds
one block's rows at a time and never the whole text.  Files are written
atomically (temp file + rename) so concurrent grid members never
interleave, and hashed in fixed-size chunks.  Lines end in "\\n" and
floats print with 17 significant digits, so exact reruns are
byte-identical.

A table is given by columns (1-D numpy arrays, ranges or sequences of
Python ints).  CSV picks each column's format once (``%.17g`` for a float
array, ``%s`` for the rest); JSON lines hold one record per row.  Both
check the column kinds and lengths before the first block is made.

``write_manifest`` writes a run's manifest: its config stamped with the
schema, and each written file's sha256; ``read_manifest`` checks one and
returns what a replay needs, the recorded argv and the files' sha256s.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from itertools import chain
from pathlib import Path
from typing import Iterable, Iterator, Mapping, Sequence

import numpy as np

from .errors import DomainError

SCHEMA_VERSION = 1
_BLOCK_ROWS = 1 << 13
_HASH_CHUNK = 1 << 16


def atomic_write_text(path: Path, text: str | Iterable[str]) -> None:
    """Write ``text``, one string or its chunks in order, to ``path`` by temp file + rename.

    Each chunk is written as it arrives; if anything fails, the iterator
    included, the temp file is removed and an older ``path`` is left as it was.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.writelines([text] if isinstance(text, str) else text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """The CSV text of a table given as equally long columns, header line first."""
    return "".join(_table_blocks("csv", header, columns))


def _table_blocks(ext: str, header: Sequence[str], columns: Sequence[Sequence]) -> Iterator[str]:
    """The ``ext`` ("csv" or "jsonl") text of a table, one string per ``_BLOCK_ROWS`` rows.

    CSV starts with its header line.  The column lengths and kinds are
    checked here, before the first block is made.
    """
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    formats = [_column_format(h, c) for h, c in zip(header, columns, strict=True)]
    if ext == "jsonl":
        return (jsonl_text(dict(zip(header, row)) for row in zip(*block))
                for block in _row_blocks(columns, n))
    line = ",".join(formats) + "\n"
    rows = ("".join(map(line.__mod__, zip(*block))) for block in _row_blocks(columns, n))
    return chain([",".join(header) + "\n"], rows)


def _row_blocks(columns: Sequence[Sequence], n: int) -> Iterator[list]:
    """The columns ``_BLOCK_ROWS`` rows at a time, numpy slices as Python values."""
    for start in range(0, n, _BLOCK_ROWS):
        block = [c[start:start + _BLOCK_ROWS] for c in columns]
        yield [b.tolist() if isinstance(b, np.ndarray) else b for b in block]


def _column_format(name: str, column) -> str:
    """``%.17g`` for a float array, ``%s`` for any other array, a range or Python ints."""
    if isinstance(column, np.ndarray) and column.dtype.kind != "O":
        return "%.17g" if column.dtype.kind == "f" else "%s"
    if isinstance(column, range) or all(isinstance(v, int) for v in column):
        return "%s"
    raise TypeError(f"table column {name!r} must be a numpy array, a range or Python ints")


def jsonl_text(records: Iterable[Mapping]) -> str:
    """One JSON object per line; the records hold plain Python values."""
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def config_hash(config: Mapping, version: str) -> str:
    """Hash covering the full run config plus the code version string."""
    canonical = json.dumps({"config": config, "version": version}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def write_manifest(path: Path, config: Mapping, version: str, paths: Sequence[Path]) -> None:
    """Write the manifest of a run: its config stamped with the schema, and each file's sha256."""
    config = {"schema": SCHEMA_VERSION, **config}
    files = [{"name": p.name, "sha256": file_sha256(p)} for p in paths]
    manifest = {"schema": SCHEMA_VERSION, "config": config, "version": version,
                "hash": config_hash(config, version), "files": files}
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def read_manifest(path: Path, allowed_keys: set[str]) -> tuple[list[str], list[tuple[str, str]]]:
    """The recorded argv of the manifest at ``path`` and its files as (name, sha256) pairs.

    Any part of the manifest that is malformed, or a config key outside
    ``allowed_keys``, raises a ``DomainError`` naming it.
    """
    try:
        data = json.loads(Path(path).read_text())
    except ValueError as exc:  # not JSON, or not UTF-8 text
        raise DomainError(f"manifest is not JSON: {exc}") from None
    config = data.get("config", {}) if isinstance(data, dict) else None
    if not isinstance(config, dict):
        raise DomainError("a manifest is a JSON object whose config is an object")
    if config.get("schema") != SCHEMA_VERSION:
        raise DomainError(f"config schema must be {SCHEMA_VERSION}, got {config.get('schema')!r}")
    unknown = set(config) - allowed_keys - {"schema"}
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")
    argv = config.get("argv")
    if not argv or not isinstance(argv, list) or not all(isinstance(a, str) for a in argv):
        raise DomainError("manifest config does not record the run's arguments as strings")
    files = data.get("files", [])
    if not isinstance(files, list) or not all(
            isinstance(f, dict) and isinstance(f.get("sha256"), str)
            and isinstance(f.get("name"), str) and Path(f["name"]).name == f["name"]
            for f in files):
        raise DomainError("manifest files must each give a plain file name and its sha256")
    return argv, [(f["name"], f["sha256"]) for f in files]


def file_sha256(path: Path) -> str:
    """The sha256 of a file's bytes, read ``_HASH_CHUNK`` bytes at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while chunk := handle.read(_HASH_CHUNK):
            digest.update(chunk)
    return digest.hexdigest()
