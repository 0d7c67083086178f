"""Result persistence: CSV/JSON-lines text, manifests, config hashing.

``csv_text`` and ``jsonl_text`` build the one text of a table that is
either printed or written; files are written atomically (temp file +
rename) so concurrent grid members never interleave.  Lines end in
"\\n" and floats print with 17 significant digits, so exact reruns are
byte-identical.

``csv_text`` takes a table by columns (1-D numpy arrays, ranges or
sequences of Python ints), picks each column's format once (``%.17g`` for a
float array, ``%s`` for the rest) and formats ``_BLOCK_ROWS`` rows at a
time, so only one block's row strings exist at once.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DomainError

SCHEMA_VERSION = 1
_BLOCK_ROWS = 1 << 16


def atomic_write_text(path: Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def csv_text(header: Sequence[str], columns: Sequence[Sequence]) -> str:
    """The CSV text of a table given as equally long columns, header line first."""
    n = len(columns[0]) if columns else 0
    if any(len(c) != n for c in columns):
        raise ValueError(f"columns differ in length: {[len(c) for c in columns]}")
    line = ",".join(_column_format(h, c) for h, c in zip(header, columns, strict=True)) + "\n"
    parts = [",".join(header) + "\n"]
    for start in range(0, n, _BLOCK_ROWS):
        block = [c[start:start + _BLOCK_ROWS] for c in columns]
        block = [b.tolist() if isinstance(b, np.ndarray) else b for b in block]
        parts.append("".join(map(line.__mod__, zip(*block))))
    return "".join(parts)


def _column_format(name: str, column) -> str:
    """``%.17g`` for a float array, ``%s`` for any other array, a range or Python ints."""
    if isinstance(column, np.ndarray) and column.dtype.kind != "O":
        return "%.17g" if column.dtype.kind == "f" else "%s"
    if isinstance(column, range) or all(isinstance(v, int) for v in column):
        return "%s"
    raise TypeError(f"CSV column {name!r} must be a numpy array, a range or Python ints")


def jsonl_text(records: Iterable[Mapping]) -> str:
    """One JSON object per line; the records hold plain Python values."""
    return "".join(json.dumps(rec, sort_keys=True) + "\n" for rec in records)


def config_hash(config: Mapping, version: str) -> str:
    """Hash covering the full run config plus the code version string."""
    canonical = json.dumps({"config": config, "version": version}, sort_keys=True)
    return hashlib.sha256(canonical.encode()).hexdigest()


def validate_config(config: Mapping, allowed_keys: set[str]) -> None:
    """Fail fast on unknown keys or a schema mismatch."""
    if config.get("schema") != SCHEMA_VERSION:
        raise DomainError(
            f"config schema must be {SCHEMA_VERSION}, got {config.get('schema')!r}"
        )
    unknown = set(config) - allowed_keys - {"schema"}
    if unknown:
        raise DomainError(f"unknown config keys: {sorted(unknown)}")


def write_manifest(path: Path, config: Mapping, version: str, files: list[dict]) -> None:
    manifest = {
        "schema": SCHEMA_VERSION,
        "config": dict(config),
        "version": version,
        "hash": config_hash(config, version),
        "files": files,
    }
    atomic_write_text(path, json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def file_sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()
