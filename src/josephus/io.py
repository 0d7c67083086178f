"""Result persistence: CSV/JSON-lines text, manifests, config hashing.

``csv_text`` and ``jsonl_text`` build the one text of a table that is
either printed or written; files are written atomically (temp file +
rename) so concurrent grid members never interleave.  Lines end in
"\\n" and floats print with 17 significant digits, so exact reruns are
byte-identical.
"""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Iterable, Mapping

import numpy as np

from .errors import DomainError

SCHEMA_VERSION = 1


def fmt(value) -> str:
    """Render a value for CSV: floats at 17 significant digits."""
    if isinstance(value, float):
        return format(value, ".17g")
    return str(value)


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


def csv_text(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(fmt(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def jsonl_text(records: Iterable[Mapping]) -> str:
    return "".join(
        json.dumps(rec, sort_keys=True, default=json_default) + "\n" for rec in records
    )


def json_default(value):
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialise {type(value)!r}")


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
