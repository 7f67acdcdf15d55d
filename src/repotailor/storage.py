"""Deterministic on-disk formats: JSONL stores, JSON documents, CSV
tables, hashes, and a type check for what is read back.

Serialization is byte-stable (sorted keys, fixed separators, ASCII
escapes) so identical runs produce identical files. Each writer writes
its file in place and returns the sha256 of what it wrote.
"""

from __future__ import annotations

import csv
import hashlib
import json
from pathlib import Path
from typing import Any, Iterable, Iterator


# json.dumps with these arguments builds this encoder on every call
dumps_canonical = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=True).encode


def write_jsonl(path: str | Path, lines: Iterable[str]) -> str:
    """Write each of ``lines``, JSON texts without their newline, as one line."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="\n") as fh:
        for line in lines:
            fh.write(line)
            fh.write("\n")
    return sha256_file(path)


def read_jsonl(path: str | Path) -> Iterator[dict]:
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if line:
                yield json.loads(line)


def write_json(path: str | Path, obj: Any) -> str:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        json.dumps(obj, sort_keys=True, indent=2, ensure_ascii=True) + "\n",
        encoding="utf-8",
    )
    return sha256_file(path)


def write_csv(path: str | Path, header: list[str], rows: Iterable[list]) -> str:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return sha256_file(path)


def read_json(path: str | Path) -> Any:
    return json.loads(Path(path).read_text(encoding="utf-8"))


def typed(value: Any, *types: type) -> Any:
    """``value`` if it is one of ``types`` (a JSON boolean is no int), else a TypeError."""
    if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
        raise TypeError(f"{value!r} is not {' or '.join(t.__name__ for t in types)}")
    return value


def sha256_file(path: str | Path) -> str:
    with Path(path).open("rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
