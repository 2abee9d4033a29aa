"""The on-disk file policy: the JSONL and line-list readers and the atomic writer.

JSONL is UTF-8, one object per line, blank lines skipped; a bad line is a
`ManifestError` that names its 1-based file line. Every output is written to a
temp file beside its target and renamed over it, so a failed write leaves the
previous file untouched. The append-only generation journals (checkpoint and
skip log) are the one exception and live in `generate`.
"""

from __future__ import annotations

import json
import os
from contextlib import contextmanager
from decimal import InvalidOperation
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import ManifestError

T = TypeVar("T")


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, object) for every non-blank line of a JSONL file."""
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            if not isinstance(row, dict):
                raise ManifestError(f"line {lineno}: expected a JSON object")
            yield lineno, row


def read_records(path: str | Path, build: Callable[[dict], T]) -> Iterator[T]:
    """Yield `build(row)` for every row; a row that `build` rejects with a
    missing key, a wrong type or a bad value is a line-numbered ManifestError."""
    for lineno, row in read_jsonl(path):
        try:
            yield build(row)
        except KeyError as exc:
            raise ManifestError(f"line {lineno}: missing key {exc}") from exc
        except (AttributeError, TypeError, ValueError, InvalidOperation) as exc:
            raise ManifestError(f"line {lineno}: {exc}") from exc


def read_line_list(path: str | Path) -> list[str]:
    """Stripped non-blank lines of a text file, '#' comment lines skipped."""
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    return [s for s in (line.strip() for line in lines) if s and not s.startswith("#")]


@contextmanager
def atomic_open(path: str | Path, mode: str = "w"):
    """Open `<path>.tmp` for writing and rename it over `path` on success.

    On any failure inside the block the temp file is deleted and the old
    `path`, if there was one, keeps its bytes. Text modes are UTF-8.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    encoding = None if "b" in mode else "utf-8"
    try:
        with open(tmp, mode, encoding=encoding) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(path: str | Path, rows: Iterable[dict], **dumps_kwargs) -> None:
    """Stream rows as JSONL, each encoded as `json.dumps(row, **dumps_kwargs)`."""
    encode = json.JSONEncoder(**dumps_kwargs).encode
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(encode(row) + "\n")


def write_json(path: str | Path, obj, **dumps_kwargs) -> None:
    """Write one JSON document and a trailing newline."""
    with atomic_open(path) as fh:
        fh.write(json.dumps(obj, **dumps_kwargs) + "\n")
