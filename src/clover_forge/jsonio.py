"""The on-disk file policy: the JSON, JSONL, CSV and line-list readers and the writers.

Every input is UTF-8, a leading BOM skipped; a bad line, an undecodable one
included, is a `ManifestError` that names its 1-based file line. JSONL is one
object per line, blank lines skipped; CSV has a header line. Every output is
UTF-8 with non-ASCII text kept as is: a JSONL row is one compact line, a JSON
document is indented by two spaces. Each is written to a temp file beside its
target and renamed over it, so a failed write leaves the previous file
untouched. The append-only generation journals (checkpoint and skip log) are
the one exception and live in `generate`.
"""

from __future__ import annotations

import csv
import json
import os
from contextlib import contextmanager
from decimal import InvalidOperation
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import ManifestError

T = TypeVar("T")


@contextmanager
def _open_lines(path: str | Path, newline: str | None = None):
    """Open UTF-8 text for line iteration, a leading BOM skipped.

    `newline` is `open`'s: CSV passes "" to keep the line ends inside quoted
    fields. Decoding happens as lines are read; only when it fails is the file
    read again, by bytes, to name the line that holds the bad byte.
    """
    with open(path, "r", encoding="utf-8-sig", newline=newline) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            for lineno, raw in enumerate(Path(path).read_bytes().splitlines(), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ManifestError(
                        f"line {lineno}: not UTF-8 (byte 0x{raw[exc.start]:02x})"
                    ) from None
            raise


def read_jsonl(path: str | Path) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, object) for every non-blank line of a JSONL file."""
    with _open_lines(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                raise ManifestError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
            except RecursionError as exc:
                raise ManifestError(f"line {lineno}: invalid JSON (nested too deeply)") from exc
            if not isinstance(row, dict):
                raise ManifestError(f"line {lineno}: expected a JSON object")
            yield lineno, row


def read_json(path: str | Path) -> dict:
    """The JSON object a whole file holds. A file that does not decode, as UTF-8
    or as JSON, is a ManifestError naming the file."""
    try:
        with _open_lines(path) as fh:
            obj = json.load(fh)
    except (json.JSONDecodeError, ManifestError) as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ManifestError(f"{path}: invalid JSON (nested too deeply)") from exc
    if not isinstance(obj, dict):
        raise ManifestError(f"{path}: expected a JSON object")
    return obj


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


def read_csv(path: str | Path, required: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, row) for each non-blank record of a CSV file, `row` mapping
    header columns to fields. `lineno` is the physical line where the record
    starts. A header without every `required` column, or no header line at all,
    is a line-1 ManifestError."""
    with _open_lines(path, newline="") as fh:
        reader = csv.reader(fh)
        start = 1
        try:
            header = next(reader, [])
            missing = set(required) - set(header)
            if missing:
                raise ManifestError(
                    f"line 1: CSV header missing columns: {', '.join(sorted(missing))}"
                )
            start = reader.line_num + 1
            for fields in reader:
                if fields:
                    yield start, dict(zip(header, fields))
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ManifestError(f"line {start}: {exc}") from exc


def read_line_list(path: str | Path) -> list[str]:
    """Stripped non-blank lines of a text file, '#' comment lines skipped."""
    with _open_lines(path) as fh:
        return [s for s in (line.strip() for line in fh) if s and not s.startswith("#")]


@contextmanager
def atomic_open(path: str | Path):
    """Open `<path>.tmp` for UTF-8 text writing and rename it over `path` on success.

    On any failure inside the block the temp file is deleted and the old
    `path`, if there was one, keeps its bytes.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


_encode_row = json.JSONEncoder(ensure_ascii=False, separators=(",", ":")).encode


def encode_document(obj) -> str:
    """`obj` as one indent-2 JSON document and a trailing newline."""
    return json.dumps(obj, ensure_ascii=False, indent=2) + "\n"


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> None:
    """Stream rows as JSONL, one compact object per line."""
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(_encode_row(row) + "\n")


def write_json(path: str | Path, obj) -> None:
    """Write `encode_document(obj)`."""
    with atomic_open(path) as fh:
        fh.write(encode_document(obj))
