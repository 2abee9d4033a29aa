"""The on-disk file policy: the JSON, JSONL, CSV and line-list readers and the writers.

Every input is UTF-8, a leading BOM skipped; a bad line, an undecodable one
included, is a `ManifestError` that names its 1-based file line. JSONL is one
object per line, blank lines skipped; CSV has a header line, and each field is
trimmed of surrounding whitespace. `read_records(path, RowType)` is the one row
checker: the row type is a frozen dataclass whose annotations are the row's
schema, resolved once per type, and every row is checked against it and built
into an instance, a `Literal` field getting the annotation's own string so
that all rows share it. The writers are its inverse: a dataclass row, slotted
or not, is written as the object of its fields in declaration order, read by
name through a field-name tuple cached per type, and a `Decimal` as its
string. Every output is UTF-8 with non-ASCII text kept as is: a JSONL row is
one compact line, a JSON document is indented by two spaces. Both are
streamed: JSONL a row at a time, a document as the bytes of `encode_document`
in bounded batches of encoder chunks, so memory does not grow with the file.
Each is written to a temp file beside its target and renamed over it, so a
failed write leaves the previous file untouched. The append-only generation
journals (checkpoint and skip log) are the one exception and live in
`generate`.
"""

from __future__ import annotations

import csv
import dataclasses
import functools
import itertools
import json
import os
import types
import typing
from contextlib import contextmanager
from decimal import Decimal, DefaultContext, InvalidOperation
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
            except ValueError as exc:  # an integer too long to convert
                raise ManifestError(f"line {lineno}: invalid JSON ({exc})") from exc
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
    except (ValueError, ManifestError) as exc:
        raise ManifestError(f"{path}: invalid JSON ({exc})") from exc
    except RecursionError as exc:
        raise ManifestError(f"{path}: invalid JSON (nested too deeply)") from exc
    if not isinstance(obj, dict):
        raise ManifestError(f"{path}: expected a JSON object")
    return obj


class _Bad(ValueError):
    """A value that its annotation rejects, at `path` in the row (`turns[2].answer`);
    `need` says what it must be, and is None for a missing key."""

    def __init__(self, need: str | None, path: str = ""):
        super().__init__()
        self.need, self.path = need, path

    def within(self, outer: str) -> _Bad:
        """This error, its path put under the key or `[index]` that holds the value."""
        if self.path:
            outer += self.path if self.path[0] == "[" else "." + self.path
        self.path = outer
        return self

    def __str__(self) -> str:
        if self.need is None:
            return f"missing key '{self.path}'"
        return f"{self.path} must be {self.need}"


def _test(need: str, accepts: Callable[[object], bool]) -> Callable:
    """The check that passes each value `accepts` takes and refuses any other."""
    def check(value):
        if not accepts(value):
            raise _Bad(need)
        return value
    return check


# Amounts are summed. Each one below this bound keeps a sum of as many as a file
# can hold inside the decimal context's range, so no sum ends in `Overflow`.
_AMOUNT_LIMIT = Decimal(f"1E+{DefaultContext.Emax - DefaultContext.prec + 1}")


def _amount(value) -> Decimal:
    try:
        amount = Decimal(value) if type(value) is str else None
    except InvalidOperation:
        amount = None
    if amount is None or not amount.is_finite() or not 0 <= amount < _AMOUNT_LIMIT:
        raise _Bad(f"a finite non-negative decimal string below {_AMOUNT_LIMIT}")
    return amount


_string = _test("a string", lambda v: type(v) is str)
_SCALARS = {
    str: _string,
    int: _test("a non-negative integer", lambda v: type(v) is int and v >= 0),
    Decimal: _amount,
}


def _check_for(hint) -> Callable:
    """The check of one annotation: a decoded JSON value in, the field value out."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if hint in _SCALARS:
        return _SCALARS[hint]
    if origin is typing.Literal:
        # The annotation's own string, so that every row holds one shared object.
        own, need = {a: a for a in args}, " or ".join(map(repr, args))

        def literal(value):
            if type(value) is not str or value not in own:
                raise _Bad(need)
            return own[value]
        return literal
    if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
        check = _check_for(args[0] if args[1] is type(None) else args[1])

        def optional(value):
            try:
                return None if value is None else check(value)
            except _Bad as exc:
                if not exc.path:
                    exc.need += " or null"
                raise
        return optional
    if origin is tuple and args[1:] == (...,):
        item = _check_for(args[0])

        def items(value):
            if type(value) is not list:
                raise _Bad("a list")
            out = []
            try:
                for v in value:
                    out.append(item(v))
            except _Bad as exc:
                raise exc.within(f"[{len(out)}]")
            return tuple(out)
        return items
    if dataclasses.is_dataclass(hint):
        return _builder(hint)
    raise TypeError(f"no JSON row check for the annotation {hint!r}")


@functools.cache
def _builder(row_type: type[T]) -> Callable[[object], T]:
    """The check of a dataclass: its annotations resolved once, undeclared keys
    ignored, and an absent key given the field's default or, with none, refused.
    Each field is set with `object.__setattr__`, as a frozen dataclass's
    `__init__` sets it, and then `__post_init__` runs; this skips a keyword
    call to `__init__` per row. `str` fields, the most common, are checked inline."""
    hints = typing.get_type_hints(row_type)
    fields = [(f.name, _check_for(hints[f.name]), f.default) for f in dataclasses.fields(row_type)]
    post_init = getattr(row_type, "__post_init__", None)
    new, set_field = object.__new__, object.__setattr__

    def build(row) -> T:
        if type(row) is not dict:
            raise _Bad("an object")
        record = new(row_type)
        for key, check, default in fields:
            if key not in row:
                if default is dataclasses.MISSING:
                    raise _Bad(None, key)
                value = default
            elif check is _string:
                value = row[key]
                if type(value) is not str:
                    raise _Bad("a string", key)
            else:
                try:
                    value = check(row[key])
                except _Bad as exc:
                    raise exc.within(key)
            set_field(record, key, value)
        if post_init is not None:
            post_init(record)
        return record
    return build


def decode(row_type: type[T], obj) -> T:
    """`obj` built into a `row_type`, or a ValueError that names the bad key."""
    return _builder(row_type)(obj)


def read_records(
    path: str | Path, row_type: type[T], check: Callable[[T], None] | None = None,
    fmt: str = "jsonl",
) -> Iterator[T]:
    """Yield a `row_type` per row of a JSONL file, or with `fmt="csv"` of a CSV
    file whose header holds every key without a default. A row that the type
    rejects, or that raises ValueError in `__post_init__` or in `check`, where
    the rules about meaning sit, is a ManifestError: `line N: missing key 'k'`,
    `line N: k must be …` or `line N: <the ValueError>`."""
    build = _builder(row_type)
    if fmt == "jsonl":
        rows = read_jsonl(path)
    else:
        rows = _read_csv(path, [f.name for f in dataclasses.fields(row_type)
                                if f.default is dataclasses.MISSING])
    for lineno, row in rows:
        try:
            record = build(row)
            if check is not None:
                check(record)
        except ValueError as exc:
            raise ManifestError(f"line {lineno}: {exc}") from exc
        yield record


def _read_csv(path: str | Path, required: Iterable[str]) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, row) for each non-blank record of a CSV file, `row` mapping
    header columns to fields, each trimmed. `lineno` is the physical line where
    the record starts. A header without every `required` column, or no header
    line at all, is a line-1 ManifestError; a record with more fields than the
    header is one at its line."""
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
                if len(fields) > len(header):
                    raise ManifestError(f"line {start}: {len(fields)} fields, "
                                        f"but the header has {len(header)}")
                if fields:
                    yield start, dict(zip(header, map(str.strip, fields)))
                start = reader.line_num + 1
        except csv.Error as exc:
            raise ManifestError(f"line {start}: {exc}") from exc


def read_line_list(path: str | Path) -> list[str]:
    """Stripped non-blank lines of a text file, '#' comment lines skipped. A line
    that repeats an earlier one is a ManifestError naming both lines."""
    first_line: dict[str, int] = {}
    with _open_lines(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text and not text.startswith("#"):
                first = first_line.setdefault(text, lineno)
                if first != lineno:
                    raise ManifestError(f"line {lineno}: '{text}' repeats line {first}")
    return list(first_line)


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


@functools.cache
def _field_names(row_type: type) -> tuple[str, ...]:
    """A dataclass's field names in declaration order; a TypeError for any other type."""
    return tuple(f.name for f in dataclasses.fields(row_type))


def _encodable(obj):
    """The encoders' `default`, `_builder`'s inverse: a `Decimal` is its string,
    and a dataclass row, slotted or not, is the object of its fields in
    declaration order, read by name, so a cached property is never written."""
    if isinstance(obj, Decimal):
        return str(obj)
    try:
        names = _field_names(type(obj))
    except TypeError:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable") from None
    return {name: getattr(obj, name) for name in names}


encode_row = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), default=_encodable).encode
_DOCUMENT = json.JSONEncoder(ensure_ascii=False, indent=2, default=_encodable)
# Encoder chunks joined per write: one write per chunk costs time, one join of
# the whole document holds its text and every chunk in memory at once.
_CHUNKS_PER_WRITE = 16384


def encode_document(obj) -> str:
    """`obj` as one indent-2 JSON document and a trailing newline."""
    return _DOCUMENT.encode(obj) + "\n"


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    """Stream rows, dataclass rows or dicts, as JSONL, one compact object per line."""
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(encode_row(row) + "\n")


def write_json(path: str | Path, obj) -> None:
    """Write the bytes of `encode_document(obj)`, streamed in bounded batches
    of encoder chunks, so that the whole text is never held in memory."""
    chunks = _DOCUMENT.iterencode(obj)
    with atomic_open(path) as fh:
        while batch := list(itertools.islice(chunks, _CHUNKS_PER_WRITE)):
            fh.write("".join(batch))
        fh.write("\n")
