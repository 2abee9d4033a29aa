"""The on-disk file policy: the JSON, JSONL, CSV and line-list readers and the writers.

Every input is UTF-8, a leading BOM skipped; a bad line, an undecodable one
included, is a `ManifestError` that names its 1-based file line. JSONL is one
object per line, blank lines skipped, each decoded by json's C scanner; CSV
has a header line, and each field is trimmed. `read_records(path, RowType)` is
the one row checker: the row type is a frozen dataclass whose annotations are
the row's schema, compiled once per type into a builder, and every row is
checked against it and built into an instance; with `spans=True` each comes
with its line and the line's byte span, so a reader can copy the line by
offset. The writers are its inverse: a dataclass row, slotted or not, is the
object of its fields in declaration order, a `Decimal` its string, through one
encoder per row type generated on first use, whose bytes are json's. Every output is UTF-8 with non-ASCII text
kept: a JSONL row is one compact line, streamed a row at a time; a JSON
document is indented by two spaces and written a few hundred rows at a time.
Each goes to a temp file beside its target, renamed over it, so a failed write
leaves the previous file untouched; the generation journals live in `generate`.
"""

from __future__ import annotations

import codecs
import csv
import dataclasses
import functools
import itertools
import json
import math
import os
import types
import typing
from contextlib import contextmanager, suppress
from decimal import Decimal, DefaultContext, InvalidOperation
from json.encoder import encode_basestring
from pathlib import Path
from typing import Callable, Iterable, Iterator, TypeVar

from .errors import CloverError, ManifestError

T = TypeVar("T")


@contextmanager
def _open_lines(path: str | Path | int, newline: str | None = None):
    """Open UTF-8 text for line iteration, a leading BOM skipped. `path` may be
    a file descriptor at the file's start, which is left open.

    `newline` is `open`'s: CSV and JSONL pass "" to keep each line's end as the
    file holds it. Decoding happens as lines are read; only when it fails is the
    file read again, by bytes, to name the line that holds the bad byte.
    """
    with open(path, "r", encoding="utf-8-sig", newline=newline,
              closefd=not isinstance(path, int)) as fh:
        try:
            yield fh
        except UnicodeDecodeError:
            fh.buffer.seek(0)
            for lineno, raw in enumerate(fh.buffer.read().splitlines(), start=1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as exc:
                    raise ManifestError(
                        f"line {lineno}: not UTF-8 (byte 0x{raw[exc.start]:02x})"
                    ) from None
            raise


def read_jsonl(path: str | Path | int) -> Iterator[tuple[int, dict]]:
    """Yield (lineno, object) for every non-blank line of a JSONL file."""
    for lineno, row, _, _, _ in _read_lines(path):
        yield lineno, row


def _read_lines(path: str | Path | int) -> Iterator[tuple[int, dict, str, int, int]]:
    """Yield (lineno, object, line, start, stop) for every non-blank line of a
    JSONL file: the line as the file holds it, its end included, and its UTF-8
    byte span in the file, after any BOM. A line that starts with '{' is decoded
    by json's C scanner, and taken when only JSON whitespace follows the object;
    `json.loads` decodes any other line, so every error keeps its wording (a form
    feed after the object is "Extra data")."""
    scan = json.decoder.JSONDecoder().scan_once
    with _open_lines(path, newline="") as fh:
        stop = len(codecs.BOM_UTF8) if fh.buffer.peek(3).startswith(codecs.BOM_UTF8) else 0
        for lineno, line in enumerate(fh, start=1):
            start = stop
            stop += len(line) if line.isascii() else len(line.encode("utf-8"))
            if line[:1] == "{":
                try:
                    row, end = scan(line, 0)
                except (StopIteration, ValueError, RecursionError):
                    end = 0
                if end and not line[end:].strip(" \t\n\r"):
                    yield lineno, row, line, start, stop
                    continue
            elif not line.strip():
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
            yield lineno, row, line, start, stop


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
    """The check of a dataclass, compiled from its annotations on first use:
    undeclared keys ignored, and an absent key given the field's default or,
    with none, refused. A `str` field, the most common, is checked inline and
    any other by its annotation's check. Each field is set through its slot,
    or with `object.__setattr__` on a class without slots, as a frozen
    dataclass's `__init__` sets it, and then `__post_init__` runs."""
    hints = typing.get_type_hints(row_type)
    post_init = getattr(row_type, "__post_init__", None)
    scope = {"_Bad": _Bad, "_new": object.__new__, "_type": row_type, "_post": post_init,
             "_setattr": object.__setattr__, "_absent": dataclasses.MISSING}
    code = ["def build(row):\n    if type(row) is not dict:\n        raise _Bad('an object')\n"
            "    record = _new(_type)\n"]
    for i, f in enumerate(dataclasses.fields(row_type)):
        key, check, slot = repr(f.name), _check_for(hints[f.name]), vars(row_type).get(f.name)
        scope[f"_check{i}"], scope[f"_default{i}"] = check, f.default
        code.append(f"    v = row.get({key}, _absent)\n    if v is _absent:\n")
        code.append(f"        raise _Bad(None, {key})\n" if f.default is dataclasses.MISSING
                    else f"        v = _default{i}\n")
        code.append(f"    elif type(v) is not str:\n        raise _Bad('a string', {key})\n"
                    if check is _string else
                    f"    else:\n        try:\n            v = _check{i}(v)\n"
                    f"        except _Bad as exc:\n            raise exc.within({key})\n")
        if type(slot) is types.MemberDescriptorType:
            scope[f"_set{i}"] = slot.__set__
            code.append(f"    _set{i}(record, v)\n")
        else:
            code.append(f"    _setattr(record, {key}, v)\n")
    code.append("    _post(record)\n    return record\n" if post_init else "    return record\n")
    exec(compile("".join(code), f"<{row_type.__qualname__} builder>", "exec"), scope)
    return scope["build"]


def decode(row_type: type[T], obj) -> T:
    """`obj` built into a `row_type`, or a ValueError that names the bad key."""
    return _builder(row_type)(obj)


def read_records(
    path: str | Path | int, row_type: type[T], check: Callable[[T], None] | None = None,
    fmt: str = "jsonl", spans: bool = False,
) -> Iterator[T]:
    """Yield a `row_type` per row of a JSONL file, or with `fmt="csv"` of a CSV
    file whose header holds every key without a default. A row that the type
    rejects, or that raises ValueError in `__post_init__` or in `check`, where
    the rules about meaning sit, is a ManifestError: `line N: missing key 'k'`,
    `line N: k must be …` or `line N: <the ValueError>`. With `spans`, a JSONL
    row comes as (record, line, start, stop), its line and that line's byte span."""
    build = _builder(row_type)
    if fmt == "jsonl":
        rows = _read_lines(path)
    else:
        rows = ((lineno, row, "", 0, 0) for lineno, row in _read_csv(
            path, [f.name for f in dataclasses.fields(row_type) if f.default is dataclasses.MISSING]))
    for lineno, row, line, start, stop in rows:
        try:
            record = build(row)
            if check is not None:
                check(record)
        except ValueError as exc:
            raise ManifestError(f"line {lineno}: {exc}") from exc
        yield (record, line, start, stop) if spans else record


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


def temp_path(path: str | Path) -> Path:
    """`<path>.tmp`, the file an atomic write of `path` fills before the rename."""
    return Path(f"{path}.tmp")


def refuse_unwritable(path: str | Path) -> None:
    """A CloverError, `cannot write <path>: …`, for a `path` that no atomic write
    could create: a directory, one whose `<path>.tmp` is a directory, or one under a file."""
    path = Path(path)
    if path.is_dir():
        raise CloverError(f"cannot write {path}: it is a directory")
    if (tmp := temp_path(path)).is_dir():
        raise CloverError(f"cannot write {path}: {tmp} is a directory")
    parent = next((p for p in path.parents if p.exists()), path.parent)
    if not parent.is_dir():
        raise CloverError(f"cannot write {path}: {parent} is not a directory")


@contextmanager
def atomic_open(path: str | Path):
    """Open `<path>.tmp` for UTF-8 text writing and rename it over `path` on success.

    A `path` that `refuse_unwritable` refuses is refused before anything is made;
    on any failure inside the block the temp file and the directories made for
    it are deleted, and the old `path`, if there was one, keeps its bytes. A
    `<path>.tmp` left from before is unlinked, not truncated, so a reader that
    holds it open keeps its bytes.
    """
    path = Path(path)
    refuse_unwritable(path)
    made = list(itertools.takewhile(lambda d: not d.exists(), path.parents))
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = temp_path(path)
    tmp.unlink(missing_ok=True)
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        for directory in made:  # the deepest first; one that holds a file is kept
            with suppress(OSError):
                directory.rmdir()
        raise


@functools.cache
def _field_names(row_type: type) -> tuple[str, ...]:
    """A dataclass's field names in declaration order; a TypeError for any other type."""
    return tuple(f.name for f in dataclasses.fields(row_type))


def _encodable(obj):
    """json's `default`, `_builder`'s inverse: a `Decimal` is its string, and a
    dataclass row, slotted or not, is the object of its fields in declaration
    order, read by name, so a cached property is never written."""
    if isinstance(obj, Decimal):
        return str(obj)
    try:
        names = _field_names(type(obj))
    except TypeError:
        raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable") from None
    return {name: getattr(obj, name) for name in names}


_JSON = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), default=_encodable).encode
_DOCUMENT = json.JSONEncoder(ensure_ascii=False, indent=2, default=_encodable)
_CHUNKS_PER_WRITE = 256  # pieces of a document joined per write, about a row each

# How a generated encoder writes a value whose annotation it writes inline: `{v}`
# is the value, and `{o}` the value handed on by type when it has another type.
_INLINE = {
    str: "_esc({v}) if type({v}) is str else {o}",
    int: "_int({v}) if type({v}) is int else {o}",
    float: "_float({v}) if type({v}) is float and _finite({v}) else {o}",
    bool: "'true' if {v} is True else 'false' if {v} is False else {o}",
    Decimal: "_esc(str({v})) if type({v}) is Decimal else {o}",
}


def _generate(row_type: type, indent: bool) -> Callable:
    """The encoder of a dataclass, compiled from its annotations. A field whose
    value has the annotation's type is written inline, and any other value by
    `_encoder` of its own type, which ends in json's encoder, so every byte is
    json's. The indent-2 encoder takes the line prefix of the row's first line."""
    try:
        hints = typing.get_type_hints(row_type)
    except NameError:  # an annotation that does not resolve: each value goes by type
        hints = {}
    scope = {"_esc": encode_basestring, "_int": int.__repr__, "_float": float.__repr__,
             "_finite": math.isfinite, "Decimal": Decimal, "_enc": _encoder}
    deepest = 1

    def source(hint, v: str, depth: int) -> str:  # `n{depth}` is the value's line prefix
        nonlocal deepest
        deepest = max(deepest, depth)
        call = f"({v}, n{depth})" if indent else f"({v})"
        other = f"_enc(type({v}), {indent}){call}"
        origin, args = typing.get_origin(hint), typing.get_args(hint)
        if origin is typing.Literal and all(type(a) is str for a in args):
            hint = str
        if hint in _INLINE:
            return f"({_INLINE[hint].format(v=v, o=other)})"
        if origin in (typing.Union, types.UnionType) and len(args) == 2 and type(None) in args:
            inner = source(args[0] if args[1] is type(None) else args[1], v, depth)
            return f"('null' if {v} is None else {inner})"
        if origin is list and args or origin is tuple and args[1:] == (...,):
            x, n, n1 = f"x{depth}", f"n{depth}", f"n{depth + 1}"
            items = f"[{source(args[0], x, depth + 1)} for {x} in {v}]"
            seq = (f"('[' + {n1} + (',' + {n1}).join({items}) + {n} + ']' if {v} else '[]')"
                   if indent else f"'[' + ','.join({items}) + ']'")
            return f"({seq} if type({v}) is {origin.__name__} else {other})"
        if isinstance(hint, type) and dataclasses.is_dataclass(hint):
            name = f"_row{len(scope)}"
            scope[name], scope[name + "_type"] = _encoder(hint, indent), hint
            return f"({name}{call} if type({v}) is {name}_type else {other})"
        return other

    names = _field_names(row_type)
    code = [f"    s{i} = {source(hints.get(name), f'obj.{name}', 1)}\n"
            for i, name in enumerate(names)]
    if indent:
        code[:0] = [f"    n{d} = n{d - 1} + '  '\n" for d in range(1, deepest + 1)]
    pairs = "".join(f"{',' if i else '{{'}{'{n1}' if indent else ''}{encode_basestring(name)}:"
                    f"{' ' if indent else ''}{{s{i}}}" for i, name in enumerate(names))
    close = "{n0}}}" if indent else "}}"  # source of the f-string that returns the row
    code.append(f"    return f'{pairs}{close}'\n" if names else "    return '{}'\n")
    code.insert(0, f"def encode(obj{', n0' if indent else ''}):\n")
    exec(compile("".join(code), f"<{row_type.__qualname__} encoder>", "exec"), scope)
    return scope["encode"]


@functools.cache
def _encoder(cls: type, indent: bool) -> Callable:
    """The compact or indent-2 encoder of a type, built on first use: generated
    for a dataclass, item by item for a compact list or tuple, otherwise json's."""
    if dataclasses.is_dataclass(cls):
        return _generate(cls, indent)
    if indent:  # every line break json writes is structural: a string escapes its own
        return lambda obj, nl: _DOCUMENT.encode(obj).replace("\n", nl)
    if cls in (list, tuple):
        return lambda seq: "[" + ",".join([encode_row(x) for x in seq]) + "]"
    return _JSON


def encode_row(obj) -> str:
    """`obj` as one compact JSON line, without its newline."""
    return _encoder(type(obj), False)(obj)


def _document(obj, nl: str) -> Iterator[str]:
    """`obj` in indent-2 form, each line break followed by the prefix `nl`, in
    pieces: a dict or dataclass a key at a time, a list or tuple a row at a time."""
    cls = type(obj)
    if cls is dict and all(type(key) is str for key in obj) or dataclasses.is_dataclass(cls):
        pairs = obj.items() if cls is dict else [(n, getattr(obj, n)) for n in _field_names(cls)]
        inner, sep = nl + "  ", "{"
        for key, value in pairs:
            yield f"{sep}{inner}{encode_basestring(key)}: "
            yield from _document(value, inner)
            sep = ","
        yield nl + "}" if sep == "," else "{}"
    elif cls in (list, tuple) and obj:
        inner, sep = nl + "  ", "["
        for item in obj:
            yield sep + inner + _encoder(type(item), True)(item, inner)
            sep = ","
        yield nl + "]"
    else:
        yield _encoder(cls, True)(obj, nl)


def encode_document(obj) -> str:
    """`obj` as one indent-2 JSON document and a trailing newline: json's bytes."""
    return "".join(_document(obj, "\n")) + "\n"


def write_jsonl(path: str | Path, rows: Iterable) -> None:
    """Stream rows, dataclass rows or dicts, as JSONL, one compact object per line."""
    with atomic_open(path) as fh:
        for row in rows:
            fh.write(encode_row(row) + "\n")


def write_json(path: str | Path, obj) -> None:
    """Write the bytes of `encode_document(obj)` a few hundred rows at a time, so
    that the whole text is never held: `_document` walks dicts, lists and
    dataclasses, and each row is written at its depth by its generated encoder."""
    pieces = _document(obj, "\n")
    with atomic_open(path) as fh:
        while batch := list(itertools.islice(pieces, _CHUNKS_PER_WRITE)):
            fh.write("".join(batch))
        fh.write("\n")
