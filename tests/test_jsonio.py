import copy
import dataclasses
import hashlib
import json
import tempfile
import tracemalloc
import types
import typing
from decimal import Decimal
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from clover_forge import jsonio
from clover_forge.backends import BackendResponse, GenerationReceipt
from clover_forge.corpus import ImageTextRecord, ManifestRow
from clover_forge.errors import CloverError, ManifestError
from clover_forge.fewshot import FewShotSplit, PatchRecord
from clover_forge.instructions import KINDS, Instruction, Provenance, make_instruction
from clover_forge.jsonio import (
    atomic_open,
    encode_document,
    encode_row,
    read_json,
    read_jsonl,
    read_records,
    write_json,
    write_jsonl,
)
from clover_forge.metrics import ClosedScore, EvalExample, MetricsReport, OpenScore
from clover_forge.prompts import (
    FewShotPair,
    LintViolation,
    Message,
    PromptEnvelope,
    QAPair,
    build_prompt,
)


def test_read_jsonl_skips_blank_lines_and_keeps_file_line_numbers(tmp_path):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n\n  \n{"a": 2}\n')
    assert list(read_jsonl(path)) == [(1, {"a": 1}), (4, {"a": 2})]


@pytest.mark.parametrize("line", ["[1, 2]", '"text"', "{not json"])
def test_read_jsonl_rejects_non_objects_by_line(tmp_path, line):
    path = tmp_path / "rows.jsonl"
    path.write_text('{"a": 1}\n' + line + "\n")
    with pytest.raises(ManifestError, match="^line 2: "):
        list(read_jsonl(path))


def test_write_jsonl_bytes_equal_json_dumps_lines(tmp_path):
    rows = [{"b": "é", "a": [1, 2]}, {"z": None}]
    path = tmp_path / "rows.jsonl"
    write_jsonl(path, rows)
    expected = "".join(
        json.dumps(r, ensure_ascii=False, separators=(",", ":")) + "\n" for r in rows
    )
    assert path.read_bytes() == expected.encode("utf-8")


def test_write_json_bytes_equal_indented_json_dumps(tmp_path):
    obj = {"b": "é 40×", "a": [1, {"z": None}]}
    path = tmp_path / "doc.json"
    write_json(path, obj)
    expected = json.dumps(obj, ensure_ascii=False, indent=2) + "\n"
    assert path.read_bytes() == expected.encode("utf-8")
    assert read_json(path) == obj


def _report(rows):
    """A document shaped like eval-vqa's report: a summary and one dict per example."""
    return {
        "summary": {"accuracy": 0.5, "n": rows},
        "per_example": [
            {"example_id": f"ex-{i:05d}", "qtype": "open", "correct": i % 2 == 0,
             "score": i / 7, "prediction": "glándulas con núcleos pleomórficos"}
            for i in range(rows)
        ],
    }


def test_write_json_streams_several_batches_with_the_bytes_of_encode_document(tmp_path):
    obj = _report(5000)
    assert sum(1 for _ in jsonio._DOCUMENT.iterencode(obj)) > 2 * jsonio._CHUNKS_PER_WRITE
    path = tmp_path / "report.json"
    write_json(path, obj)
    assert path.read_bytes() == (_INDENTED.encode(obj) + "\n").encode("utf-8")
    assert encode_document(obj) == _INDENTED.encode(obj) + "\n"


def test_write_json_peak_memory_is_well_under_the_document_size(tmp_path):
    obj = _report(20000)
    size = len(encode_document(obj).encode("utf-8"))
    tracemalloc.start()
    try:
        write_json(tmp_path / "report.json", obj)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < size / 2, (peak, size)


def _unserializable_row(path):
    write_jsonl(path, [{"a": 3}, {"a": object()}])


def _unserializable_document(path):
    write_json(path, [*range(2 * jsonio._CHUNKS_PER_WRITE), object()])


def _partial_write_fails(path):
    with atomic_open(path) as fh:
        fh.write("partial")
        raise OSError("disk full")


@pytest.mark.parametrize(
    "failing_write, error",
    [(_unserializable_row, TypeError), (_unserializable_document, TypeError),
     (_partial_write_fails, OSError)],
)
def test_failed_write_keeps_old_bytes_and_leaves_no_temp_file(tmp_path, failing_write, error):
    path = tmp_path / "out" / "rows.jsonl"
    write_jsonl(path, [{"a": 1}, {"a": 2}])
    before = path.read_bytes()
    with pytest.raises(error):
        failing_write(path)
    assert path.read_bytes() == before
    assert list(path.parent.iterdir()) == [path]


@pytest.mark.parametrize("case", ["directory", "tmp-directory", "under-a-file"])
def test_atomic_open_refuses_a_path_no_write_could_create_before_making_anything(tmp_path, case):
    path = tmp_path / "out" / "rows.jsonl"
    if case == "under-a-file":
        (tmp_path / "out").write_text("x")
        path, why = path / "deeper" / "rows.jsonl", f"{tmp_path / 'out'} is not a directory"
    else:
        write_jsonl(path, [{"a": 1}])
        blocked = path if case == "directory" else Path(f"{path}.tmp")
        blocked.unlink(missing_ok=True)
        blocked.mkdir()
        why = "it is a directory" if case == "directory" else f"{blocked} is a directory"
    before = {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")}
    with pytest.raises(CloverError) as raised:
        with atomic_open(path):
            pytest.fail("the block ran")
    assert str(raised.value) == f"cannot write {path}: {why}"
    assert {p: p.is_dir() or p.read_bytes() for p in tmp_path.rglob("*")} == before


# Every row type that a reader builds: a valid row, and the paths of the keys
# that it cannot lack. Together the rows hold every annotation kind the schema
# checks: str, str | None, int, int | None, Decimal, Literal, tuple[str, ...],
# tuple of a dataclass, and a nested dataclass.
ROW_TYPES = {
    ManifestRow: ({"image_id": "i", "caption": "c", "image_ref": "r", "source": None},
                  ["image_id", "caption"]),
    ImageTextRecord: ({"image_id": "i", "image_ref": "", "captions": ["a", "b"],
                       "merged_caption": "a b", "source": ""}, ["image_id"]),
    Instruction: ({"instruction_id": "x", "image_id": "i", "kind": "generation",
                   "turns": [{"question": "q", "answer": "a"}],
                   "provenance": {"method": "m", "model": None, "prompt_hash": "h",
                                  "created_at": ""}},
                  ["instruction_id", "image_id", "kind", "turns", "turns[0].question",
                   "turns[0].answer"]),
    EvalExample: ({"example_id": "e", "question": "q", "reference": "yes",
                   "prediction": "no", "qtype": "closed"}, ["example_id", "reference", "qtype"]),
    GenerationReceipt: ({"image_id": "i", "prompt_tokens": 3, "completion_tokens": 0,
                         "estimated_cost_usd": "0.0015", "backend_id": "b", "retries": 1},
                        ["image_id", "prompt_tokens", "completion_tokens",
                         "estimated_cost_usd", "backend_id", "retries"]),
    FewShotPair: ({"user": "u", "assistant": "a"}, ["user", "assistant"]),
    BackendResponse: ({"text": "t", "prompt_tokens": 4, "completion_tokens": None}, ["text"]),
}


def _key_paths(obj, prefix=""):
    """(name, container, key) for every key of a row, into nested objects and
    into the first item of each list, named as the reader names them."""
    for key, value in obj.items():
        name = f"{prefix}.{key}" if prefix else key
        yield name, obj, key
        if isinstance(value, list) and value:
            yield f"{name}[0]", value, 0
            value = value[0]
            name = f"{name}[0]"
        if isinstance(value, dict):
            yield from _key_paths(value, name)


def _read_second_row(path, row_type, row, change):
    """Read a file of `row` and then a copy of it that `change(container, key)`
    edits at each key path in turn; yield (name, error or None)."""
    for name, _, _ in _key_paths(row):
        bad = copy.deepcopy(row)
        container, key = next((c, k) for n, c, k in _key_paths(bad) if n == name)
        if not change(container, key):
            continue
        path.write_text(json.dumps(row) + "\n" + json.dumps(bad) + "\n")
        try:
            list(read_records(path, row_type))
        except ManifestError as exc:
            yield name, str(exc)
        else:
            yield name, None


def _retype(container, key):
    container[key] = True  # no annotation accepts a JSON boolean
    return True


def _delete(container, key):
    if isinstance(container, list):
        return False
    del container[key]
    return True


@pytest.mark.parametrize("row_type", ROW_TYPES, ids=lambda t: t.__name__)
def test_row_schema_resolves_and_names_each_bad_key(tmp_path, row_type):
    row, required = ROW_TYPES[row_type]
    path = tmp_path / "rows.jsonl"
    path.write_text("")
    assert list(read_records(path, row_type)) == []  # the annotations resolve
    path.write_text(json.dumps(row) + "\n")
    (record,) = read_records(path, row_type)
    assert isinstance(record, row_type)
    for name, error in _read_second_row(path, row_type, row, _retype):
        assert error is not None and error.startswith(f"line 2: {name} must be "), name
    for name, error in _read_second_row(path, row_type, row, _delete):
        assert error == (f"line 2: missing key '{name}'" if name in required else None)


# Text with non-ASCII characters, quotes, backslashes and line breaks mixed in.
_TEXT = st.text(st.one_of(st.characters(codec="utf-8"), st.sampled_from('"\\\n\r\té×😀')),
                max_size=12)
_WORDS = _TEXT.filter(str.strip)
_COUNT = st.integers(min_value=0, max_value=10**12)
_PROVENANCE = st.builds(Provenance, _TEXT, st.none() | _TEXT, st.none() | _TEXT, _TEXT)
WRITTEN_ROWS = {
    ImageTextRecord: st.builds(ImageTextRecord, _TEXT, _TEXT, st.lists(_TEXT, max_size=3).map(tuple),
                               _TEXT, _TEXT),
    Instruction: st.sampled_from(KINDS).flatmap(lambda kind: st.builds(
        make_instruction, _TEXT, st.just(kind),
        st.lists(st.tuples(_WORDS, _WORDS), min_size=1, max_size=1 if kind == "template" else 3),
        _PROVENANCE,
    )),
    EvalExample: st.builds(EvalExample, example_id=_TEXT, question=_TEXT, reference=_WORDS,
                           prediction=_TEXT, qtype=st.sampled_from(["open", "closed"])),
    GenerationReceipt: st.builds(
        GenerationReceipt, _TEXT, _COUNT, _COUNT,
        st.decimals(min_value=0, max_value=Decimal("1E+30"), allow_nan=False,
                    allow_infinity=False),
        _TEXT, _COUNT,
    ),
}


def _asdict_line(row) -> str:
    """A row as the row writers encoded it before they took dataclasses."""
    return json.dumps(dataclasses.asdict(row), ensure_ascii=False, separators=(",", ":"),
                      default=str) + "\n"


@pytest.mark.parametrize("row_type", WRITTEN_ROWS, ids=lambda t: t.__name__)
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_written_rows_read_back_equal_with_the_bytes_of_asdict(row_type, data):
    rows = data.draw(st.lists(WRITTEN_ROWS[row_type], max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        write_jsonl(path, rows)
        assert path.read_text(encoding="utf-8") == "".join(map(_asdict_line, rows))
        assert list(read_records(path, row_type)) == rows


_SCORE = st.floats(min_value=0, max_value=1)
SCORE_ROWS = st.builds(OpenScore, _TEXT, _SCORE, _SCORE, _SCORE) | st.builds(
    ClosedScore, _TEXT, st.booleans())


@settings(max_examples=25, deadline=None)
@given(rows=st.lists(SCORE_ROWS, max_size=4))
def test_written_score_rows_have_the_bytes_of_asdict(rows):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        write_jsonl(path, rows)
        assert path.read_text(encoding="utf-8") == "".join(map(_asdict_line, rows))
    report = MetricsReport(per_example=rows)
    assert _INDENTED.encode(report) == json.dumps(
        dataclasses.asdict(report), ensure_ascii=False, indent=2)
    assert encode_document(report) == _INDENTED.encode(report) + "\n"


# One row of each type that a subcommand holds in bulk.
BULK_ROWS = [
    make_instruction("i", "generation", [("q", "a")], Provenance()),
    Provenance(),
    QAPair("q", "a"),
    GenerationReceipt("i", 1, 2, Decimal("0.0015"), "b", 0),
    EvalExample("e", "yes", "closed"),
    ImageTextRecord("i"),
    OpenScore("e", 1.0, 1.0, 1.0),
    ClosedScore("e", True),
]


@pytest.mark.parametrize("row", BULK_ROWS, ids=lambda row: type(row).__name__)
def test_bulk_row_types_hold_no_dict(row):
    assert not hasattr(row, "__dict__")


@pytest.mark.parametrize("row_type, key", [(Instruction, "kind"), (EvalExample, "qtype")],
                         ids=["Instruction", "EvalExample"])
def test_rows_read_from_one_file_share_their_literal_string(tmp_path, row_type, key):
    path = tmp_path / "rows.jsonl"
    path.write_text((json.dumps(ROW_TYPES[row_type][0]) + "\n") * 2)
    first, second = read_records(path, row_type)
    assert getattr(first, key) is getattr(second, key)


@dataclasses.dataclass(frozen=True, slots=True)
class _OneField:
    x: object


def test_a_one_field_slotted_row_is_written_as_its_object():
    assert encode_row(_OneField(3)) == '{"x":3}'
    assert encode_row([_OneField(("a", "b"))]) == '[{"x":["a","b"]}]'


_PATCH = st.builds(PatchRecord, _TEXT, _TEXT, _TEXT, _TEXT, _TEXT)


@settings(max_examples=15, deadline=None)
@given(split=st.builds(FewShotSplit, _COUNT, _TEXT, st.lists(_TEXT, max_size=3).map(tuple),
                       st.lists(_TEXT, max_size=3).map(tuple),
                       st.lists(_PATCH, max_size=3).map(tuple),
                       st.lists(_PATCH, max_size=3).map(tuple), _COUNT, _COUNT))
def test_written_split_has_the_bytes_of_asdict(split):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "split.jsonl"
        jsonio.write_jsonl(path, [split])
        assert path.read_text(encoding="utf-8") == _asdict_line(split)


def test_a_row_that_caches_a_property_is_written_as_its_fields_only():
    envelope = build_prompt("a caption")
    before = encode_row(envelope)
    assert envelope.digest in vars(envelope).values()
    assert encode_row(envelope) == before == encode_row({"messages": envelope.messages})
    assert json.loads(before) == {"messages": [dataclasses.asdict(m) for m in envelope.messages]}


# --- generated encoders: the bytes of json's own encoder ----------------------

_COMPACT = json.JSONEncoder(ensure_ascii=False, separators=(",", ":"), default=jsonio._encodable)
_INDENTED = json.JSONEncoder(ensure_ascii=False, indent=2, default=jsonio._encodable)


class _Str(str):
    pass


# A value of a type that an annotation need not predict: json encodes each its own
# way (NaN and the infinities, bool against int, a str subclass, a Decimal string).
_OTHER = (st.none() | st.booleans() | st.integers(-10**20, 10**20) | st.floats()
          | _TEXT | _TEXT.map(_Str) | st.decimals() | st.lists(st.integers(), max_size=2))


def _values(hint):
    """Values of the annotation `hint`, or now and then of some other type."""
    origin, args = typing.get_origin(hint), typing.get_args(hint)
    if origin is typing.Literal:
        typed = st.sampled_from(args)
    elif hint in (str, int, float, bool, Decimal):
        typed = {str: _TEXT, int: _COUNT, float: st.floats(), bool: st.booleans(),
                 Decimal: st.decimals()}[hint]
    elif origin in (typing.Union, types.UnionType):
        typed = st.one_of([_values(a) for a in args])
    elif origin in (tuple, list):
        item = _values(args[0])
        typed = (st.lists(item, max_size=3).map(origin) if origin is list or args[1:] == (...,)
                 else st.tuples(*map(_values, args)))
    elif dataclasses.is_dataclass(hint):
        typed = _rows(hint)
    else:
        typed = _OTHER
    return typed | _OTHER


def _rows(row_type):
    """Rows of `row_type` with fields set as they are drawn, unchecked."""
    hints = typing.get_type_hints(row_type)
    names = [f.name for f in dataclasses.fields(row_type)]

    def build(*values):
        row = object.__new__(row_type)
        for name, value in zip(names, values):
            object.__setattr__(row, name, value)
        return row
    return st.builds(build, *[_values(hints[name]) for name in names])


ENCODED_ROWS = [ManifestRow, ImageTextRecord, Instruction, Provenance, QAPair, EvalExample,
                GenerationReceipt, BackendResponse, FewShotPair, Message, PromptEnvelope,
                OpenScore, ClosedScore, MetricsReport, LintViolation, PatchRecord, FewShotSplit]


@pytest.mark.parametrize("row_type", ENCODED_ROWS, ids=lambda t: t.__name__)
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_generated_encoders_write_the_bytes_of_json(row_type, data):
    row = data.draw(_rows(row_type))
    assert encode_row(row) == _COMPACT.encode(row)
    assert encode_row((row, row)) == _COMPACT.encode((row, row))
    document = {"row": row, "rows": [row, [row]], "empty": [], "keyed": {1: row}}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "doc.json"
        write_json(path, document)
        assert path.read_bytes() == (_INDENTED.encode(document) + "\n").encode("utf-8")


def _documents():
    """One document of each kind a subcommand writes with `write_json`."""
    from clover_forge import losses, metrics
    from clover_forge import __version__
    from clover_forge.prompts import lint_qa

    items = [make_instruction(f"img{i}", "generation", [(f"q{i}?", "seen at 40x in 1999")],
                              Provenance("chat-completion", "m", "h", "t")) for i in range(3)]
    lint = [{"instruction_id": it.instruction_id, "image_id": it.image_id,
             "violations": lint_qa(it.turns).violations} for it in items]
    examples = [EvalExample("e1", "yes", "closed", prediction="yes"),
                EvalExample("e2", "a gland", "open", prediction="gland é"),
                EvalExample("e3", "…", "open")]
    manifest = {"counts": {"generation": 3, "template": 0},
                "digest": hashlib.sha256("".join(sorted(it.instruction_id for it in items))
                                         .encode("ascii")).hexdigest(), "sources": [], "seed": 3,
                "tool_version": __version__}
    return {"manifest": manifest, "lint": lint,
            "report": metrics.evaluate(examples), "kernel": losses.run_kernel_check(seed=0)}


@pytest.mark.parametrize("kind", ["manifest", "lint", "report", "kernel"])
def test_write_json_writes_encode_document_for_each_document(tmp_path, kind):
    document = _documents()[kind]
    write_json(tmp_path / "doc.json", document)
    expected = _INDENTED.encode(document) + "\n"
    assert (tmp_path / "doc.json").read_bytes() == expected.encode("utf-8")
    assert encode_document(document) == expected


def test_encoders_are_built_per_type_on_first_use():
    @dataclasses.dataclass(frozen=True)
    class Fresh:
        x: int

    assert encode_row(Fresh(1)) == '{"x":1}' and encode_row(Fresh(True)) == '{"x":true}'
    assert jsonio._encoder(Fresh, False) is jsonio._encoder(Fresh, False)


# --- the line reader: json.loads's verdict on every line ----------------------

def _loads_verdict(line):
    """What `json.loads` makes of a JSONL line: its object, or the reader's error."""
    try:
        row = json.loads(line)
    except json.JSONDecodeError as exc:
        return f"invalid JSON ({exc.msg})"
    except ValueError as exc:
        return f"invalid JSON ({exc})"
    except RecursionError:
        return "invalid JSON (nested too deeply)"
    return row if isinstance(row, dict) else "expected a JSON object"


def _read_second_line(path, line):
    path.write_text('{"a": 1}\n' + line + "\n", encoding="utf-8")
    try:
        return list(read_jsonl(path))[1][1]
    except ManifestError as exc:
        assert str(exc).startswith("line 2: "), str(exc)
        return str(exc)[len("line 2: "):]


@pytest.mark.parametrize("line, verdict", [
    ('{"a": 1}\x0c', "invalid JSON (Extra data)"),
    ('{"a": 1}\x1c', "invalid JSON (Extra data)"),
    ('{"a": 1} {"b": 2}', "invalid JSON (Extra data)"),
    ('\ufeff{"a": 1}', "invalid JSON (Unexpected UTF-8 BOM (decode using utf-8-sig))"),
    (' \t{"a": 1} \t', {"a": 1}),
    ('["a"]', "expected a JSON object"),
    ('{"a": ' + "7" * 5000 + "}", "invalid JSON (Exceeds the limit (4300 digits) for integer "
     "string conversion: value has 5000 digits; use sys.set_int_max_str_digits() to increase "
     "the limit)"),
    ('{"a": ' + "[" * 100_000 + "]" * 100_000 + "}", "invalid JSON (nested too deeply)"),
    ('{"a": "tab\there"}', "invalid JSON (Invalid control character at)"),
    ('{"a": 1', "invalid JSON (Expecting ',' delimiter)"),
])
def test_read_jsonl_words_each_line_as_json_loads_does(tmp_path, line, verdict):
    assert _read_second_line(tmp_path / "rows.jsonl", line) == verdict == _loads_verdict(line)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.sampled_from(['{', '}', '"a"', '"é"', ':', ',', '1', '[', ']', ' ', '\t',
                                 '\x0c', '\x1c', '\ufeff', 'null', 'x']), max_size=10).map("".join))
def test_read_jsonl_agrees_with_json_loads_on_any_line(line):
    if not line.strip():
        return
    with tempfile.TemporaryDirectory() as tmp:
        assert _read_second_line(Path(tmp) / "rows.jsonl", line) == _loads_verdict(line)


@dataclasses.dataclass(frozen=True)
class _AnyRow:
    """A row type without fields: every JSON object is one."""


@settings(max_examples=60, deadline=None)
@given(st.booleans(), st.lists(st.tuples(
    st.dictionaries(st.text(max_size=3), st.text(max_size=4), max_size=2),
    st.sampled_from(["\n", "\r\n", "\r"]),
    st.sampled_from(["", "\n", " \r\n"]),
), max_size=5))
def test_read_records_spans_are_the_bytes_of_each_line(bom, rows):
    text = "\ufeff" * bom + "".join(
        blank + json.dumps(obj, ensure_ascii=False) + end for obj, end, blank in rows)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "rows.jsonl"
        path.write_bytes(text.encode("utf-8"))
        data = path.read_bytes()
        spans = list(read_records(path, _AnyRow, spans=True))
    assert len(spans) == len(rows)
    for (_, line, start, stop), (obj, _, _) in zip(spans, rows):
        assert data[start:stop].decode("utf-8") == line and json.loads(line) == obj
