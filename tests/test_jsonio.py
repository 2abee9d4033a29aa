import json

import pytest

from clover_forge.errors import ManifestError
from clover_forge.jsonio import atomic_open, read_json, read_jsonl, write_json, write_jsonl


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


def _unserializable_row(path):
    write_jsonl(path, [{"a": 3}, {"a": object()}])


def _partial_write_fails(path):
    with atomic_open(path) as fh:
        fh.write("partial")
        raise OSError("disk full")


@pytest.mark.parametrize(
    "failing_write, error",
    [(_unserializable_row, TypeError), (_partial_write_fails, OSError)],
)
def test_failed_write_keeps_old_bytes_and_leaves_no_temp_file(tmp_path, failing_write, error):
    path = tmp_path / "out" / "rows.jsonl"
    write_jsonl(path, [{"a": 1}, {"a": 2}])
    before = path.read_bytes()
    with pytest.raises(error):
        failing_write(path)
    assert path.read_bytes() == before
    assert list(path.parent.iterdir()) == [path]
