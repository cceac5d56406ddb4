import json

import pytest

import mixformer.files as files_mod

OLD = b"task,fraction\r\nkeep,\x00\xff\n"


def test_a_write_that_fails_leaves_the_old_file_byte_for_byte(tmp_path):
    path = tmp_path / "sweep.csv"
    path.write_bytes(OLD)
    with pytest.raises(UnicodeEncodeError):  # raised inside fh.write, after the temp file is opened
        files_mod.write(path, "half\ud800")
    assert path.read_bytes() == OLD
    assert list(tmp_path.iterdir()) == [path]  # the temporary file is gone too


def test_an_interrupt_before_the_rename_leaves_the_old_file(tmp_path, monkeypatch):
    def interrupted(src, dst):
        raise KeyboardInterrupt

    monkeypatch.setattr(files_mod.os, "replace", interrupted)
    path = tmp_path / "run.json"
    path.write_bytes(OLD)
    with pytest.raises(KeyboardInterrupt):
        files_mod.write_json(path, {"new": 1})
    assert path.read_bytes() == OLD
    assert list(tmp_path.iterdir()) == [path]


def test_json_is_indented_sorted_and_ends_in_a_newline(tmp_path):
    path = tmp_path / "run.json"
    path.write_text("old")
    obj = {"b": [1.5], "a": {"d": None, "c": "é"}}
    files_mod.write_json(path, obj)
    assert path.read_text(encoding="utf-8") == (
        '{\n  "a": {\n    "c": "\\u00e9",\n    "d": null\n  },\n  "b": [\n    1.5\n  ]\n}\n'
    )
    assert json.loads(path.read_bytes()) == obj
