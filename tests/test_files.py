import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

import mixformer.files as files_mod

SRC = Path(__file__).resolve().parents[1] / "src"

# Writes argv[1] through files.write, whose rename first sends SIGTERM to this process.
SIGTERM_IN_THE_RENAME = """
import os, signal, sys
import mixformer.files as files

real_replace = os.replace

def signalled_replace(src, dst):
    os.kill(os.getpid(), signal.SIGTERM)
    real_replace(src, dst)

files.os.replace = signalled_replace
files.write(sys.argv[1], "whole\\n" * 1000)
print("survived")
"""

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


def test_a_sigterm_inside_a_write_waits_for_the_rename_and_still_ends_the_process(tmp_path):
    path = tmp_path / "run.json"
    path.write_bytes(OLD)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", SIGTERM_IN_THE_RENAME, str(path)], env=env,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == -signal.SIGTERM, proc.stderr
    assert proc.stdout == ""
    assert path.read_bytes() == b"whole\n" * 1000
    assert list(tmp_path.iterdir()) == [path]
