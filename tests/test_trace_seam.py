"""The benchmark's tracer wraps module attributes the program calls through.

A refactor that calls an op by another path would silently drop its spans;
this runs a traced `train` with mixing on and checks every layer still shows.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

from mixformer.cli import main

ROOT = Path(__file__).resolve().parents[1]


def test_traced_train_reports_every_layer(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data), "--train-size", "24",
                 "--dev-size", "8", "--seed", "3"]) == 0
    spans_path = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans_path), "--",
         "train", "--config", str(data / "config.json"), "--out", str(tmp_path / "run"),
         "--set", "model.d_model=8", "--set", "model.d_ff=16", "--set", "train.epochs=1",
         "--set", "mixup.schedule=always"],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[2] for span in json.loads(spans_path.read_text())["spans"]}
    ops = [f"numerics.{op}" for op in ("matmul", "softmax_rows", "layer_norm", "gelu", "loss")]
    expected = {*ops, *(op + ".bwd" for op in ops), "model.encode.train", "model.head",
                "mixup.mix", "mixup.mix_labels", "trainer.adam", "trainer.evaluate"}
    assert expected <= names, sorted(expected - names)
