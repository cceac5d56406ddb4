"""The benchmark's tracer wraps module attributes the program calls through.

A refactor that calls an op by another path would silently drop its spans;
this runs a traced `train` with mixing on and a traced `gradcheck`, and checks
that every layer still shows.
"""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

from mixformer.cli import main

ROOT = Path(__file__).resolve().parents[1]


def traced(spans_path, *cli_args):
    """Run the CLI under perfbench's tracer; returns the process and how often each span name shows."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracing.py"), str(spans_path), "--", *cli_args],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc, Counter(span[2] for span in json.loads(spans_path.read_text())["spans"])


def test_traced_train_reports_every_layer(tmp_path):
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data), "--train-size", "24",
                 "--dev-size", "8", "--seed", "3"]) == 0
    _, names = traced(
        tmp_path / "spans.json",
        "train", "--config", str(data / "config.json"), "--out", str(tmp_path / "run"),
        "--set", "model.d_model=8", "--set", "model.d_ff=16", "--set", "train.epochs=1",
        "--set", "mixup.schedule=always",
    )
    ops = [f"numerics.{op}" for op in ("matmul", "softmax_rows", "layer_norm", "gelu", "loss")]
    expected = {*ops, *(op + ".bwd" for op in ops), "model.encode.train", "model.encode.eval", "model.head",
                "mixup.mix", "mixup.mix_labels", "trainer.adam", "trainer.evaluate"}
    assert expected <= names.keys(), sorted(expected - names.keys())


def test_traced_gradcheck_passes_and_reports_the_model_ops(tmp_path):
    # gradcheck runs every check in this process, each through the
    # `checks.grad_check` seam, so the tracer sees the model's ops inside them.
    proc, names = traced(tmp_path / "spans.json", "gradcheck")
    assert proc.stdout.count("PASS ") == 9 and "FAIL" not in proc.stdout
    assert names["numerics.grad_check"] == 9
    assert {"numerics.gelu", "numerics.gelu.bwd", "model.encode.train"} <= names.keys()
