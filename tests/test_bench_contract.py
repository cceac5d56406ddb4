"""The benchmark's output checks read what the program writes.

perfbench/verify.py reads run.json, eval's JSON line, and a sweep's
sweep.csv and runs/*.json. This runs a tiny train, eval and sweep through
those checks, and pins run.json's keys, so that a change to the run record
fails here before it fails the benchmark.
"""

import json
import sys
from pathlib import Path

import pytest

from mixformer.cli import main

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
import verify  # noqa: E402

RUN_KEYS = {"run_id", "mixup_enabled", "config", "config_hash", "vocab_size", "final_metric", "epochs"}
EPOCH_KEYS = {"epoch", "mixup_active", "mean_train_loss", "dev_metric", "wall_time_ms"}
TINY = ["--set", "model.d_model=8", "--set", "model.n_layers=1", "--set", "model.d_ff=16",
        "--set", "train.epochs=2"]


@pytest.fixture
def data(tmp_path):
    out = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(out), "--train-size", "40", "--dev-size", "12", "--seed", "3"]) == 0
    return out


def assert_run_keys(run):
    assert set(run) == RUN_KEYS
    for epoch in run["epochs"]:
        assert set(epoch) == EPOCH_KEYS


def test_train_and_eval_pass_the_benchmark_checks(data, tmp_path, capsys):
    out = tmp_path / "run"
    assert main(["train", "--config", str(data / "config.json"), "--out", str(out), *TINY]) == 0
    problems, run = verify.run_report(str(out), None, "last_half")
    assert problems == []
    assert_run_keys(run)
    assert [e["mixup_active"] for e in run["epochs"]] == [False, True]
    capsys.readouterr()
    assert main(["eval", "--config", str(data / "config.json"), *TINY, "--params", str(out / "params.mixf"),
                 "--vocab", str(out / "vocab.json"), "--dev", str(data / "dev.tsv")]) == 0
    problems, value = verify.eval_output(capsys.readouterr().out, 12)
    assert problems == [] and value == run["final_metric"]


def test_parallel_sweep_passes_the_benchmark_checks(data, tmp_path):
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", str(data / "config.json"), "--out", str(out), "--fractions", "0.5,1.0",
                 "--seeds", "1,2", "--jobs", "2", *TINY]) == 0
    problems, failed = verify.sweep_outputs(str(out), [0.5, 1.0], [1, 2], 2)
    assert problems == [] and failed == 0
    runs = sorted((out / "runs").glob("*.json"))
    assert len(runs) == 8
    for path in runs:
        assert_run_keys(json.loads(path.read_text()))
