"""What the CLI sets up in its process, and what importing it costs.

`cli.main` keeps glibc from trimming the heap between training steps; the
children that `sweep --jobs N` forks inherit that. Importing the CLI leaves out the modules that only
some commands use.
"""

import ctypes
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import pytest

import mixformer.cli as cli_mod

ROOT = Path(__file__).resolve().parents[1]

# Minor page faults per training step after 10 warm-up steps, measured over 50
# steps in this process and in the child of `fork_map` at jobs=2, which runs item 1 of 2.
FAULTS_PER_STEP = """
import json, resource, sys
import numpy as np
from mixformer import cli
from mixformer.data import batches
from mixformer.model import init_params
from mixformer.pool import fork_map
from mixformer.trainer import adam_update, train_step

cli._keep_heap()
with open(sys.argv[1], encoding="utf-8") as fh:
    cfg = cli.load_config(json.load(fh))
vocab, train_ds, _ = cli._load_task_data(cfg)


def faults_per_step():
    params = init_params(cfg.model_config(vocab.size))
    steps = batches(train_ds, cfg.train.batch_size, 0)
    rng = np.random.default_rng(0)

    def step(i):
        train_step(params, steps[i], True, cfg.train.mixup, dropout_rng=rng, mixup_rng=rng)
        adam_update(params, i + 1, cfg.train)

    for i in range(10):
        step(i)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for i in range(10, 60):
        step(i)
    return (resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 50


in_main, in_child = [faults for (faults,) in fork_map(lambda item: [faults_per_step()], [0, 1], 2)]
print(json.dumps({"main": in_main, "child": in_child}))
"""


def run_python(args, **kwargs):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=180, **kwargs)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="mallopt settings are glibc's")
def test_training_steps_do_not_fault_heap_pages(tmp_path):
    # The gen-synthetic defaults: batch 8, d_model 32, 2 layers. Without the
    # settings a step here takes 110 to 145 minor faults, a forked child's about 250.
    data = tmp_path / "data"
    assert cli_mod.main(["gen-synthetic", "--out", str(data)]) == 0
    faults = json.loads(run_python(["-c", FAULTS_PER_STEP, str(data / "config.json")]))
    assert faults["main"] < 2 and faults["child"] < 2, faults


def _raise(exc):
    def fake_cdll(name):
        raise exc
    return fake_cdll


@pytest.mark.parametrize("fake_cdll", [
    _raise(OSError("no such library")),
    _raise(TypeError("expected str, bytes or os.PathLike object, not NoneType")),
    lambda name: object(),
], ids=["raises-OSError", "raises-TypeError", "no-mallopt"])
def test_cli_runs_where_libc_has_no_mallopt(tmp_path, monkeypatch, fake_cdll):
    calls = []

    def recording_cdll(name):
        calls.append(name)
        return fake_cdll(name)

    monkeypatch.setattr(ctypes, "CDLL", recording_cdll)
    rc = cli_mod.main(["gen-synthetic", "--out", str(tmp_path / "g"), "--train-size", "20", "--dev-size", "4"])
    assert rc == 0 and calls == [None]
    assert (tmp_path / "g" / "config.json").exists()


def test_importing_the_cli_leaves_the_pool_modules_out():
    # train and eval fork nothing, so they should not pay for the sweep's fork_map, nor
    # for the imports of gradcheck, gen-synthetic, the sweep table and the unknown-key hint.
    loaded = run_python(["-c", "import sys, mixformer.cli; print(*sorted(sys.modules))"]).split()
    command_only = ("concurrent.futures", "multiprocessing", "mixformer.pool", "mixformer.checks",
                    "mixformer.synthetic", "csv", "difflib")
    assert [name for name in command_only if name in loaded] == []
    # The CLI's own import path, exactly: a module added to it costs every command its import.
    assert [name for name in loaded if name.startswith("mixformer.")] == [
        "mixformer.cli", "mixformer.data", "mixformer.errors", "mixformer.files", "mixformer.metrics",
        "mixformer.mixup", "mixformer.model", "mixformer.numerics", "mixformer.trainer"]
    # fork_map forks and pipes by hand: no process pool comes with it.
    loaded = run_python(["-c", "import sys, mixformer.pool; print(*sorted(sys.modules))"]).split()
    assert "mixformer.pool" in loaded
    assert [name for name in ("concurrent.futures", "multiprocessing") if name in loaded] == []
