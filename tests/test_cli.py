import argparse
import contextlib
import csv
import gc
import json
import os
import runpy
import select
import shutil
import signal
import subprocess
import sys
import time
import weakref
from dataclasses import fields
from pathlib import Path

import pytest

import mixformer.checks as checks_mod
import mixformer.cli as cli_mod
import mixformer.trainer as trainer_mod
from mixformer.cli import DEFAULT_FRACTIONS, RunConfig, config_hash, load_config, main, normalized_config
from mixformer.data import LabelClasses, LabelRegression, TaskSpec
from mixformer.errors import InputError, NonFiniteLossError
from mixformer.mixup import BetaLambda, FixedLambda, MixupConfig
from mixformer.numerics import DualResult

ROOT = Path(__file__).resolve().parents[1]

SMALL_MODEL = [
    "--set", "model.d_model=16", "--set", "model.n_layers=1",
    "--set", "model.d_ff=32", "--set", "train.epochs=2",
    "--set", "train.learning_rate=0.002",
]


@pytest.fixture
def toy_dir(tmp_path):
    out = tmp_path / "toy"
    rc = main(["gen-synthetic", "--out", str(out), "--train-size", "64",
               "--dev-size", "24", "--noise", "0.0", "--seed", "3"])
    assert rc == 0
    return out


def read_json(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class TestGenSynthetic:
    def test_writes_all_files(self, toy_dir):
        assert (toy_dir / "train.tsv").exists()
        assert (toy_dir / "dev.tsv").exists()
        assert (toy_dir / "config.json").exists()
        assert len((toy_dir / "train.tsv").read_text().splitlines()) == 65  # header + rows

    def test_same_seed_identical_files(self, tmp_path):
        for name in ("a", "b"):
            main(["gen-synthetic", "--out", str(tmp_path / name), "--train-size", "30",
                  "--dev-size", "10", "--seed", "9"])
        assert (tmp_path / "a" / "train.tsv").read_bytes() == (tmp_path / "b" / "train.tsv").read_bytes()
        assert (tmp_path / "a" / "dev.tsv").read_bytes() == (tmp_path / "b" / "dev.tsv").read_bytes()

    def test_bad_noise_rejected(self, tmp_path):
        assert main(["gen-synthetic", "--out", str(tmp_path / "x"), "--noise", "0.9"]) == 2

    @pytest.mark.parametrize("under", ["", "x"], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_exits_2(self, tmp_path, capsys, under):
        out = tmp_path / "afile"
        out.write_text("taken")
        assert main(["gen-synthetic", "--out", str(out / under), "--train-size", "20", "--dev-size", "4"]) == 2
        assert "cannot create output directory" in capsys.readouterr().err
        assert out.read_text() == "taken"


class TestTrain:
    def test_writes_run_report_with_epoch_entries(self, toy_dir, tmp_path):
        out = tmp_path / "run"
        rc = main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), *SMALL_MODEL])
        assert rc == 0
        report = read_json(out / "run.json")
        assert len(report["epochs"]) == 2
        assert (out / "params.mixf").exists()
        assert (out / "vocab.json").exists()
        assert report["config_hash"] == config_hash(report["config"])
        # run.json echoes the normalized config: every default filled in.
        assert report["config"]["train"]["beta1"] == 0.9
        assert report["config"] == normalized_config(load_config(report["config"]))

    def test_missing_train_file_exits_2_naming_path(self, toy_dir, tmp_path, capsys):
        rc = main(["train", "--config", str(toy_dir / "config.json"),
                   "--set", "paths.train=/nowhere/gone.tsv", "--out", str(tmp_path / "r")])
        assert rc == 2
        assert "gone.tsv" in capsys.readouterr().err

    @pytest.mark.filterwarnings("ignore:'mixformer.cli' found in sys.modules")
    def test_runs_as_main_module_under_a_profiler(self, toy_dir, tmp_path, monkeypatch):
        # `python -m cProfile -m mixformer.cli` executes the module as
        # __main__ while sys.modules["__main__"] stays the profiler's.
        monkeypatch.setattr(sys, "argv", ["mixformer", "train", "--config", str(toy_dir / "config.json"),
                                          "--out", str(tmp_path / "run"), "--set", "train.epochs=1"])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("mixformer.cli", run_name="__main__", alter_sys=False)
        assert excinfo.value.code == 0
        assert (tmp_path / "run" / "run.json").exists()

    @pytest.mark.parametrize("under", ["", "x"], ids=["file", "under-file"])
    def test_out_that_cannot_be_a_directory_exits_2_before_training(self, toy_dir, tmp_path, monkeypatch,
                                                                     capsys, under):
        calls = []
        monkeypatch.setattr(cli_mod, "_execute_run", lambda *args: calls.append(args))
        out = tmp_path / "afile"
        out.write_text("taken")
        rc = main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out / under)])
        assert rc == 2 and calls == []
        assert "cannot create output directory" in capsys.readouterr().err

    def test_seed_flag_beats_config_seed(self, toy_dir, tmp_path):
        out = tmp_path / "seeded"
        main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out),
              "--seed", "123", *SMALL_MODEL])
        report = read_json(out / "run.json")
        assert report["config"]["train"]["seed"] == 123

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["train", "--config", str(bad)]) == 2
        assert "JSON" in capsys.readouterr().err

    def test_mixf_out_env_used_when_no_flag(self, toy_dir, tmp_path, monkeypatch):
        env_dir = tmp_path / "env-out"
        monkeypatch.setenv("MIXF_OUT", str(env_dir))
        rc = main(["train", "--config", str(toy_dir / "config.json"), *SMALL_MODEL])
        assert rc == 0
        assert (env_dir / "run.json").exists()

    def test_determinism_same_seed_bit_exact_metrics(self, toy_dir, tmp_path):
        reports = []
        for name in ("d1", "d2"):
            out = tmp_path / name
            main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), *SMALL_MODEL])
            rep = read_json(out / "run.json")
            for epoch in rep["epochs"]:
                epoch.pop("wall_time_ms")
            reports.append(rep)
        assert reports[0] == reports[1]

    def test_non_finite_step_exits_1_naming_epoch_and_step(self, toy_dir, tmp_path, monkeypatch, capsys):
        real, calls = trainer_mod.train_step, []

        def blows_up_at_step_2(*args, **kwargs):
            calls.append(None)
            if len(calls) == 2:
                raise NonFiniteLossError("non-finite values in tensor 'loss'")
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "train_step", blows_up_at_step_2)
        out = tmp_path / "run"
        rc = main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), *SMALL_MODEL])
        assert rc == 1
        assert "training failed: epoch 1, step 2: non-finite values in tensor 'loss'" in capsys.readouterr().err
        assert not (out / "run.json").exists()


class TestEval:
    def test_eval_reproduces_final_dev_metric(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), *SMALL_MODEL])
        capsys.readouterr()
        rc = main(["eval", "--config", str(toy_dir / "config.json"), *SMALL_MODEL,
                   "--params", str(out / "params.mixf"), "--vocab", str(out / "vocab.json"),
                   "--dev", str(toy_dir / "dev.tsv")])
        assert rc == 0
        result = json.loads(capsys.readouterr().out)
        report = read_json(out / "run.json")
        assert result["value"] == report["final_metric"]
        assert result["n"] == 24

    def test_wrong_vocab_size_names_expected_vs_found(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), *SMALL_MODEL])
        vocab = read_json(out / "vocab.json")
        smaller = {tok: i for tok, i in vocab.items() if i < len(vocab) + 1}  # drop the 3 highest ids
        small_path = tmp_path / "small-vocab.json"
        small_path.write_text(json.dumps(smaller))
        capsys.readouterr()
        rc = main(["eval", "--config", str(toy_dir / "config.json"), *SMALL_MODEL,
                   "--params", str(out / "params.mixf"), "--vocab", str(small_path),
                   "--dev", str(toy_dir / "dev.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "embed.tok" in err and "expected" in err

    @pytest.mark.parametrize("corrupt", [
        lambda v: sorted(v),  # a JSON list, not an object
        lambda v: {**v, next(iter(v)): 1000000},  # an id far past the embedding table
        lambda v: {**v, next(iter(v)): v[list(v)[1]]},  # two tokens share one id
    ], ids=["list", "id-out-of-range", "shared-id"])
    def test_malformed_vocab_exits_2(self, toy_dir, tmp_path, capsys, corrupt):
        out = tmp_path / "run"
        main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), *SMALL_MODEL])
        bad_path = tmp_path / "bad-vocab.json"
        bad_path.write_text(json.dumps(corrupt(read_json(out / "vocab.json"))))
        capsys.readouterr()
        rc = main(["eval", "--config", str(toy_dir / "config.json"), *SMALL_MODEL,
                   "--params", str(out / "params.mixf"), "--vocab", str(bad_path),
                   "--dev", str(toy_dir / "dev.tsv")])
        assert rc == 2
        assert "bad vocab file" in capsys.readouterr().err

    @pytest.mark.parametrize("params_name", ["missing.mixf", "."], ids=["missing", "directory"])
    def test_unreadable_params_exits_2(self, toy_dir, tmp_path, capsys, params_name):
        out = tmp_path / "run"
        main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), *SMALL_MODEL])
        capsys.readouterr()
        rc = main(["eval", "--config", str(toy_dir / "config.json"), *SMALL_MODEL,
                   "--params", str(out / params_name), "--vocab", str(out / "vocab.json"),
                   "--dev", str(toy_dir / "dev.tsv")])
        assert rc == 2
        assert "cannot read params" in capsys.readouterr().err

    def test_empty_dev_exits_2(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), *SMALL_MODEL])
        empty = tmp_path / "empty.tsv"
        empty.write_text("label\tsentence\n")
        rc = main(["eval", "--config", str(toy_dir / "config.json"), *SMALL_MODEL,
                   "--params", str(out / "params.mixf"), "--vocab", str(out / "vocab.json"),
                   "--dev", str(empty)])
        assert rc == 2


@pytest.mark.parametrize("labels,metric", [
    ({"kind": "classes", "n": 2}, "accuracy"),
    ({"kind": "regression", "min": 0, "max": 5}, "spearman"),
], ids=["classes", "regression"])
def test_pair_task_trains_and_evaluates(toy_dir, tmp_path, capsys, labels, metric):
    # The third column holds a word that no first sentence has.
    paths = {}
    for split, n in (("train", 16), ("dev", 6)):
        rows = [f"{i % 2 if labels['kind'] == 'classes' else i % 5 + 0.5}\t"
                f"{'superb vivid' if i % 2 else 'dull bleak'} movie\tsecondonly {'warm' if i % 2 else 'sour'}\n"
                for i in range(n)]
        paths[split] = tmp_path / f"pair-{split}.tsv"
        paths[split].write_text("label\tsentence1\tsentence2\n" + "".join(rows))
    cfg = read_json(toy_dir / "config.json")
    cfg["task"].update(input_arity="pair", labels=labels, metric=metric)
    cfg["task"]["columns"]["sentence2"] = 2
    cfg["paths"].update(train=str(paths["train"]), dev=str(paths["dev"]))
    config = tmp_path / "pair-config.json"
    config.write_text(json.dumps(cfg))
    out = tmp_path / "run"
    assert main(["train", "--config", str(config), "--out", str(out), *SMALL_MODEL]) == 0
    assert "secondonly" in read_json(out / "vocab.json")  # the vocabulary reads sentence2 too
    capsys.readouterr()
    rc = main(["eval", "--config", str(config), *SMALL_MODEL, "--params", str(out / "params.mixf"),
               "--vocab", str(out / "vocab.json"), "--dev", str(paths["dev"])])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    assert result["metric"] == metric and result["n"] == 6
    assert result["value"] == read_json(out / "run.json")["final_metric"]


def read_sweep_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def without_wall_times(report):
    for epoch in report["epochs"]:
        epoch.pop("wall_time_ms")
    return report


def count_calls(monkeypatch, module, name, path):
    """Wrap `module.name` so that each call, here or in a forked child, appends a byte to `path`."""
    real = getattr(module, name)

    def counted(*args, **kwargs):
        with open(path, "ab") as fh:
            fh.write(b".")
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def track_train_datasets(monkeypatch):
    """A list that gets a weak reference to each train Dataset `_load_task_data` returns."""
    refs, real = [], cli_mod._load_task_data

    def tracked(cfg):
        vocab, train_ds, dev_ds = real(cfg)
        refs.append(weakref.ref(train_ds))
        return vocab, train_ds, dev_ds

    monkeypatch.setattr(cli_mod, "_load_task_data", tracked)
    return refs


def assert_released(refs):
    """Every tracked train Dataset is gone once cyclic garbage is collected: the sweep keeps none."""
    gc.collect()
    assert refs and [ref() for ref in refs] == [None] * len(refs)


def child_pids(pid):
    return [int(child) for f in Path(f"/proc/{pid}/task").glob("*/children") for child in f.read_text().split()]


def start_40_cell_sweep(tmp_path, *prefix):
    """Start `sweep --jobs 2` over 40 cells in a session of its own, its stderr on a pipe, as
    the child of the command `prefix` when one is given. Once the first progress line has
    arrived, return the process started (`prefix`'s, when given), that pipe's read end, the
    sweep parent's child pids, the output directory and the monotonic time of the start.
    The sweep takes 5 to 6 s on 2 vCPUs, so it is still running 2 s after its start."""
    data = tmp_path / "data"
    assert main(["gen-synthetic", "--out", str(data), "--train-size", "1500", "--dev-size", "48",
                 "--seed", "3"]) == 0
    out = tmp_path / "sweep"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
    read_end, write_end = os.pipe()
    started = time.monotonic()
    proc = subprocess.Popen(
        [*prefix, sys.executable, "-m", "mixformer.cli", "sweep", "--config", str(data / "config.json"),
         "--out", str(out), "--arms", "both", "--seeds", "1,2", "--jobs", "2",
         "--set", "train.epochs=2", "--set", "model.max_len=16"],
        env=env, stdout=subprocess.DEVNULL, stderr=write_end, start_new_session=True)
    os.close(write_end)
    stderr = os.fdopen(read_end, "rb")
    try:
        assert stderr.readline().startswith(b"sweep: 1/40 ")
        (sweep,) = child_pids(proc.pid) if prefix else (proc.pid,)
        children = child_pids(sweep)
        assert len(children) == 1  # the parent runs units itself, beside one forked child
    except BaseException:
        stop_sweep(proc, stderr)
        raise
    return proc, stderr, children, out, started


def block_on_stderr(proc, stderr):
    """Fill the sweep's stderr pipe and wait until the parent blocks writing its next
    progress line, as under a slow reader of its output: outside any file write."""
    # A file description of our own, so that the parent's stays blocking.
    filler = os.open(f"/proc/self/fd/{stderr.fileno()}", os.O_WRONLY | os.O_NONBLOCK)
    for size in (4096, 1):
        with contextlib.suppress(BlockingIOError):
            while True:
                os.write(filler, b"x" * size)
    os.close(filler)
    wchan = Path(f"/proc/{proc.pid}/task/{proc.pid}/wchan")
    deadline = time.monotonic() + 30
    while "pipe_write" not in wchan.read_text():
        assert time.monotonic() < deadline, "the parent never blocked on its stderr"
        time.sleep(0.01)


def stop_outside_a_write(pid, runs):
    """SIGSTOP `pid` at a moment when no `.tmp` is in `runs`, so that it is not inside a write."""
    deadline = time.monotonic() + 30
    while True:
        os.kill(pid, signal.SIGSTOP)
        while process_state(pid) != "T":
            assert time.monotonic() < deadline, f"process {pid} never stopped"
            time.sleep(0.001)
        if not any(path.suffix == ".tmp" for path in runs.iterdir()):
            return
        os.kill(pid, signal.SIGCONT)
        time.sleep(0.005)


def stop_sweep(proc, stderr):
    """Kill whatever is left of the sweep's session, its orphans too."""
    with contextlib.suppress(ProcessLookupError):
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    stderr.close()


def process_state(pid):
    """The state letter of `pid` in /proc ("R", "S", "T", "Z", ...), or None once it is gone."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0]
    except FileNotFoundError:
        return None


def alive(pid):
    return process_state(pid) not in (None, "Z")


class TestSweep:
    def test_single_fraction_both_arms_with_delta(self, toy_dir, tmp_path):
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--fractions", "1.0", "--arms", "both", "--seeds", "5", *SMALL_MODEL])
        assert rc == 0
        rows = read_sweep_csv(out / "sweep.csv")
        assert len(rows) == 3
        arms = [r["arm"] for r in rows]
        assert arms == ["baseline", "mixup", "delta"]
        base, mixed, delta = (float(r["metric"]) for r in rows)
        assert delta == pytest.approx(mixed - base, abs=1e-15)
        run_files = list((out / "runs").glob("*.json"))
        assert len(run_files) == 2

    def test_default_fractions_cover_ten_percent_grid(self, toy_dir, tmp_path, monkeypatch):
        assert DEFAULT_FRACTIONS == [0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0]

        monkeypatch.setattr(cli_mod, "_run_sweep_cell",
                            lambda cfg, train_ds, dev_ds, vocab_size, runs_dir, state: (0.5, None))
        out = tmp_path / "sweep-default"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--arms", "baseline", "--seeds", "1"])
        assert rc == 0
        rows = read_sweep_csv(out / "sweep.csv")
        assert [float(r["fraction"]) for r in rows] == DEFAULT_FRACTIONS

    def test_shared_seed_means_shared_reduction_inputs(self, toy_dir, tmp_path, monkeypatch):
        recorded = []
        import mixformer.cli as cli
        real = cli.reduce_dataset

        def recording(ds, fraction, seed):
            recorded.append((fraction, seed))
            return real(ds, fraction, seed)

        monkeypatch.setattr(cli, "reduce_dataset", recording)
        out = tmp_path / "sweep-shared"
        main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
              "--fractions", "0.5", "--arms", "both", "--seeds", "7", *SMALL_MODEL])
        assert recorded == [(0.5, 7)]  # one reduction, which both arms of the group train on

    def test_failed_cell_recorded_and_sweep_continues(self, toy_dir, tmp_path, monkeypatch, capsys):
        calls = {"n": 0}
        real = cli_mod._execute_run

        def flaky(cfg, *args):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return real(cfg, *args)

        monkeypatch.setattr(cli_mod, "_execute_run", flaky)
        out = tmp_path / "sweep-flaky"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--fractions", "1.0", "--arms", "both", "--seeds", "3", *SMALL_MODEL])
        assert rc == 0
        rows = read_sweep_csv(out / "sweep.csv")
        statuses = [r["status"] for r in rows if r["arm"] != "delta"]
        assert statuses == ["error", "ok"]
        assert [r["metric"] for r in rows if r["status"] == "error"] == [""]
        assert not any(r["arm"] == "delta" for r in rows)  # baseline arm has no ok cell
        assert "boom" in capsys.readouterr().err

    def test_every_cell_failed_exits_1(self, toy_dir, tmp_path, monkeypatch):
        def failing(cfg, *args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "_execute_run", failing)
        train_datasets = track_train_datasets(monkeypatch)
        out = tmp_path / "sweep-failed"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--fractions", "1.0", "--arms", "both", "--seeds", "3"])
        assert rc == 1
        statuses = [r["status"] for r in read_sweep_csv(out / "sweep.csv")]
        assert statuses == ["error", "error"]
        assert_released(train_datasets)  # the datasets do not outlive the sweep

    def test_one_progress_line_per_cell(self, toy_dir, tmp_path, monkeypatch, capsys):
        real = cli_mod._execute_run

        def fail_first(cfg, *args):
            if cfg.fraction == 0.5:
                raise RuntimeError("boom")
            return real(cfg, *args)

        monkeypatch.setattr(cli_mod, "_execute_run", fail_first)
        out = tmp_path / "x"
        main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out), "--fractions", "0.5,1.0",
              "--arms", "mixup", "--seeds", "4", *SMALL_MODEL, "--set", "train.epochs=1"])
        metric = float(read_sweep_csv(out / "sweep.csv")[1]["metric"])
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("sweep: ")]
        assert lines == [
            "sweep: 1/2 fraction=0.5 arm=mixup seed=4 failed: RuntimeError: boom",
            f"sweep: 2/2 fraction=1 arm=mixup seed=4 accuracy={metric:.4f}",
        ]

    def test_interrupted_sweep_keeps_the_finished_run_files(self, toy_dir, tmp_path, monkeypatch):
        calls = []
        real = cli_mod._execute_run

        def interrupted(cfg, *args):
            calls.append(cfg)
            if len(calls) == 3:
                raise KeyboardInterrupt
            return real(cfg, *args)

        monkeypatch.setattr(cli_mod, "_execute_run", interrupted)
        train_datasets = track_train_datasets(monkeypatch)
        out = tmp_path / "sweep-interrupted"
        with pytest.raises(KeyboardInterrupt):
            main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                  "--fractions", "0.5,1.0", "--arms", "both", "--seeds", "2", *SMALL_MODEL,
                  "--set", "train.epochs=1"])
        assert len(calls) == 3
        assert_released(train_datasets)
        assert sorted(p.name for p in (out / "runs").iterdir()) == [
            "synthetic-keywords-f0.5-baseline-s2.json", "synthetic-keywords-f0.5-mixup-s2.json",
        ]
        for path in (out / "runs").iterdir():
            assert read_json(path)["run_id"] + ".json" == path.name
        assert not (out / "sweep.csv").exists()

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads child pids and states from /proc")
    def test_sigint_to_the_parent_alone_drops_the_cells_not_started(self, tmp_path):
        # The interrupt must land while the parent is outside the loop that waits
        # for results: a stderr pipe that nobody reads blocks it in its next
        # progress line, as a slow reader of its output would.
        proc, stderr, children, out, _ = start_40_cell_sweep(tmp_path)
        try:
            block_on_stderr(proc, stderr)
            proc.send_signal(signal.SIGINT)
            deadline, tail = time.monotonic() + 60, b""
            while select.select([stderr], [], [], max(0.0, deadline - time.monotonic()))[0]:
                chunk = stderr.read1()
                if not chunk:
                    break  # EOF: the parent and its child have closed the pipe
                tail = (tail + chunk)[-4096:]
            # On failure, show what the sweep printed last, after the filler.
            assert proc.wait(timeout=max(0.0, deadline - time.monotonic())) != 0, tail.decode(errors="replace")
        finally:
            stop_sweep(proc, stderr)
        assert not any(map(alive, children)), children
        assert 0 < len(list((out / "runs").iterdir())) < 40
        assert not (out / "sweep.csv").exists()

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="reads child pids and states from /proc")
    @pytest.mark.parametrize("sig", [signal.SIGTERM, signal.SIGKILL], ids=["SIGTERM", "SIGKILL"])
    def test_no_child_outlives_a_parent_killed_alone(self, tmp_path, sig):
        proc, stderr, children, out, _ = start_40_cell_sweep(tmp_path)
        try:
            # A kill inside a write leaves that file's .tmp, so neither process is in
            # one. Stopped, the child cannot leave through its own failed send: only
            # the signal the kernel sends it when its parent dies can end it.
            block_on_stderr(proc, stderr)
            stop_outside_a_write(children[0], out / "runs")
            proc.send_signal(sig)
            assert proc.wait(timeout=30) == -sig
            time.sleep(1)
            assert not any(map(alive, children)), children
        finally:
            stop_sweep(proc, stderr)
        runs = list((out / "runs").iterdir())
        assert 0 < len(runs) < 40 and all(path.suffix == ".json" for path in runs)  # no .tmp
        for path in runs:
            assert read_json(path)["run_id"] + ".json" == path.name
        assert not (out / "sweep.csv").exists()

    @pytest.mark.skipif(not Path("/proc/self/task").is_dir() or shutil.which("timeout") is None,
                        reason="reads child pids and states from /proc; runs the sweep under GNU timeout")
    @pytest.mark.parametrize("sig", ["INT", "TERM"])
    def test_timeouts_doubled_signal_ends_the_sweep_within_a_second(self, tmp_path, sig):
        # After 2 s, GNU timeout signals the sweep and then its whole process group, so the parent
        # gets the signal twice and its child once. A sweep still running 12 s later gets SIGKILL.
        proc, stderr, children, out, started = start_40_cell_sweep(tmp_path, "timeout", "-s", sig, "-k", "12", "2")
        try:
            assert proc.wait(timeout=30) == 124  # timed out, and the sweep ended before the SIGKILL
            ended = time.monotonic()
            time.sleep(1)
            assert not any(map(alive, children)), children
        finally:
            stop_sweep(proc, stderr)
        assert ended - started < 2 + 1
        runs = list((out / "runs").iterdir())
        assert 0 < len(runs) < 40 and all(path.suffix == ".json" for path in runs)  # no .tmp
        for path in runs:
            assert read_json(path)["run_id"] + ".json" == path.name
        assert not (out / "sweep.csv").exists()

    # A two-arm group under last_half trains epoch 1 of 3 once: 5 epochs where
    # two cells would train 6. Other schedules' first mixing epoch is epoch 1,
    # and a one-arm group has nothing to share.
    @pytest.mark.parametrize("arms,schedule,jobs,share", [
        ("both", "last_half", "1", (5, 6)),
        ("both", "last_half", "2", (5, 6)),  # 2 groups on 2 processes
        ("both", "last_half", "4", (1, 1)),  # fewer groups than jobs: the cells go out one by one
        ("both", "always", "1", (1, 1)),
        ("mixup", "last_half", "1", (1, 1)),
    ], ids=["last_half", "last_half-jobs2", "last_half-jobs4-one-by-one", "always", "mixup-arm-only"])
    def test_a_group_trains_the_epochs_its_arms_share_once(self, toy_dir, tmp_path, monkeypatch,
                                                           arms, schedule, jobs, share):
        config = str(toy_dir / "config.json")
        common = [*SMALL_MODEL, "--set", "train.epochs=3", "--set", f"mixup.schedule={schedule}"]
        steps, evals = tmp_path / "steps", tmp_path / "evals"
        count_calls(monkeypatch, trainer_mod, "adam_update", steps)
        count_calls(monkeypatch, trainer_mod, "evaluate", evals)

        def counts():
            n = (steps.stat().st_size, evals.stat().st_size)
            steps.write_bytes(b"")
            evals.write_bytes(b"")
            return n

        separate = {}
        for fraction in (0.5, 1.0):
            for arm in ("baseline", "mixup") if arms == "both" else (arms,):
                out = tmp_path / f"train-{fraction}-{arm}"
                assert main(["train", "--config", config, "--out", str(out), "--seed", "4", *common,
                             "--set", f"train.fraction={fraction}",
                             "--set", f"mixup.enabled={json.dumps(arm == 'mixup')}"]) == 0
                separate[f"synthetic-keywords-f{fraction:g}-{arm}-s4.json"] = without_wall_times(
                    read_json(out / "run.json"))
        separate_steps, separate_evals = counts()

        out = tmp_path / "sweep"
        assert main(["sweep", "--config", config, "--out", str(out), *common, "--fractions", "0.5,1.0",
                     "--arms", arms, "--seeds", "4", "--jobs", jobs]) == 0
        sweep_steps, sweep_evals = counts()
        assert sweep_steps * share[1] == separate_steps * share[0]
        assert sweep_evals * share[1] == separate_evals * share[0]
        # Every cell's run file is the standalone run's, outside wall times.
        assert {path.name: without_wall_times(read_json(path)) for path in (out / "runs").iterdir()} == separate

    def test_a_failure_in_the_shared_epochs_fails_both_arms(self, toy_dir, tmp_path, monkeypatch, capsys):
        real, calls = trainer_mod.evaluate, []

        def fails_once(*args):
            calls.append(args)
            if len(calls) == 1:  # the dev evaluation of epoch 1, which both arms share
                raise RuntimeError("boom")
            return real(*args)

        monkeypatch.setattr(trainer_mod, "evaluate", fails_once)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out), "--fractions", "1.0",
                   "--arms", "both", "--seeds", "3", *SMALL_MODEL, "--set", "train.epochs=3"])
        assert rc == 1 and len(calls) == 1
        assert [r["status"] for r in read_sweep_csv(out / "sweep.csv")] == ["error", "error"]
        assert list((out / "runs").iterdir()) == []
        lines = [line for line in capsys.readouterr().err.splitlines() if line.startswith("sweep: ")]
        assert lines == [
            "sweep: 1/2 fraction=1 arm=baseline seed=3 failed: RuntimeError: boom",
            "sweep: 2/2 fraction=1 arm=mixup seed=3 failed: RuntimeError: boom",
        ]

    def test_a_failure_after_the_branch_fails_only_that_arm(self, toy_dir, tmp_path, monkeypatch):
        real = trainer_mod.train_step

        def no_mixing(params, batch, mix_active, *args, **kwargs):
            if mix_active:
                raise RuntimeError("boom")
            return real(params, batch, mix_active, *args, **kwargs)

        monkeypatch.setattr(trainer_mod, "train_step", no_mixing)
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out), "--fractions", "1.0",
                   "--arms", "both", "--seeds", "3", *SMALL_MODEL, "--set", "train.epochs=3"])
        assert rc == 0
        assert [r["status"] for r in read_sweep_csv(out / "sweep.csv")] == ["ok", "error"]
        (run,) = (out / "runs").iterdir()
        assert run.name == "synthetic-keywords-f1-baseline-s3.json"
        assert len(read_json(run)["epochs"]) == 3

    @pytest.mark.parametrize("schedule", ["[5]", "[]"])
    def test_schedule_it_cannot_run_exits_2_before_any_cell(self, toy_dir, tmp_path, monkeypatch, capsys, schedule):
        calls = []
        monkeypatch.setattr(cli_mod, "_run_sweep_cell", lambda cfg, *rest: calls.append(cfg) or (0.5, None))
        out = tmp_path / "x"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--fractions", "0.5,1.0", "--set", f"mixup.schedule={schedule}"])
        assert rc == 2 and calls == [] and not out.exists()
        assert "mixup.schedule" in capsys.readouterr().err

    def test_fractions_that_name_the_same_run_exit_2_before_any_cell(self, toy_dir, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli_mod, "_execute_run", lambda *args: calls.append(args))
        out = tmp_path / "x"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--fractions", "0.1,0.1000001", "--arms", "baseline", "--seeds", "1"])
        assert rc == 2 and calls == [] and not out.exists()
        err = capsys.readouterr().err
        assert "0.1 " in err and "0.1000001" in err

    def test_bad_shared_config_exits_2_before_any_cell(self, toy_dir, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli_mod, "_run_sweep_cell", lambda cfg, *rest: calls.append(cfg) or (0.5, None))
        out = tmp_path / "sweep-bad"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--fractions", "0.5,1.0", "--arms", "both", "--seeds", "1",
                   "--set", "train.learning_rate=-1"])
        assert rc == 2
        assert calls == [] and not out.exists()
        assert "learning_rate" in capsys.readouterr().err

    def test_out_that_cannot_be_a_directory_exits_2_before_any_cell(self, toy_dir, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli_mod, "_execute_run", lambda *args: calls.append(args))
        afile = tmp_path / "afile"
        afile.write_text("taken")
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(afile / "x"),
                   "--fractions", "0.5,1.0", "--arms", "both", "--seeds", "1"])
        assert rc == 2 and calls == []
        assert "cannot create output directory" in capsys.readouterr().err

    @pytest.mark.parametrize("arms,jobs,unit_size", [
        ("baseline", "4", 1),  # 2 groups are fewer than 4 jobs, so the cells go out one by one
        ("both", "2", 2),  # 2 groups on 2 processes
    ], ids=["one-by-one", "groups"])
    def test_parallel_jobs_match_sequential(self, toy_dir, tmp_path, monkeypatch, capsys, arms, jobs, unit_size):
        import mixformer.pool as pool_mod

        payloads, forks, fork_counts = [], [], []
        real_fork_map, real_fork = pool_mod.fork_map, os.fork

        def recording_fork_map(fn, items, n_jobs):
            payloads.extend(items)
            return real_fork_map(fn, items, n_jobs)

        def counted_fork():
            forks.append(None)
            return real_fork()

        monkeypatch.setattr(pool_mod, "fork_map", recording_fork_map)
        monkeypatch.setattr(os, "fork", counted_fork)
        train_datasets = track_train_datasets(monkeypatch)
        csvs, runs, progress = [], [], []
        for name, n_jobs in (("seq", "1"), ("par", jobs)):
            out = tmp_path / name
            rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                       "--fractions", "0.5,1.0", "--arms", arms, "--seeds", "2",
                       "--jobs", n_jobs, *SMALL_MODEL])
            assert rc == 0
            assert_released(train_datasets)  # released after the sweep, with and without a child
            fork_counts.append(len(forks))
            forks.clear()
            csvs.append((out / "sweep.csv").read_bytes())
            reports = {}
            for path in sorted((out / "runs").glob("*.json")):
                report = read_json(path)
                for epoch in report["epochs"]:
                    epoch.pop("wall_time_ms")
                reports[path.name] = report
            runs.append(reports)
            progress.append([line for line in capsys.readouterr().err.splitlines() if line.startswith("sweep: ")])
        assert csvs[0] == csvs[1]
        assert len(runs[0]) == 2 * unit_size and runs[0] == runs[1]
        assert len(progress[0]) == 2 * unit_size and progress[0] == progress[1]
        # The datasets reach the child through fork; a payload is a unit's list of configs.
        assert len(payloads) == 2 * 2  # 2 units for each of the two sweeps
        assert all(type(p) is list and [type(c) for c in p] == [RunConfig] * unit_size for p in payloads)
        assert fork_counts == [0, 1]  # --jobs 1 forks nothing; 2 units fork min(jobs, 2) - 1 = 1 child

    def test_delta_sums_each_arm_in_seed_order(self, toy_dir, tmp_path, monkeypatch):
        # Seed s scores s / 10, plus 0.5 in the mixup arm: each arm's three scores
        # sum to other bits in reverse order, so only seed order gives the delta.
        monkeypatch.setattr(cli_mod, "_run_sweep_cell",
                            lambda cfg, *rest: (cfg.train.seed / 10 + 0.5 * cfg.train.mixup.enabled, None))
        out = tmp_path / "sweep"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--fractions", "0.5,1.0", "--arms", "both", "--seeds", "1,2,3", "--jobs", "2", *SMALL_MODEL])
        assert rc == 0
        rows = read_sweep_csv(out / "sweep.csv")
        for fraction in ("0.5", "1.0"):
            arm_rows = {arm: [r for r in rows if (r["fraction"], r["arm"]) == (fraction, arm)]
                        for arm in ("baseline", "mixup", "delta")}
            base, mixed = ([float(r["metric"]) for r in arm_rows[arm]] for arm in ("baseline", "mixup"))
            for arm, scores in (("baseline", base), ("mixup", mixed)):
                assert [r["seed"] for r in arm_rows[arm]] == ["1", "2", "3"]
                assert sum(scores) != sum(scores[::-1])
            assert float(arm_rows["delta"][0]["metric"]) == sum(mixed) / 3 - sum(base) / 3

    def test_negative_seed_exits_2_before_any_cell(self, toy_dir, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli_mod, "_run_sweep_cell", lambda cfg, *rest: calls.append(cfg) or (0.5, None))
        out = tmp_path / "x"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--fractions", "1.0", "--seeds", "3,-2"])
        assert rc == 2 and calls == [] and not out.exists()
        assert "train.seed" in capsys.readouterr().err

    def test_bad_fraction_rejected(self, toy_dir, tmp_path):
        assert main(["sweep", "--config", str(toy_dir / "config.json"),
                     "--out", str(tmp_path / "x"), "--fractions", "0.0,1.0"]) == 2

    @pytest.mark.parametrize("jobs", ["0", "-3"])
    def test_jobs_below_one_exits_2(self, toy_dir, tmp_path, monkeypatch, capsys, jobs):
        calls = []
        monkeypatch.setattr(cli_mod, "_run_sweep_cell", lambda cfg, *rest: calls.append(cfg))
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(tmp_path / "x"),
                   "--fractions", "1.0", "--jobs", jobs])
        assert rc == 2 and calls == []
        assert "--jobs" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,values,named", [
        ("--fractions", "0.05,0.1,0.05", "0.05"),
        ("--seeds", "11,4,11", "11"),
    ])
    def test_repeated_value_exits_2_naming_it(self, toy_dir, tmp_path, monkeypatch, capsys, flag, values, named):
        calls = []
        monkeypatch.setattr(cli_mod, "_run_sweep_cell", lambda cfg, *rest: calls.append(cfg))
        out = tmp_path / "x"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out), flag, values])
        assert rc == 2 and calls == [] and not out.exists()
        err = capsys.readouterr().err
        assert flag in err and named in err

    def test_non_numeric_fraction_exits_2(self, toy_dir, tmp_path, capsys):
        rc = main(["sweep", "--config", str(toy_dir / "config.json"),
                   "--out", str(tmp_path / "x"), "--fractions", "0.5,half"])
        assert rc == 2
        assert "--fractions" in capsys.readouterr().err


class TestGradcheckCommand:
    def test_passes_on_clean_build(self, capsys):
        assert main(["gradcheck"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 9 and "FAIL" not in out

    def test_corrupted_backward_fails_naming_op(self, monkeypatch, capsys):
        real = checks_mod.gelu

        def corrupted(x):
            dual = real(x)
            return DualResult(dual.output, lambda g: tuple(1.01 * a for a in dual.backward(g)))

        monkeypatch.setattr(checks_mod, "gelu", corrupted)
        assert main(["gradcheck"]) == 1
        captured = capsys.readouterr()
        assert "FAIL gelu" in captured.out
        assert "gelu" in captured.err


def test_set_override_parsing(toy_dir):
    args = argparse.Namespace(config=str(toy_dir / "config.json"),
                              set=["train.epochs=5", "task.name=demo", "mixup.enabled=false",
                                   "mixup.schedule=[2, 3]", "train.grad_clip_norm=null"],
                              seed=None)
    cfg = cli_mod._resolved_config(args)
    assert cfg.train.epochs == 5
    assert cfg.task.name == "demo"
    assert cfg.train.mixup.enabled is False
    assert cfg.train.mixup.schedule == (2, 3)
    assert cfg.train.grad_clip_norm is None
    assert cfg.train.seed == 3  # from the file


class TestConfigLoader:
    @pytest.mark.parametrize("override,named", [
        ("mixup.enabled=False", ["mixup.enabled"]),
        ('mixup.enabled="no"', ["mixup.enabled"]),
        ("train.epoch=1", ["train.epoch", "epochs"]),
        ("modle.d_model=8", ["modle", "model"]),
        ("train.epochs=2.7", ["train.epochs"]),
        ("train.epochs=true", ["train.epochs"]),
        ("task.labels.n=2.5", ["task.labels.n"]),
        ("train.seed=1.5", ["train.seed"]),
        ("mixup.schedule=[2.9]", ["mixup.schedule"]),
        ("mixup.schedule=[5]", ["mixup.schedule", "1..3"]),
        ("mixup.schedule=[]", ["mixup.schedule"]),
        ("mixup.lambda=true", ["mixup.lambda"]),
        ("train.seed=-1", ["train.seed"]),
        ("model.vocab_max_size=4", ["model.vocab_max_size"]),
        ("model.vocab_min_count=0", ["model.vocab_min_count"]),
        ("train.beta1=1", ["train.beta1", "[0, 1)"]),
        ("train.beta2=1.5", ["train.beta2", "[0, 1)"]),
        ("train.adam_eps=0", ["train.adam_eps"]),
        ("train.weight_decay=-1", ["train.weight_decay"]),
        ("mixup.alpha=0.4", ["config mixup takes either lambda (fixed) or alpha (beta), not both"]),  # beside lambda
    ])
    def test_config_it_cannot_honour_exits_2_naming_the_key(self, toy_dir, tmp_path, capsys, override, named):
        out = tmp_path / "out"
        rc = main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), "--set", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
        assert not out.exists()

    @pytest.mark.parametrize("kind", ["[1]", "{}"], ids=["list", "object"])
    def test_unhashable_label_kind_exits_2_naming_the_key(self, toy_dir, tmp_path, capsys, kind):
        out = tmp_path / "out"
        rc = main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--set", f"task.labels.kind={kind}"])
        assert rc == 2
        assert f"config task.labels.kind must be classes or regression, got {kind}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("column", ["sentence1", "label", "sentence2"])
    def test_negative_column_exits_2_naming_the_key(self, toy_dir, tmp_path, capsys, column):
        # -2 is the label column of the synthetic TSV's two, which a negative index would read.
        pair = ["--set", "task.input_arity=pair", "--set", "task.columns.sentence2=1"] if column == "sentence2" else []
        out = tmp_path / "out"
        rc = main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), *SMALL_MODEL, *pair,
                   "--set", f"task.columns.{column}=-2"])
        assert rc == 2
        assert f"task.columns.{column} must be >= 0, got -2" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_betas_and_weight_decay_load(self, toy_dir):
        cfg = json.loads((toy_dir / "config.json").read_text())
        cfg["train"].update(beta1=0, beta2=0, weight_decay=0)
        train = load_config(cfg).train
        assert (train.beta1, train.beta2, train.weight_decay) == (0.0, 0.0, 0.0)

    def test_negative_seed_flag_exits_2_naming_the_key(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), "--seed", "-1"]) == 2
        assert "train.seed" in capsys.readouterr().err
        assert not out.exists()

    def test_smallest_vocabulary_keeps_a_word(self, toy_dir):
        cfg = json.loads((toy_dir / "config.json").read_text())
        cfg["model"].update(vocab_max_size=5, vocab_min_count=1)
        assert load_config(cfg).vocab_max_size == 5

    def test_integral_float_is_an_int_and_int_a_float(self, toy_dir):
        cfg = json.loads((toy_dir / "config.json").read_text())
        cfg["train"].update(epochs=2.0, learning_rate=1)
        loaded = load_config(cfg)
        assert loaded.train.epochs == 2 and type(loaded.train.epochs) is int
        assert loaded.train.learning_rate == 1.0 and type(loaded.train.learning_rate) is float

    def test_missing_required_key_is_named(self, toy_dir):
        cfg = json.loads((toy_dir / "config.json").read_text())
        del cfg["task"]["columns"]["label"]
        with pytest.raises(InputError, match="task.columns.label"):
            load_config(cfg)

    # Short ids keep each test's full name within 100 characters.
    @pytest.mark.parametrize("arity", ["single", "pair"], ids=["one", "pair"])
    @pytest.mark.parametrize("policy,policy_cls", [
        ({"lambda": 0.3}, FixedLambda),
        ({"alpha": 0.4}, BetaLambda),
    ], ids=["fix", "beta"])
    @pytest.mark.parametrize("labels,metric", [
        ({"kind": "classes", "n": 3}, "accuracy"),
        ({"kind": "regression", "min": 0, "max": 5}, "spearman"),
    ], ids=["cls", "reg"])
    def test_normalized_config_loads_back_to_the_same_config(self, toy_dir, labels, metric, policy, policy_cls,
                                                             arity):
        cfg = json.loads((toy_dir / "config.json").read_text())
        cfg["mixup"] = {**policy, "schedule": [2, 3]}
        cfg["task"].update(labels=labels, metric=metric, input_arity=arity)
        if arity == "pair":
            cfg["task"]["columns"]["sentence2"] = 2
        loaded = load_config(cfg)
        assert type(loaded.train.mixup.lambda_policy) is policy_cls and loaded.task.input_arity == arity
        normalized = normalized_config(loaded)
        assert normalized["task"]["labels"] == labels
        again = load_config(json.loads(json.dumps(normalized)))
        assert again == loaded

    def test_every_field_the_loader_sets_has_exactly_one_key(self):
        # These fields are built from other rows; every other field is read from one key.
        built = {TaskSpec: {"label_kind"}, MixupConfig: {"lambda_policy"}, RunConfig: {"task", "model", "train"}}
        for cls in (TaskSpec, LabelClasses, LabelRegression, MixupConfig, FixedLambda, BetaLambda, RunConfig):
            rows = sorted(name for _, _, owner, name in cli_mod.KEYS if owner is cls)
            assert rows == sorted(f.name for f in fields(cls) if f.name not in built.get(cls, ())), cls.__name__
        assert len({(section, key) for section, key, *_ in cli_mod.KEYS}) == len(cli_mod.KEYS)

    def test_config_hash_names_the_run_not_its_spelling(self, toy_dir, tmp_path):
        hashes = {}
        for name, beta1 in (("omitted", []), ("spelled", ["--set", "train.beta1=0.9"]),
                            ("changed", ["--set", "train.beta1=0.95"])):
            out = tmp_path / name
            rc = main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out),
                       *SMALL_MODEL, "--set", "train.epochs=1", *beta1])
            assert rc == 0
            hashes[name] = read_json(out / "run.json")["config_hash"]
        assert hashes["omitted"] == hashes["spelled"]
        assert hashes["changed"] != hashes["omitted"]

    def test_readme_example_spells_out_every_default(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        block = readme.split("## Config file", 1)[1].split("```json", 1)[1].split("```", 1)[0]
        example = json.loads(block)
        normalized = normalized_config(load_config(example))
        # Its values are the defaults ...
        assert normalized == normalized_config(load_config({"task": example["task"], "paths": example["paths"]}))
        # ... and it names every key of the sections that have defaults.
        for section in ("model", "train", "mixup"):
            assert example[section] == normalized[section]
