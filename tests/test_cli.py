import argparse
import concurrent.futures
import csv
import json
from pathlib import Path

import pytest

import mixformer.checks as checks_mod
import mixformer.cli as cli_mod
from mixformer.cli import DEFAULT_FRACTIONS, config_hash, load_config, main, normalized_config
from mixformer.data import Dataset
from mixformer.errors import InputError
from mixformer.numerics import DualResult

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

    def test_seed_flag_beats_config_seed(self, toy_dir, tmp_path):
        out = tmp_path / "seeded"
        main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out),
              "--seed", "123", *SMALL_MODEL])
        report = read_json(out / "run.json")
        assert report["seed"] == 123
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
        smaller = dict(list(vocab.items())[:-3])
        small_path = tmp_path / "small-vocab.json"
        small_path.write_text(json.dumps(smaller))
        capsys.readouterr()
        rc = main(["eval", "--config", str(toy_dir / "config.json"), *SMALL_MODEL,
                   "--params", str(out / "params.mixf"), "--vocab", str(small_path),
                   "--dev", str(toy_dir / "dev.tsv")])
        assert rc == 2
        err = capsys.readouterr().err
        assert "embed.tok" in err and "expected" in err

    def test_empty_dev_exits_2(self, toy_dir, tmp_path, capsys):
        out = tmp_path / "run"
        main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), *SMALL_MODEL])
        empty = tmp_path / "empty.tsv"
        empty.write_text("label\tsentence\n")
        rc = main(["eval", "--config", str(toy_dir / "config.json"), *SMALL_MODEL,
                   "--params", str(out / "params.mixf"), "--vocab", str(out / "vocab.json"),
                   "--dev", str(empty)])
        assert rc == 2


def read_sweep_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


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

        def stub(payload):
            cfg, fraction, arm, seed, *_ = payload
            return {"fraction": fraction, "arm": arm, "seed": seed, "status": "ok",
                    "metric": 0.5, "report": {"run_id": f"stub-f{fraction:g}-{arm}-s{seed}"}}

        monkeypatch.setattr(cli_mod, "_run_sweep_cell", stub)
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
        assert recorded == [(0.5, 7), (0.5, 7)]

    def test_failed_cell_recorded_and_sweep_continues(self, toy_dir, tmp_path, monkeypatch, capsys):
        calls = {"n": 0}
        real = cli_mod._execute_run

        def flaky(cfg, train_ds, dev_ds, vocab_size):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("boom")
            return real(cfg, train_ds, dev_ds, vocab_size)

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
        def failing(cfg, train_ds, dev_ds, vocab_size):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli_mod, "_execute_run", failing)
        out = tmp_path / "sweep-failed"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--fractions", "1.0", "--arms", "both", "--seeds", "3"])
        assert rc == 1
        statuses = [r["status"] for r in read_sweep_csv(out / "sweep.csv")]
        assert statuses == ["error", "error"]

    def test_bad_shared_config_exits_2_before_any_cell(self, toy_dir, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli_mod, "_run_sweep_cell", lambda payload: calls.append(payload))
        out = tmp_path / "sweep-bad"
        rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                   "--fractions", "0.5,1.0", "--arms", "both", "--seeds", "1",
                   "--set", "train.learning_rate=-1"])
        assert rc == 2
        assert calls == [] and not out.exists()
        assert "learning_rate" in capsys.readouterr().err

    def test_parallel_jobs_match_sequential(self, toy_dir, tmp_path, monkeypatch):
        payloads = []

        class RecordingPool(concurrent.futures.ProcessPoolExecutor):
            def map(self, fn, *iterables, **kwargs):
                items = [list(it) for it in iterables]
                payloads.extend(items[0])
                return super().map(fn, *items, **kwargs)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        csvs, runs = [], []
        for name, jobs in (("seq", "1"), ("par", "2")):
            out = tmp_path / name
            rc = main(["sweep", "--config", str(toy_dir / "config.json"), "--out", str(out),
                       "--fractions", "0.5,1.0", "--arms", "baseline", "--seeds", "2",
                       "--jobs", jobs, *SMALL_MODEL])
            assert rc == 0
            csvs.append((out / "sweep.csv").read_bytes())
            reports = {}
            for path in sorted((out / "runs").glob("*.json")):
                report = read_json(path)
                for epoch in report["epochs"]:
                    epoch.pop("wall_time_ms")
                reports[path.name] = report
            runs.append(reports)
        assert csvs[0] == csvs[1]
        assert len(runs[0]) == 2 and runs[0] == runs[1]
        # The datasets reach the workers through the pool initializer.
        assert len(payloads) == 2
        assert not any(isinstance(x, Dataset) for p in payloads for x in p)

    def test_negative_seed_exits_2_before_any_cell(self, toy_dir, tmp_path, monkeypatch, capsys):
        calls = []
        monkeypatch.setattr(cli_mod, "_run_sweep_cell", lambda payload: calls.append(payload))
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
        monkeypatch.setattr(cli_mod, "_run_sweep_cell", lambda payload: calls.append(payload))
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
        monkeypatch.setattr(cli_mod, "_run_sweep_cell", lambda payload: calls.append(payload))
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
        ("mixup.lambda=true", ["mixup.lambda"]),
        ("train.seed=-1", ["train.seed"]),
        ("model.vocab_max_size=4", ["model.vocab_max_size"]),
        ("model.vocab_min_count=0", ["model.vocab_min_count"]),
    ])
    def test_config_it_cannot_honour_exits_2_naming_the_key(self, toy_dir, tmp_path, capsys, override, named):
        out = tmp_path / "out"
        rc = main(["train", "--config", str(toy_dir / "config.json"), "--out", str(out), "--set", override])
        assert rc == 2
        err = capsys.readouterr().err
        assert all(name in err for name in named), err
        assert not out.exists()

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

    def test_normalized_config_loads_back_to_the_same_config(self, toy_dir):
        cfg = json.loads((toy_dir / "config.json").read_text())
        cfg["mixup"] = {"alpha": 0.4, "schedule": [2, 3]}
        cfg["task"].update(labels={"kind": "regression", "min": 0, "max": 5}, metric="spearman")
        loaded = load_config(cfg)
        again = load_config(json.loads(json.dumps(normalized_config(loaded))))
        assert again == loaded

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
