"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion lines.
"""

import csv
import json
import math
import time

import numpy as np
import pytest

from mixformer.checks import gradient_check_suite
from mixformer.cli import load_config, main
from mixformer.data import load_tsv, reduce_dataset
from mixformer.metrics import accuracy, matthews_corr, pearson_corr, spearman_corr
from mixformer.mixup import (
    BetaLambda,
    FixedLambda,
    MixPlan,
    MixupConfig,
    is_active,
    mix_labels,
    mix_representations,
    sample_lambda,
)
from mixformer.model import ModelConfig
from mixformer.numerics import cross_entropy_soft, softmax_rows
from mixformer.trainer import TrainConfig, run_training

from conftest import text_dataset
from test_metrics import oracle_accuracy, oracle_matthews, oracle_pearson, oracle_spearman


def report(line: str) -> None:
    print(f"ACCEPTANCE PASS: {line}")


# ------------------------------------------------------------------ 1

def test_gradient_fidelity():
    t0 = time.perf_counter()
    results = gradient_check_suite()
    elapsed = time.perf_counter() - t0
    for r in results:
        assert r.ok, f"{r.name}: {r.max_rel_error:.3e} (tol {r.tolerance:g})"
        report(f"gradient fidelity: {r.name} {r.max_rel_error:.2e} < {r.tolerance:g}")
    assert elapsed < 60.0
    report(f"gradient fidelity: {len(results)} checks in {elapsed:.1f}s")


# ------------------------------------------------------------------ 2

def test_mixup_algebra():
    rng = np.random.default_rng(42)

    # lambda endpoints reproduce unmixed batches (bitwise at lambda = 1)
    for _ in range(100):
        b, d = int(rng.integers(1, 9)), int(rng.integers(1, 8))
        h = rng.uniform(-5, 5, (b, d))
        perm = rng.permutation(b)
        at_one = mix_representations(h, MixPlan(1.0, perm)).output
        assert at_one.tobytes() == h.tobytes()
        at_zero = mix_representations(h, MixPlan(0.0, perm)).output
        np.testing.assert_array_equal(at_zero, h[perm])

    # mixed label rows stay distributions
    for _ in range(200):
        b, c = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        labels = np.zeros((b, c))
        labels[np.arange(b), rng.integers(0, c, b)] = 1.0
        mixed = mix_labels(labels, MixPlan(float(rng.uniform(0, 1)), rng.permutation(b)))
        assert np.all(np.abs(mixed.sum(axis=1) - 1.0) <= 1e-12)

    # cross-entropy exactly linear in the target argument, 1000 trials
    worst_linearity = 0.0
    for _ in range(1000):
        b, c = int(rng.integers(1, 9)), int(rng.integers(2, 6))
        z = rng.uniform(-4, 4, (b, c))
        p = softmax_rows(rng.uniform(-2, 2, (b, c))).output
        q = softmax_rows(rng.uniform(-2, 2, (b, c))).output
        lam = float(rng.uniform(0, 1))
        lhs = cross_entropy_soft(z, lam * p + (1 - lam) * q).output
        rhs = lam * cross_entropy_soft(z, p).output + (1 - lam) * cross_entropy_soft(z, q).output
        worst_linearity = max(worst_linearity, abs(lhs - rhs))
    assert worst_linearity < 1e-12

    # gradient routing vs a brute-force two-input oracle
    for _ in range(200):
        b, d = int(rng.integers(1, 7)), int(rng.integers(1, 5))
        h = rng.uniform(-2, 2, (b, d))
        perm = rng.permutation(b)
        lam = float(rng.uniform(0, 1))
        g = rng.uniform(-2, 2, (b, d))
        (analytic,) = mix_representations(h, MixPlan(lam, perm)).backward(g)
        oracle = np.zeros((b, d))
        for k in range(b):
            oracle[k] += lam * g[k]
            oracle[perm[k]] += (1.0 - lam) * g[k]
        np.testing.assert_allclose(analytic, oracle, atol=1e-14)

    report(f"mixup algebra: endpoints, label rows, CE linearity ({worst_linearity:.1e}), routing")


# ------------------------------------------------------------------ 3

def test_lambda_sampling():
    fixed = MixupConfig(lambda_policy=FixedLambda(0.5))
    rng = np.random.default_rng(0)
    assert all(sample_lambda(fixed, rng) == 0.5 for _ in range(1000))

    stats = []
    for alpha in (0.2, 1.0, 5.0):
        cfg = MixupConfig(lambda_policy=BetaLambda(alpha))
        rng = np.random.default_rng(314)
        draws = np.array([sample_lambda(cfg, rng) for _ in range(100_000)])
        expected_var = 1.0 / (4.0 * (2.0 * alpha + 1.0))
        assert abs(draws.mean() - 0.5) < 0.01, f"alpha={alpha} mean {draws.mean()}"
        assert abs(draws.var() - expected_var) < 0.1 * expected_var, (
            f"alpha={alpha} var {draws.var()} vs {expected_var}"
        )
        stats.append(f"a={alpha:g}: mean {draws.mean():.4f}, var {draws.var():.4f}")
    report(f"lambda sampling: Fixed(0.5) exact; Beta {'; '.join(stats)}")


# ------------------------------------------------------------------ 4

def test_metric_oracles():
    rng = np.random.default_rng(99)
    for trial in range(1000):
        n = int(rng.integers(2, 40))
        pred_b = list(rng.integers(0, 2, n))
        gold_b = list(rng.integers(0, 2, n))
        if trial % 5 == 0:
            pred_b = [1] * n  # degenerate single-class predictor
        assert abs(accuracy(pred_b, gold_b) - oracle_accuracy(pred_b, gold_b)) < 1e-12
        assert abs(matthews_corr(pred_b, gold_b) - oracle_matthews(pred_b, gold_b)) < 1e-12

        # scalar lists with deliberate ties via a coarse grid
        pred_s = list(rng.integers(0, 6, n).astype(float))
        gold_s = list(np.round(rng.normal(size=n), 1))
        assert abs(pearson_corr(pred_s, gold_s) - oracle_pearson(pred_s, gold_s)) < 1e-12
        import warnings
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            assert abs(spearman_corr(pred_s, gold_s) - oracle_spearman(pred_s, gold_s)) < 1e-12
    report("metric oracles: accuracy/matthews/pearson/spearman vs brute force, 1000 instances")


# ------------------------------------------------------------------ 5

def test_activation_schedule():
    last_half = MixupConfig(schedule="last_half")
    assert [is_active(e, 3, last_half) for e in (1, 2, 3)] == [False, True, True]
    assert [is_active(e, 4, last_half) for e in (1, 2, 3, 4)] == [False, False, True, True]
    explicit = MixupConfig(schedule=(1, 3))
    assert [is_active(e, 3, explicit) for e in (1, 2, 3)] == [True, False, True]
    disabled = MixupConfig(enabled=False, schedule="always")
    assert not any(is_active(e, 3, disabled) for e in (1, 2, 3))
    report("schedule: last_half floor rule [F,T,T] for 3 epochs; epoch_set override honored")


# ------------------------------------------------------------------ 6 and 7

@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    root = tmp_path_factory.mktemp("experiment")
    data_dir = root / "data"
    sweep_dir = root / "sweep"
    assert main(["gen-synthetic", "--out", str(data_dir), "--train-size", "2000",
                 "--dev-size", "500", "--noise", "0.1", "--seed", "7"]) == 0
    t0 = time.perf_counter()
    rc = main(["sweep", "--config", str(data_dir / "config.json"), "--out", str(sweep_dir),
               "--fractions", "0.1,0.5,1.0", "--arms", "both", "--seeds", "1,2,3"])
    elapsed = time.perf_counter() - t0
    assert rc == 0
    with open(sweep_dir / "sweep.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    return {"data": data_dir, "sweep": sweep_dir, "rows": rows, "elapsed": elapsed}


def test_end_to_end_desk_scale_experiment(experiment):
    rows = experiment["rows"]
    cells = [r for r in rows if r["arm"] in ("baseline", "mixup")]
    deltas = [r for r in rows if r["arm"] == "delta"]
    assert len(cells) == 18, f"expected 18 cells, found {len(cells)}"
    assert all(r["status"] == "ok" for r in cells)
    assert len(deltas) == 3

    for run_file in (experiment["sweep"] / "runs").glob("*.json"):
        run = json.loads(run_file.read_text())
        assert len(run["epochs"]) == 3
        assert all(math.isfinite(e["mean_train_loss"]) for e in run["epochs"]), run_file.name

    full = {
        arm: [float(r["metric"]) for r in cells if r["arm"] == arm and float(r["fraction"]) == 1.0]
        for arm in ("baseline", "mixup")
    }
    assert len(full["baseline"]) == len(full["mixup"]) == 3
    assert min(full["baseline"]) >= 0.95, f"baseline at 100%: {full['baseline']}"
    assert min(full["mixup"]) >= 0.90, f"mixup at 100%: {full['mixup']}"
    assert experiment["elapsed"] < 600.0

    # direction of the delta is reported, not asserted
    directions = {float(r["fraction"]): float(r["metric"]) for r in deltas}
    report(
        "end-to-end: 18/18 cells ok, baseline@1.0 "
        f"{min(full['baseline']):.3f}, mixup@1.0 {min(full['mixup']):.3f}, "
        f"deltas {directions}, {experiment['elapsed']:.0f}s"
    )


def test_determinism_and_parity(experiment):
    data_dir = experiment["data"]
    config = str(data_dir / "config.json")

    # repeating a run with the same seed reproduces run.json metrics bit-exactly
    reports = []
    for name in ("repeat-a", "repeat-b"):
        out = experiment["sweep"] / name
        rc = main(["train", "--config", config, "--out", str(out),
                   "--seed", "11", "--set", "train.fraction=0.5"])
        assert rc == 0
        rep = json.loads((out / "run.json").read_text())
        for epoch in rep["epochs"]:
            epoch.pop("wall_time_ms")
        reports.append(rep)
    assert reports[0] == reports[1]

    # arms sharing a reduction seed train on identical subsets
    cfg = json.loads((data_dir / "config.json").read_text())
    task = load_config(cfg).task
    from mixformer.data import build_vocab, corpus_texts
    vocab = build_vocab(corpus_texts(data_dir / "train.tsv", task))
    train_ds = load_tsv(data_dir / "train.tsv", task, vocab, cfg["model"]["max_len"])
    a = reduce_dataset(train_ds, 0.5, seed=11)
    b = reduce_dataset(train_ds, 0.5, seed=11)
    assert [ex.token_ids.tobytes() for ex in a.examples] == [
        ex.token_ids.tobytes() for ex in b.examples
    ]
    for arm in ("baseline", "mixup"):
        run = json.loads(
            (experiment["sweep"] / "runs" / f"synthetic-keywords-f0.5-{arm}-s2.json").read_text()
        )
        assert run["config"]["train"]["seed"] == 2
        assert run["config"]["train"]["fraction"] == 0.5

    # a mixup-disabled run is bit-identical to a fixed lambda = 1 run
    from mixformer.synthetic import SyntheticSpec, generate
    train_rows, dev_rows = generate(SyntheticSpec(n_train=160, n_dev=40, noise=0.0, seed=5))
    small_train, small_vocab = text_dataset(train_rows, task)
    small_dev, _ = text_dataset(dev_rows, task, split="dev", vocab=small_vocab)
    mcfg = ModelConfig(vocab_size=small_vocab.size, d_model=16, n_heads=2, n_layers=1,
                       d_ff=32, max_len=16, dropout_rate=0.1, seed=0)
    base = TrainConfig(epochs=3, batch_size=8, learning_rate=2e-3, seed=0,
                       mixup=MixupConfig(enabled=False))
    lam1 = TrainConfig(epochs=3, batch_size=8, learning_rate=2e-3, seed=0,
                       mixup=MixupConfig(enabled=True, lambda_policy=FixedLambda(1.0), schedule="always"))
    p_off, r_off = run_training(mcfg, base, small_train, small_dev)
    p_one, r_one = run_training(mcfg, lam1, small_train, small_dev)
    for name in p_off.values:
        assert p_off.values[name].tobytes() == p_one.values[name].tobytes()
    assert [r.mean_train_loss for r in r_off] == [r.mean_train_loss for r in r_one]
    assert [r.dev_metric for r in r_off] == [r.dev_metric for r in r_one]

    report("determinism & parity: bit-exact repeats, shared reduction subsets, "
           "disabled == lambda-1 runs")
