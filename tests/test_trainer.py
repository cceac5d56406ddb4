from dataclasses import replace

import numpy as np
import pytest

import mixformer.checks as checks_mod
import mixformer.trainer as trainer_mod
from mixformer.cli import load_config
from mixformer.data import LabelClasses, LabelRegression, TaskSpec, batches
from mixformer.errors import NonFiniteLossError
from mixformer.metrics import accuracy, matthews_corr, spearman_corr
from mixformer.mixup import BetaLambda, FixedLambda, MixPlan, MixupConfig, mix_labels, mix_representations
from mixformer.model import EncodedBatch, ModelConfig, Parameters, encode, head_forward, init_params
from mixformer.numerics import DualResult, cross_entropy_soft, grad_check
from mixformer.synthetic import SyntheticSpec, default_config, generate
from mixformer.trainer import TrainConfig, adam_update, evaluate, run_training, start_state, step_loss, train_step

from conftest import text_dataset

NO_MIX = MixupConfig(enabled=False)


def scalar_params(value: float) -> Parameters:
    cfg = ModelConfig(vocab_size=5, d_model=2, n_heads=1, n_layers=1, d_ff=2, max_len=4, seed=0)
    return Parameters(cfg, {"w": np.array([[value]])})


def test_train_config_defaults_are_fine_tuning_recipe():
    cfg = TrainConfig()
    assert (cfg.epochs, cfg.batch_size, cfg.learning_rate) == (3, 8, 2e-5)
    assert (cfg.beta1, cfg.beta2, cfg.adam_eps) == (0.9, 0.999, 1e-8)
    assert (cfg.weight_decay, cfg.grad_clip_norm) == (0.01, 1.0)
    mix = cfg.mixup
    assert mix.enabled and mix.schedule == "last_half"
    assert isinstance(mix.lambda_policy, FixedLambda) and mix.lambda_policy.value == 0.5


@pytest.mark.parametrize("schedule", [(), (4,), (1, 4)])
def test_train_config_rejects_a_schedule_it_cannot_run(schedule):
    with pytest.raises(ValueError, match=r"mixup\.schedule must name epochs within 1\.\.3"):
        TrainConfig(epochs=3, mixup=MixupConfig(schedule=schedule))


class TestAdamUpdate:
    def test_zero_gradients_no_decay_is_noop(self, tiny_params):
        before = {k: v.copy() for k, v in tiny_params.values.items()}
        assert not tiny_params.grad.any()  # a fresh buffer holds zero gradients
        adam_update(tiny_params, 1, TrainConfig(weight_decay=0.0))
        for name, arr in tiny_params.values.items():
            np.testing.assert_array_equal(arr, before[name])

    def test_first_step_matches_hand_recurrence(self):
        # w=0, g=1, lr=0.1: m_hat = 1, v_hat = 1, step = lr / (1 + eps)
        params = scalar_params(0.0)
        cfg = TrainConfig(learning_rate=0.1, weight_decay=0.0, grad_clip_norm=None)
        params.grads["w"][...] = 1.0
        adam_update(params, 1, cfg)
        beta1, beta2, eps = cfg.beta1, cfg.beta2, cfg.adam_eps
        m_hat = ((1 - beta1) * 1.0) / (1 - beta1)
        v_hat = ((1 - beta2) * 1.0) / (1 - beta2)
        expected = -cfg.learning_rate * m_hat / (np.sqrt(v_hat) + eps)
        assert params.values["w"][0, 0] == pytest.approx(expected, abs=1e-15)
        assert params.values["w"][0, 0] == pytest.approx(-0.0999999, abs=1e-6)

    def test_global_norm_clip_scales_gradients(self):
        cfg = ModelConfig(vocab_size=5, d_model=2, n_heads=1, n_layers=1, d_ff=2, max_len=4, seed=0)
        params = Parameters(cfg, {"w": np.array([[0.0]]), "g2": np.array([0.0, 0.0])})
        params.grads["g2"][...] = [6.0, 8.0]
        before = params.grad.tobytes()
        tcfg = TrainConfig(grad_clip_norm=1.0)
        adam_update(params, 1, tcfg)
        np.testing.assert_allclose(params.m, (1 - tcfg.beta1) * np.array([0.0, 0.6, 0.8]), rtol=1e-15)
        # clipping fired (norm 10 > 1) on a scratch copy: the gradient buffer is untouched
        assert params.grad.tobytes() == before

    def test_flat_update_matches_per_tensor_recurrence(self, tiny_params):
        # the per-tensor loop the flat update replaced, kept as the reference
        def reference_step(values, m, v, grads, step, cfg):
            grads = {k: g.copy() for k, g in grads.items()}
            total = float(np.sqrt(sum(float((g * g).sum()) for g in grads.values())))
            if total > cfg.grad_clip_norm:
                for g in grads.values():
                    g *= cfg.grad_clip_norm / total
            c1, c2 = 1.0 - cfg.beta1**step, 1.0 - cfg.beta2**step
            for name, g in grads.items():
                m[name] = cfg.beta1 * m[name] + (1.0 - cfg.beta1) * g
                v[name] = cfg.beta2 * v[name] + (1.0 - cfg.beta2) * g * g
                update = cfg.learning_rate * (m[name] / c1) / (np.sqrt(v[name] / c2) + cfg.adam_eps)
                if values[name].ndim >= 2:
                    update = update + cfg.learning_rate * cfg.weight_decay * values[name]
                values[name] = values[name] - update
            return total

        cfg = TrainConfig(learning_rate=0.05, weight_decay=0.1, grad_clip_norm=1.0)
        values = {k: w.copy() for k, w in tiny_params.values.items()}
        m = {k: np.zeros_like(w) for k, w in values.items()}
        v = {k: np.zeros_like(w) for k, w in values.items()}
        rng = np.random.default_rng(0)
        for step in (1, 2, 3):
            grads = {k: rng.normal(size=w.shape) for k, w in values.items()}
            assert reference_step(values, m, v, grads, step, cfg) > cfg.grad_clip_norm
            for name, g in grads.items():
                tiny_params.grads[name][...] = g
            adam_update(tiny_params, step, cfg)
        flat = lambda d: np.concatenate([d[k].ravel() for k in tiny_params.values])
        np.testing.assert_allclose(tiny_params.flat, flat(values), rtol=0, atol=1e-15)
        np.testing.assert_allclose(tiny_params.m, flat(m), rtol=0, atol=1e-15)
        np.testing.assert_allclose(tiny_params.v, flat(v), rtol=0, atol=1e-15)

    def test_decay_applies_to_matrices_only(self, tiny_params):
        before = {k: v.copy() for k, v in tiny_params.values.items()}
        cfg = TrainConfig(learning_rate=0.5, weight_decay=0.1)
        adam_update(tiny_params, 1, cfg)
        for name, arr in tiny_params.values.items():
            if arr.ndim >= 2:
                np.testing.assert_allclose(arr, before[name] * (1 - 0.5 * 0.1))
            else:
                np.testing.assert_array_equal(arr, before[name])

    def test_step_count_validated(self, tiny_params):
        with pytest.raises(ValueError, match="step_count"):
            adam_update(tiny_params, 0, TrainConfig())


class TestTrainStep:
    def test_disabled_matches_hand_composed_plain_step(self, tiny_params, tiny_batch):
        loss, grads = train_step(tiny_params, tiny_batch, False, NO_MIX)
        grads = {k: g.copy() for k, g in grads.items()}  # the backward below overwrites the views
        enc = encode(tiny_params, tiny_batch, train_mode=True)
        head = head_forward(tiny_params, enc.output)
        ce = cross_entropy_soft(head.output, tiny_batch.labels)
        assert loss == float(ce.output)
        (dlogits,) = ce.backward(1.0)
        (dpooled,) = head.backward(dlogits)
        enc.backward(dpooled)
        expected = tiny_params.grads
        assert set(grads) == set(expected)
        for name in grads:
            assert grads[name].tobytes() == expected[name].tobytes()

    def test_lambda_one_plan_loss_equals_plain_step(self, tiny_params, tiny_batch):
        plain_loss, _ = train_step(tiny_params, tiny_batch, False, NO_MIX)
        mixed_loss, _ = train_step(
            tiny_params, tiny_batch, True, MixupConfig(lambda_policy=FixedLambda(1.0)),
            plan=MixPlan(1.0, np.array([1, 0])),
        )
        assert mixed_loss == plain_loss

    def test_same_plan_applied_to_representations_and_labels(self, tiny_params, tiny_batch, monkeypatch):
        seen = {}

        def rec_mix(h, plan):
            seen["rep_plan"] = plan
            return mix_representations(h, plan)

        def rec_labels(y, plan):
            seen["label_plan"] = plan
            return mix_labels(y, plan)

        monkeypatch.setattr(trainer_mod, "mix_representations", rec_mix)
        monkeypatch.setattr(trainer_mod, "mix_labels", rec_labels)
        train_step(tiny_params, tiny_batch, True, MixupConfig(), mixup_rng=np.random.default_rng(0))
        assert seen["rep_plan"] is seen["label_plan"]

    def test_mix_gradients_reach_both_pair_members(self, tiny_params, tiny_batch):
        # identity perm vs swap perm must produce different gradients at lam != 1
        _, g_swap = train_step(
            tiny_params, tiny_batch, True, MixupConfig(),
            plan=MixPlan(0.5, np.array([1, 0])),
        )
        g_swap = {k: v.copy() for k, v in g_swap.items()}
        _, g_id = train_step(
            tiny_params, tiny_batch, True, MixupConfig(),
            plan=MixPlan(0.5, np.array([0, 1])),
        )
        assert any(not np.array_equal(g_swap[k], g_id[k]) for k in g_swap)

    def test_nonfinite_abort_names_first_bad_tensor(self, tiny_params, tiny_batch):
        tiny_params.values["embed.tok"][4, :] = np.inf
        with np.errstate(invalid="ignore"), pytest.raises(NonFiniteLossError, match="encoder.pooled"):
            train_step(tiny_params, tiny_batch, False, NO_MIX)

    @pytest.mark.parametrize("mix", [False, True])
    def test_train_step_is_step_loss_forward_then_backward(self, tiny_params, tiny_batch, mix):
        cfg = MixupConfig(lambda_policy=FixedLambda(0.35))
        plan = MixPlan(0.35, np.array([1, 0])) if mix else None
        loss, grads = train_step(tiny_params, tiny_batch, mix, cfg, plan=plan)
        grads = {k: g.copy() for k, g in grads.items()}
        step = step_loss(tiny_params, tiny_batch, mix, cfg, plan=plan)
        assert step.output == loss
        (flat_grad,) = step.backward(1.0)
        assert flat_grad is tiny_params.grad
        expected = tiny_params.grads
        assert set(grads) == set(expected) == set(tiny_params.values)
        for name in grads:
            np.testing.assert_array_equal(grads[name], expected[name])

    @pytest.mark.parametrize("mix", [False, True])
    def test_model_step_check_runs_forward_passes_and_one_backward(self, monkeypatch, mix):
        # Counted in evaluated copies: a stacked call evaluates one per copy.
        counts = {"forward": 0, "backward": 0}

        def counting(*args, **kwargs):
            step = step_loss(*args, **kwargs)
            counts["forward"] += np.size(step.output)

            def backward(g):
                counts["backward"] += 1
                return step.backward(g)

            return DualResult(step.output, backward)

        monkeypatch.setattr(checks_mod, "step_loss", counting)
        checks_mod._model_step_error(mix)
        n_params = checks_mod._tiny_setup(mix)[0].flat.size
        assert n_params == 778
        assert counts == {"forward": 2 + 2 * n_params, "backward": 1}

    @pytest.mark.parametrize("head,labels,n_coords", [
        ("classification", [[1.0, 0.0], [0.0, 1.0]], 1378),
        ("regression", [[0.2], [1.4]], 1369),
    ])
    def test_two_layer_step_with_dropout_and_mixing_passes_gradient_check(
        self, tiny_config, tiny_batch, head, labels, n_coords
    ):
        # The chain between blocks, the last block's position-0 pruning,
        # dropout's backward and both heads; every evaluation redraws the same
        # dropout masks from a fresh generator.
        cfg = replace(tiny_config, n_layers=2, head=head, dropout_rate=0.1)
        params = init_params(cfg)
        assert params.flat.size == n_coords
        batch = EncodedBatch(tiny_batch.token_ids, tiny_batch.attention_mask, np.array(labels))
        mix_cfg = MixupConfig(lambda_policy=FixedLambda(0.35))
        plan = MixPlan(0.35, np.array([1, 0]))

        def f(flat):
            return step_loss(Parameters(cfg, params.values, flat), batch, True, mix_cfg,
                             np.random.default_rng(11), plan=plan)

        assert grad_check(f, [params.flat], h=1e-5) < 1e-6

    @pytest.mark.parametrize("head,labels", [
        ("classification", [[1.0, 0.0], [0.0, 1.0]]),
        ("regression", [[0.2], [1.4]]),
    ])
    def test_stacked_step_loss_equals_each_copy_bitwise(self, tiny_config, tiny_batch, head, labels):
        cfg = replace(tiny_config, n_layers=2, head=head, dropout_rate=0.1)
        params = init_params(cfg)
        batch = EncodedBatch(tiny_batch.token_ids, tiny_batch.attention_mask, np.array(labels))
        mix_cfg = MixupConfig(lambda_policy=FixedLambda(0.35))
        plan = MixPlan(0.35, np.array([1, 0]))
        stack = params.flat + np.random.default_rng(6).normal(0.0, 0.05, (5, params.flat.size))

        def loss(flat):
            return step_loss(Parameters(cfg, params.values, flat), batch, True, mix_cfg,
                             np.random.default_rng(11), plan=plan)

        stacked = loss(stack)
        assert stacked.output.shape == (5,)
        for copy, value in zip(stack, stacked.output):
            single = loss(copy).output
            assert isinstance(single, float) and value.tobytes() == np.float64(single).tobytes()
        assert len(set(stacked.output.tolist())) == 5
        with pytest.raises(AttributeError, match="grads"):
            stacked.backward(1.0)

    def test_consecutive_steps_reuse_the_views_and_overwrite_them(self, tiny_params, tiny_batch):
        cfg = MixupConfig(lambda_policy=FixedLambda(0.35))
        tiny_params.grad[...] = np.nan  # every coordinate must be written, none accumulated
        _, first = train_step(tiny_params, tiny_batch, True, cfg, plan=MixPlan(0.35, np.array([1, 0])))
        assert np.isfinite(tiny_params.grad).all()
        first_values = {k: g.copy() for k, g in first.items()}
        _, second = train_step(tiny_params, tiny_batch, False, NO_MIX)
        assert all(second[name] is first[name] for name in tiny_params.values)
        assert all(np.shares_memory(g, tiny_params.grad) for g in second.values())
        _, fresh = train_step(init_params(tiny_params.config), tiny_batch, False, NO_MIX)
        for name in second:
            assert second[name].tobytes() == fresh[name].tobytes()
        assert any(not np.array_equal(first_values[k], second[k]) for k in second)

    def test_regression_path_uses_mse(self, tiny_batch):
        cfg = ModelConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=1, d_ff=16,
                          max_len=4, head="regression", dropout_rate=0.0, seed=3)
        params = init_params(cfg)
        batch = EncodedBatch(tiny_batch.token_ids, tiny_batch.attention_mask,
                             np.array([[0.2], [1.4]]))
        loss, grads = train_step(params, batch, True, MixupConfig(),
                                 plan=MixPlan(0.5, np.array([1, 0])))
        assert np.isfinite(loss)
        assert grads["head.w"].shape == (8, 1)


def quick_task_data(n_train=360, n_dev=120, noise=0.0, seed=5):
    spec = SyntheticSpec(n_train=n_train, n_dev=n_dev, noise=noise, seed=seed)
    train_rows, dev_rows = generate(spec)
    task = load_config(default_config("train.tsv", "dev.tsv", "out", seed)).task
    train_ds, vocab = text_dataset(train_rows, task)
    dev_ds, _ = text_dataset(dev_rows, task, split="dev", vocab=vocab)
    return train_ds, dev_ds, vocab


def quick_model_config(vocab, seed=0, dropout=0.0):
    return ModelConfig(vocab_size=vocab.size, d_model=16, n_heads=2, n_layers=1,
                       d_ff=32, max_len=16, dropout_rate=dropout, seed=seed)


def quick_train_config(seed=0, epochs=3, mixup=NO_MIX):
    return TrainConfig(epochs=epochs, batch_size=8, learning_rate=2e-3, seed=seed, mixup=mixup)


class TestRunTraining:
    def test_last_half_schedule_flags(self):
        train_ds, dev_ds, vocab = quick_task_data(n_train=48, n_dev=16)
        _, reports = run_training(
            quick_model_config(vocab),
            quick_train_config(mixup=MixupConfig(schedule="last_half")),
            train_ds, dev_ds,
        )
        assert [r.mixup_active for r in reports] == [False, True, True]

    @pytest.mark.parametrize("policy", [FixedLambda(0.3), BetaLambda(0.4)], ids=["fixed", "beta"])
    def test_loss_targets_are_distributions(self, policy, monkeypatch):
        # cross_entropy_soft does not check its targets: batches and mix_labels
        # must hand it distributions, the short last batch included.
        train_ds, dev_ds, vocab = quick_task_data(n_train=45, n_dev=16)
        seen = []

        def recording_loss(logits, targets):
            seen.append(np.array(targets))
            return cross_entropy_soft(logits, targets)

        monkeypatch.setattr(trainer_mod, "cross_entropy_soft", recording_loss)
        mixup = MixupConfig(lambda_policy=policy, schedule="always")
        run_training(quick_model_config(vocab), quick_train_config(epochs=2, mixup=mixup), train_ds, dev_ds)
        assert len(seen) == 12 and [t.shape[0] for t in seen[:6]] == [8] * 5 + [5]
        assert any(((t > 0.0) & (t < 1.0)).any() for t in seen)  # mixing made soft rows
        for t in seen:
            np.testing.assert_allclose(t.sum(axis=1), 1.0, rtol=0, atol=1e-12)
            assert (t >= 0.0).all() and (t <= 1.0).all()

    def test_deterministic_given_seed(self):
        train_ds, dev_ds, vocab = quick_task_data(n_train=48, n_dev=16)
        mcfg, tcfg = quick_model_config(vocab, dropout=0.1), quick_train_config(mixup=MixupConfig())
        p1, r1 = run_training(mcfg, tcfg, train_ds, dev_ds)
        p2, r2 = run_training(mcfg, tcfg, train_ds, dev_ds)
        for name in p1.values:
            assert p1.values[name].tobytes() == p2.values[name].tobytes()
        for a, b in zip(r1, r2):
            assert (a.epoch, a.mixup_active, a.mean_train_loss) == (b.epoch, b.mixup_active, b.mean_train_loss)
            assert a.dev_metric == b.dev_metric

    def test_a_run_split_at_an_epoch_continues_bit_exactly_from_a_copy(self):
        # Beta draws in epoch 1 advance the mixing stream before the split.
        train_ds, dev_ds, vocab = quick_task_data(n_train=48, n_dev=16)
        mcfg = quick_model_config(vocab, dropout=0.1)
        tcfg = quick_train_config(mixup=MixupConfig(lambda_policy=BetaLambda(0.4), schedule=(1, 3)))
        p_whole, r_whole = run_training(mcfg, tcfg, train_ds, dev_ds)
        state = start_state(mcfg, tcfg.seed)
        run_training(mcfg, tcfg, train_ds, dev_ds, state, stop=1)
        branch = state.copy()
        for params, reports in (run_training(mcfg, tcfg, train_ds, dev_ds, state),
                                run_training(mcfg, tcfg, train_ds, dev_ds, branch)):
            for now, whole in zip((params.flat, params.m, params.v), (p_whole.flat, p_whole.m, p_whole.v)):
                assert now.tobytes() == whole.tobytes()
            assert [replace(r, wall_time_ms=0) for r in reports] == [replace(r, wall_time_ms=0) for r in r_whole]

    def test_learns_separable_task(self):
        train_ds, dev_ds, vocab = quick_task_data()
        _, reports = run_training(
            quick_model_config(vocab), quick_train_config(), train_ds, dev_ds
        )
        assert reports[-1].dev_metric >= 0.95

    def test_loss_decreases_in_most_transitions_both_arms(self):
        train_ds, dev_ds, vocab = quick_task_data()
        for mix in (NO_MIX, MixupConfig()):
            _, reports = run_training(
                quick_model_config(vocab), quick_train_config(epochs=4, mixup=mix),
                train_ds, dev_ds,
            )
            losses = [r.mean_train_loss for r in reports]
            drops = sum(1 for a, b in zip(losses, losses[1:]) if b < a)
            assert drops >= 2, f"losses {losses}"

    def test_compute_parity_same_step_count(self, monkeypatch):
        train_ds, dev_ds, vocab = quick_task_data(n_train=50, n_dev=16)
        calls = []
        real = trainer_mod.train_step

        def counting(*args, **kwargs):
            calls.append(1)
            return real(*args, **kwargs)

        monkeypatch.setattr(trainer_mod, "train_step", counting)
        run_training(quick_model_config(vocab), quick_train_config(mixup=NO_MIX), train_ds, dev_ds)
        baseline_steps = len(calls)
        calls.clear()
        run_training(quick_model_config(vocab), quick_train_config(mixup=MixupConfig()), train_ds, dev_ds)
        assert len(calls) == baseline_steps

    def test_disabled_equals_fixed_lambda_one_bitwise(self):
        train_ds, dev_ds, vocab = quick_task_data(n_train=64, n_dev=16)
        mcfg = quick_model_config(vocab, dropout=0.1)
        p_off, r_off = run_training(mcfg, quick_train_config(mixup=NO_MIX), train_ds, dev_ds)
        lam1 = MixupConfig(enabled=True, lambda_policy=FixedLambda(1.0), schedule="always")
        p_one, r_one = run_training(mcfg, quick_train_config(mixup=lam1), train_ds, dev_ds)
        for name in p_off.values:
            assert p_off.values[name].tobytes() == p_one.values[name].tobytes()
        assert [r.mean_train_loss for r in r_off] == [r.mean_train_loss for r in r_one]

    def test_failure_carries_epoch_and_step_context(self, monkeypatch):
        train_ds, dev_ds, vocab = quick_task_data(n_train=24, n_dev=16)

        def boom(*args, **kwargs):
            raise NonFiniteLossError("non-finite values in tensor 'loss'")

        monkeypatch.setattr(trainer_mod, "train_step", boom)
        with pytest.raises(NonFiniteLossError, match="epoch 1, step 1"):
            run_training(quick_model_config(vocab), quick_train_config(), train_ds, dev_ds)

    def test_nonfinite_gradient_aborts_before_adam_changes_state(self, monkeypatch):
        train_ds, dev_ds, vocab = quick_task_data(n_train=24, n_dev=16)
        real_encode, real_init, real_adam = trainer_mod.encode, trainer_mod.init_params, trainer_mod.adam_update
        created, snapshots, backward_calls = [], [], []

        def nan_on_third_backward(*args, **kwargs):
            enc = real_encode(*args, **kwargs)

            def backward(g):
                enc.backward(g)
                backward_calls.append(1)
                if len(backward_calls) == 3:
                    grads = args[0].grads
                    grads["pooler.w"][0, 0] = np.inf
                    grads["layer0.ffn.w1"][1, 2] = np.nan

            return DualResult(enc.output, backward)

        def recording_adam(params, *args):
            real_adam(params, *args)
            snapshots.append((params.flat.copy(), params.m.copy(), params.v.copy()))

        monkeypatch.setattr(trainer_mod, "init_params", lambda cfg: created.append(real_init(cfg)) or created[-1])
        monkeypatch.setattr(trainer_mod, "encode", nan_on_third_backward)
        monkeypatch.setattr(trainer_mod, "adam_update", recording_adam)
        with pytest.raises(NonFiniteLossError, match=r"epoch 1, step 3: .*gradient .*'layer0\.ffn\.w1'"):
            run_training(quick_model_config(vocab), quick_train_config(), train_ds, dev_ds)
        (params,) = created
        assert len(snapshots) == 2
        for now, then in zip((params.flat, params.m, params.v), snapshots[-1]):
            assert now.tobytes() == then.tobytes()

    def test_task_mismatch_rejected(self):
        train_ds, dev_ds, vocab = quick_task_data(n_train=24, n_dev=16)
        other = TaskSpec("other", "single", LabelRegression(0, 1), "spearman", 1, 0)
        dev_ds2 = type(dev_ds)(other, dev_ds.examples, "dev")
        with pytest.raises(ValueError, match="share a task"):
            run_training(quick_model_config(vocab), quick_train_config(), train_ds, dev_ds2)


class TestEvaluate:
    def test_untrained_balanced_accuracy_near_half(self):
        train_ds, dev_ds, vocab = quick_task_data(n_train=24, n_dev=240)
        values = []
        for seed in range(5):
            params = init_params(quick_model_config(vocab, seed=seed))
            values.append(evaluate(params, dev_ds))
        # 5 seeds x 240 balanced examples: 3 sigma of a fair coin mean
        sigma = (0.25 / (5 * 240)) ** 0.5
        assert abs(np.mean(values) - 0.5) < max(3 * sigma, 0.05)

    def test_repeatable(self, tiny_params):
        train_ds, dev_ds, vocab = quick_task_data(n_train=24, n_dev=32)
        params = init_params(quick_model_config(vocab))
        assert evaluate(params, dev_ds) == evaluate(params, dev_ds)

    def test_metric_dispatch(self):
        def metric_of_outputs(params, ds, metric):
            (batch,) = batches(ds, 32)  # every row has the same length: evaluate's one batch, in order
            out = head_forward(params, encode(params, batch).output).output
            preds = np.argmax(out, axis=1).tolist() if ds.task.is_classification else out[:, 0].tolist()
            return metric(preds, [ex.label for ex in ds.examples])

        reg_task = TaskSpec("reg", "single", LabelRegression(0.0, 4.0), "spearman", 1, 0)
        rows = [(float(i % 5), f"word{i % 7} filler") for i in range(20)]
        reg_ds, vocab = text_dataset(rows, reg_task, split="dev")
        cfg = ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=1,
                          d_ff=16, max_len=16, head="regression", seed=0)
        params = init_params(cfg)
        assert evaluate(params, reg_ds) == metric_of_outputs(params, reg_ds, spearman_corr)

        mcc_task = TaskSpec("cola-like", "single", LabelClasses(2), "matthews", 1, 0)
        rows = [(i % 2, f"word{i % 7} filler") for i in range(20)]
        mcc_ds, vocab2 = text_dataset(rows, mcc_task, split="dev")
        cfg2 = ModelConfig(vocab_size=vocab2.size, d_model=8, n_heads=2, n_layers=1,
                           d_ff=16, max_len=16, seed=0)
        params2 = init_params(cfg2)
        assert evaluate(params2, mcc_ds) == metric_of_outputs(params2, mcc_ds, matthews_corr)

    @pytest.mark.parametrize("metric", ["accuracy", "matthews", "spearman"])
    def test_length_order_leaves_metric_bit_identical(self, metric, monkeypatch):
        rng = np.random.default_rng(6)
        if metric == "spearman":
            task = TaskSpec("reg", "single", LabelRegression(0.0, 4.0), metric, 1, 0)
            labels = rng.uniform(0.0, 4.0, 90)
        else:
            n = 3 if metric == "accuracy" else 2
            task = TaskSpec("cls", "single", LabelClasses(n), metric, 1, 0)
            labels = rng.integers(0, n, 90)
        rows = [(lab, " ".join(f"w{j}" for j in rng.integers(0, 40, rng.integers(1, 14)))) for lab in labels]
        ds, vocab = text_dataset(rows, task, max_len=16, split="dev")
        lengths = [ex.token_ids.size for ex in ds.examples]
        assert lengths != sorted(lengths)
        params = init_params(ModelConfig(
            vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_len=16,
            head="classification" if task.is_classification else "regression",
            n_classes=task.label_kind.n if task.is_classification else 2, seed=1,
        ))

        # Reference: every row in dataset order, batches of 32.
        preds, golds = [], []
        for batch in batches(ds, 32):
            out = head_forward(params, encode(params, batch).output).output
            if task.is_classification:
                preds += [int(i) for i in np.argmax(out, axis=1)]
                golds += [int(i) for i in np.argmax(batch.labels, axis=1)]
            else:
                preds += [float(v) for v in out[:, 0]]
                golds += [float(v) for v in batch.labels[:, 0]]
        reference = {"accuracy": accuracy, "matthews": matthews_corr, "spearman": spearman_corr}[metric]
        expected = reference(preds, golds)

        seen = []

        def recording_batches(*args):
            out = batches(*args)
            seen.extend(out)
            return out

        monkeypatch.setattr(trainer_mod, "batches", recording_batches)
        assert evaluate(params, ds) == expected
        evaluated = [int(n) for b in seen for n in b.attention_mask.sum(axis=1)]
        assert evaluated == sorted(lengths)
        assert [b.token_ids.shape[0] for b in seen] == [32, 32, 26]

    def test_empty_dev_rejected(self, tiny_params):
        train_ds, dev_ds, vocab = quick_task_data(n_train=24, n_dev=16)
        empty = type(dev_ds)(dev_ds.task, [], "dev")
        params = init_params(quick_model_config(vocab))
        with pytest.raises(ValueError, match="empty"):
            evaluate(params, empty)
