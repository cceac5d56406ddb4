import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

import mixformer.model as model_mod
from mixformer.data import (PAD_ID, Dataset, LabelClasses, LabelRegression, TaskSpec, batches, build_vocab,
                            encode_example)
from mixformer.errors import InputError
from mixformer.model import (
    EncodedBatch,
    ModelConfig,
    Parameters,
    encode,
    head_forward,
    init_params,
    load_params,
    param_shapes,
    save_params,
    sinusoidal_positions,
)
from mixformer.mixup import MixupConfig
from mixformer.numerics import DualResult, grad_check
from mixformer.trainer import step_loss

from conftest import text_dataset


def full_sequence_pooled(W, ids, mask, n_heads):
    """Eval-mode pooled output in plain NumPy, every position through every block."""
    b, L = ids.shape
    d = W["embed.tok"].shape[1]
    dh = d // n_heads

    def norm(x, gain, bias):
        xc = x - x.mean(axis=-1, keepdims=True)
        return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + 1e-5) * gain + bias

    def heads(x):
        return x.reshape(b, L, n_heads, dh).transpose(0, 2, 1, 3)

    pos = np.arange(L)[:, None] / 10000.0 ** (np.arange(0, d, 2)[None, :] / d)
    x = W["embed.tok"][ids] * math.sqrt(d)
    x[:, :, 0::2] += np.sin(pos)
    x[:, :, 1::2] += np.cos(pos)
    n_layers = sum(1 for k in W if k.endswith(".attn.wq"))
    for i in range(n_layers):
        p = f"layer{i}."
        q, k, v = (heads(x @ W[p + f"attn.w{t}"] + W[p + f"attn.b{t}"]) for t in "qkv")
        scores = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
        scores = np.where(mask[:, None, None, :] == 1, scores, -np.inf)
        attn = np.exp(scores - scores.max(axis=-1, keepdims=True))
        attn /= attn.sum(axis=-1, keepdims=True)
        ctx = (attn @ v).transpose(0, 2, 1, 3).reshape(b, L, d)
        x = norm(x + ctx @ W[p + "attn.wo"] + W[p + "attn.bo"], W[p + "attn.ln.gain"], W[p + "attn.ln.bias"])
        u = x @ W[p + "ffn.w1"] + W[p + "ffn.b1"]
        act = 0.5 * u * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (u + 0.044715 * u**3)))
        x = norm(x + act @ W[p + "ffn.w2"] + W[p + "ffn.b2"], W[p + "ffn.ln.gain"], W[p + "ffn.ln.bias"])
    return np.tanh(x[:, 0] @ W["pooler.w"] + W["pooler.b"])


def six_rows_and_a_two_layer_model():
    """Six dev rows of 4 to 7 tokens at max_len 16, and a 2-layer d=8 model over their vocabulary."""
    rows = [(i % 2, " ".join(["tok"] * (1 + i % 4) + [f"w{i}"])) for i in range(6)]
    task = TaskSpec("pad", "single", LabelClasses(2), "accuracy", 1, 0)
    ds, vocab = text_dataset(rows, task, max_len=16, split="dev")
    return ds, init_params(ModelConfig(vocab_size=vocab.size, d_model=8, n_heads=2, n_layers=2,
                                       d_ff=16, max_len=16, seed=4))


def ragged_rows_and_a_random_model(n_layers, arity, head):
    """Eleven dev rows, single or pair input, whose sentences grow from 1 to 6
    words every two rows, and a model with uniform(-0.5, 0.5) weights over
    their vocabulary, at dropout 0. Its head width 6 has an inexact square
    root, so a rewritten attention scale shows in the last bits."""
    rng = np.random.default_rng(10 * n_layers + (arity == "pair") + 2 * (head == "regression"))
    pair = arity == "pair"
    if head == "classification":
        task = TaskSpec("t", arity, LabelClasses(3), "accuracy", 1, 0, 2 if pair else None)
    else:
        task = TaskSpec("t", arity, LabelRegression(0.0, 1.0), "spearman", 1, 0, 2 if pair else None)

    def sentence(i):
        return " ".join(f"w{j}" for j in rng.integers(0, 15, 1 + i // 2))

    rows = [(sentence(i), sentence(i) if pair else None, i % 3 if head == "classification" else i / 10)
            for i in range(11)]
    vocab = build_vocab([s for s1, s2, _ in rows for s in (s1, s2) if s is not None])
    ds = Dataset(task, [encode_example(vocab, task, s1, s2, label, 14) for s1, s2, label in rows], "dev")
    cfg = ModelConfig(vocab_size=vocab.size, d_model=12, n_heads=2, n_layers=n_layers, d_ff=16, max_len=14,
                      head=head, n_classes=3, dropout_rate=0.0, seed=n_layers)
    params = init_params(cfg)
    params.flat[...] = rng.uniform(-0.5, 0.5, params.flat.size)
    return ds, params


def peak_traced_bytes(fn) -> int:
    """The highest number of bytes traced by `tracemalloc` at once during `fn()`."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestConfig:
    def test_heads_must_divide_d_model(self):
        with pytest.raises(ValueError, match="divisible"):
            ModelConfig(vocab_size=10, d_model=10, n_heads=3)

    def test_classification_needs_two_classes(self):
        with pytest.raises(ValueError, match="n_classes"):
            ModelConfig(vocab_size=10, head="classification", n_classes=1)

    def test_max_len_default_is_128(self):
        assert ModelConfig(vocab_size=10).max_len == 128


class TestInitParams:
    def test_same_seed_bit_identical(self, tiny_config):
        a = init_params(tiny_config)
        b = init_params(tiny_config)
        for name in a.values:
            assert a.values[name].tobytes() == b.values[name].tobytes()

    def test_layer_norm_gains_exactly_one(self, tiny_params):
        for name, arr in tiny_params.values.items():
            if name.endswith("ln.gain"):
                assert np.all(arr == 1.0)
            elif arr.ndim == 1:
                assert np.all(arr == 0.0)

    def test_xavier_uniform_stddev(self):
        # std of uniform(-a, a) is a/sqrt(3) with a = sqrt(6/(fan_in+fan_out))
        cfg = ModelConfig(vocab_size=10, d_model=64, n_heads=2, n_layers=1, d_ff=64, seed=5)
        w = init_params(cfg).values["pooler.w"]
        assert w.shape == (64, 64)
        expected = math.sqrt(6.0 / (64 + 64)) / math.sqrt(3.0)
        assert abs(w.std() - expected) < 0.2 * expected

    def test_moments_and_named_values_share_flat_layout(self, tiny_config, tiny_params):
        shapes = param_shapes(tiny_config)
        n = sum(math.prod(shape) for shape in shapes.values())
        assert tiny_params.flat.shape == tiny_params.m.shape == tiny_params.v.shape == (n,)
        assert not tiny_params.m.any() and not tiny_params.v.any()
        off = 0
        for name, arr in tiny_params.values.items():
            assert arr.shape == shapes[name]
            assert arr.base is tiny_params.flat
            size = arr.size
            np.testing.assert_array_equal(tiny_params.flat[off : off + size], arr.ravel())
            assert np.all(tiny_params.matrix_mask[off : off + size] == float(arr.ndim >= 2))
            off += size
        assert off == n


class TestEncode:
    def test_identical_rows_identical_outputs(self, tiny_params):
        batch = EncodedBatch(
            token_ids=np.array([[2, 4, 5, 3], [2, 4, 5, 3]]),
            attention_mask=np.ones((2, 4), dtype=np.int64),
            labels=np.zeros((2, 2)),
        )
        pooled = encode(tiny_params, batch).output
        assert pooled[0].tobytes() == pooled[1].tobytes()

    def test_pad_token_id_cannot_affect_output(self, tiny_params):
        ids = np.array([[2, 4, 3, 0], [2, 5, 3, 0]])
        mask = np.array([[1, 1, 1, 0], [1, 1, 1, 0]])
        base = encode(tiny_params, EncodedBatch(ids, mask, np.zeros((2, 2)))).output
        ids2 = ids.copy()
        ids2[:, 3] = 9  # different token under the mask
        changed = encode(tiny_params, EncodedBatch(ids2, mask, np.zeros((2, 2)))).output
        assert base.tobytes() == changed.tobytes()

    def test_batch_permutation_equivariance(self, tiny_params):
        rng = np.random.default_rng(0)
        ids = rng.integers(4, 11, (5, 4))
        ids[:, 0] = 2
        mask = np.ones((5, 4), dtype=np.int64)
        mask[2, 3] = 0
        ids[2, 3] = 0
        batch = EncodedBatch(ids, mask, np.zeros((5, 2)))
        pooled = encode(tiny_params, batch).output
        perm = np.array([3, 0, 4, 1, 2])
        permuted = encode(
            tiny_params, EncodedBatch(ids[perm], mask[perm], np.zeros((5, 2)))
        ).output
        assert permuted.tobytes() == pooled[perm].tobytes()

    def test_attention_rows_sum_to_one_and_masked_keys_get_nothing(
        self, tiny_config, tiny_batch, monkeypatch
    ):
        captured = []
        real = model_mod.softmax_rows

        def capturing_softmax(x):
            out = real(x)
            captured.append(out.output)
            return out

        monkeypatch.setattr(model_mod, "softmax_rows", capturing_softmax)
        encode(init_params(replace(tiny_config, n_layers=2)), tiny_batch)
        first, last = captured  # [b * heads * query, key] per layer
        # Layer 0 attends from every position; the last layer from position 0 only.
        for weights, n_query in ((first, 4), (last, 1)):
            attn = weights.reshape(2, 2, n_query, 4)  # [b, heads, query, key]
            np.testing.assert_allclose(attn.sum(axis=-1), 1.0, atol=1e-9)
            masked = attn[1, :, :, 3]  # row 1 position 3 is PAD
            assert np.all(masked < 1e-30)

    def test_trimmed_batch_matches_padded_batch(self):
        ds, params = six_rows_and_a_two_layer_model()
        (trimmed,) = batches(ds, len(ds.examples))

        def to_max_len(row, fill):
            return np.pad(row, (0, 16 - row.size), constant_values=fill)

        padded = EncodedBatch(np.stack([to_max_len(ex.token_ids, PAD_ID) for ex in ds.examples]),
                              np.stack([to_max_len(np.ones_like(ex.token_ids), 0) for ex in ds.examples]),
                              trimmed.labels)
        assert trimmed.token_ids.shape[1] < padded.token_ids.shape[1] == 16

        def logits(batch):
            return head_forward(params, encode(params, batch).output).output

        np.testing.assert_allclose(logits(trimmed), logits(padded), rtol=0, atol=1e-12)

    def test_step_gemm_shapes_pin_batch_width_and_last_block_pruning(self, monkeypatch):
        ds, params = six_rows_and_a_two_layer_model()
        (batch,) = batches(ds, len(ds.examples))
        self.assert_six_row_gemm_shapes(
            monkeypatch, lambda: step_loss(params, batch, False, MixupConfig(), np.random.default_rng(0)))

    def test_eval_gemm_shapes_pin_batch_width_and_last_block_pruning(self, monkeypatch):
        ds, params = six_rows_and_a_two_layer_model()
        (batch,) = batches(ds, len(ds.examples))
        self.assert_six_row_gemm_shapes(monkeypatch, lambda: head_forward(params, encode(params, batch).output))

    @staticmethod
    def assert_six_row_gemm_shapes(monkeypatch, run):
        shapes = []
        real = model_mod.matmul

        def recording_matmul(a, b):
            shapes.append((a.shape, b.shape))
            return real(a, b)

        monkeypatch.setattr(model_mod, "matmul", recording_matmul)
        run()
        d, d_ff = 8, 16
        every, first = 6 * 7, 6  # 6 rows, the longest 7 tokens: all positions, or position 0 only

        def block(n_query):  # Q, K, V, O, then the FFN's two GEMMs
            return [((n_query, d), (d, d)), ((every, d), (d, d)), ((every, d), (d, d)),
                    ((n_query, d), (d, d)), ((n_query, d), (d, d_ff)), ((n_query, d_ff), (d_ff, d))]

        pooler_and_head = [((first, d), (d, d)), ((first, d), (d, 2))]
        assert shapes == block(every) + block(first) + pooler_and_head

    def test_pooled_reads_only_position_zero(self, tiny_params, tiny_batch, monkeypatch):
        captured = []
        real = model_mod.layer_norm

        def capturing_layer_norm(*args):
            out = real(*args)
            captured.append(out.output)
            return out

        monkeypatch.setattr(model_mod, "layer_norm", capturing_layer_norm)
        pooled = encode(tiny_params, tiny_batch).output
        out = captured[-1]  # the last block's output: position 0 of each row only
        assert out.shape == (2, 8)
        W = tiny_params.values
        np.testing.assert_array_equal(np.tanh(out @ W["pooler.w"] + W["pooler.b"]), pooled)

    def test_matches_a_full_sequence_forward(self):
        cfg = ModelConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=2, d_ff=16, max_len=6, seed=9)
        params = init_params(cfg)
        params.flat[...] = np.random.default_rng(2).uniform(-0.5, 0.5, params.flat.size)
        ids = np.array([[2, 4, 5, 6, 7, 3], [2, 8, 3, 0, 0, 0], [2, 9, 10, 3, 0, 0]])
        mask = (ids != 0).astype(np.int64)
        pooled = encode(params, EncodedBatch(ids, mask, np.zeros((3, 2)))).output
        expected = full_sequence_pooled(params.values, ids, mask, cfg.n_heads)
        np.testing.assert_allclose(pooled, expected, rtol=0, atol=1e-12)

    def test_token_id_out_of_range(self, tiny_params, tiny_batch):
        bad = EncodedBatch(tiny_batch.token_ids + 100, tiny_batch.attention_mask, tiny_batch.labels)
        with pytest.raises(ValueError, match="token id out of range"):
            encode(tiny_params, bad)

    def test_dropout_needs_rng_and_is_seed_deterministic(self, tiny_batch):
        cfg = ModelConfig(vocab_size=11, d_model=8, n_heads=2, n_layers=1, d_ff=16,
                          max_len=4, dropout_rate=0.2, seed=3)
        params = init_params(cfg)
        with pytest.raises(ValueError, match="rng"):
            encode(params, tiny_batch, train_mode=True)
        a = encode(params, tiny_batch, train_mode=True, rng=np.random.default_rng(5)).output
        b = encode(params, tiny_batch, train_mode=True, rng=np.random.default_rng(5)).output
        assert a.tobytes() == b.tobytes()

    def test_backward_overwrites_the_encoder_gradients_and_leaves_the_head(self, tiny_params, tiny_batch):
        enc = encode(tiny_params, tiny_batch, train_mode=True)  # dropout 0: no rng
        g = np.random.default_rng(3).uniform(-1, 1, (2, 8))
        encoder_names = [n for n in tiny_params.grads if not n.startswith("head.")]
        for name in encoder_names:
            tiny_params.grads[name][...] = np.nan  # every coordinate must be written, none accumulated
        tiny_params.grads["head.w"][...] = 7.0
        tiny_params.grads["head.b"][...] = 7.0
        enc.backward(g)
        assert all(np.isfinite(tiny_params.grads[name]).all() for name in encoder_names)
        once = tiny_params.grad.copy()
        enc.backward(g)  # the same gradients again, not doubled ones
        assert tiny_params.grad.tobytes() == once.tobytes()
        assert (tiny_params.grads["head.w"] == 7.0).all() and (tiny_params.grads["head.b"] == 7.0).all()
        assert tiny_params.grads["embed.tok"].any() and tiny_params.grads["pooler.w"].any()

    def test_full_parameter_gradient_check(self, tiny_params, tiny_batch):
        rng = np.random.default_rng(14)
        probe = rng.uniform(-1, 1, (2, 8))

        # Over every coordinate of `flat`: encode reads no head parameter, so
        # along the head's both gradients are 0.
        def f(flat):
            params = Parameters(tiny_params.config, tiny_params.values, flat)
            dual = encode(params, tiny_batch, train_mode=True)
            value = (dual.output * probe).sum(axis=(-2, -1))

            def backward(g):
                dual.backward(float(g) * probe)
                return (params.grad,)

            return DualResult(value, backward)

        err = grad_check(f, [tiny_params.flat], h=1e-5)
        assert err < 1e-6

    @pytest.mark.parametrize("arity,head", [("single", "classification"), ("pair", "classification"),
                                            ("single", "regression"), ("pair", "regression")])
    @pytest.mark.parametrize("n_layers", [1, 2, 3])
    def test_eval_mode_equals_train_mode_at_dropout_zero_bitwise(self, n_layers, arity, head):
        ds, params = ragged_rows_and_a_random_model(n_layers, arity, head)
        stack = Parameters(params.config, params.values, np.stack([params.flat, params.flat[::-1]]))

        def outputs(p, batch, train_mode):
            return head_forward(p, encode(p, batch, train_mode=train_mode).output).output

        widths = set()
        for batch in batches(ds, 4):
            widths.add(batch.token_ids.shape[1])
            for p in (params, stack):
                assert outputs(p, batch, False).tobytes() == outputs(p, batch, True).tobytes()
        assert len(widths) == 3  # ragged: every batch is padded to its own longest row

    def test_eval_mode_backward_raises(self, tiny_params, tiny_batch):
        enc = encode(tiny_params, tiny_batch)
        with pytest.raises(RuntimeError, match="eval mode keeps no backward state"):
            enc.backward(np.ones((2, 8)))

    def test_eval_mode_keeps_at_most_six_tenths_of_the_train_forward_peak(self):
        # The benchmark's model (d 32, 2 layers, d_ff 64) on one 32-row dev batch
        # of 14 tokens: train mode keeps every block's intermediates for the
        # backward, eval mode frees each once the next op has read it.
        cfg = ModelConfig(vocab_size=200, d_model=32, n_heads=2, n_layers=2, d_ff=64, max_len=16,
                          dropout_rate=0.0, seed=1)
        params = init_params(cfg)
        ids = np.random.default_rng(0).integers(4, 200, (32, 14))
        ids[:, 0] = 2
        batch = EncodedBatch(ids, np.ones((32, 14), dtype=np.int64), np.zeros((32, 2)))
        eval_peak = peak_traced_bytes(lambda: encode(params, batch).output)
        train_peak = peak_traced_bytes(lambda: encode(params, batch, train_mode=True).output)
        assert eval_peak <= 0.6 * train_peak, (eval_peak, train_peak)


class TestSinusoidalPositions:
    def test_shapes_and_ranges(self):
        enc = sinusoidal_positions(12, 8)
        assert enc.shape == (12, 8)
        assert np.all(np.abs(enc) <= 1.0)

    def test_first_row_alternates_zero_one(self):
        enc = sinusoidal_positions(4, 6)
        np.testing.assert_allclose(enc[0], [0, 1, 0, 1, 0, 1], atol=1e-15)

    @pytest.mark.parametrize("length,d_model", [(4, 6), (7, 8), (3, 5)])
    def test_cached_table_equals_fresh_table_and_is_read_only(self, length, d_model):
        enc = sinusoidal_positions(length, d_model)
        assert sinusoidal_positions(length, d_model) is enc
        np.testing.assert_array_equal(enc, sinusoidal_positions.__wrapped__(length, d_model))
        assert not enc.flags.writeable
        with pytest.raises(ValueError):
            enc[0, 0] = 1.0

    def test_encode_leaves_cached_table_unchanged(self, tiny_params, tiny_batch):
        before = sinusoidal_positions(4, 8).copy()
        encode(tiny_params, tiny_batch)
        encode(tiny_params, tiny_batch, train_mode=True, rng=np.random.default_rng(1))
        np.testing.assert_array_equal(sinusoidal_positions(4, 8), before)


class TestHeadForward:
    def test_zero_input_gives_bias(self, tiny_params):
        tiny_params.values["head.b"][:] = [0.25, -0.5]
        out = head_forward(tiny_params, np.zeros((3, 8))).output
        np.testing.assert_array_equal(out, [[0.25, -0.5]] * 3)

    def test_doubling_input_doubles_logits_minus_bias(self, tiny_params):
        rng = np.random.default_rng(1)
        pooled = rng.uniform(-1, 1, (4, 8))
        bias = tiny_params.values["head.b"]
        one = head_forward(tiny_params, pooled).output
        two = head_forward(tiny_params, 2.0 * pooled).output
        np.testing.assert_allclose(two - bias, 2.0 * (one - bias), atol=1e-12)

    def test_head_weight_gradient(self, tiny_params):
        rng = np.random.default_rng(2)
        pooled = rng.uniform(-1, 1, (3, 8))
        probe = rng.uniform(-1, 1, (3, 2))

        # Over every coordinate of `flat`: the head reads head.w and head.b
        # only, so along the others both gradients are 0.
        def f(flat):
            params = Parameters(tiny_params.config, tiny_params.values, flat)
            dual = head_forward(params, pooled)
            value = (dual.output * probe).sum(axis=(-2, -1))

            def backward(g):
                dual.backward(float(g) * probe)
                return (params.grad,)

            return DualResult(value, backward)

        err = grad_check(f, [tiny_params.flat], h=1e-5)
        assert err < 1e-6

    def test_width_mismatch(self, tiny_params):
        with pytest.raises(ValueError, match="d_model"):
            head_forward(tiny_params, np.zeros((2, 5)))


class TestSaveLoad:
    def test_round_trip_bit_exact(self, tiny_config, tiny_params, tmp_path):
        path = tmp_path / "params.mixf"
        save_params(tiny_params, path)
        loaded = load_params(path, tiny_config)
        assert list(loaded.values) == list(tiny_params.values)
        for name in tiny_params.values:
            assert loaded.values[name].tobytes() == tiny_params.values[name].tobytes()

    def test_truncated_file_is_load_error(self, tiny_config, tiny_params, tmp_path):
        path = tmp_path / "params.mixf"
        save_params(tiny_params, path)
        blob = path.read_bytes()
        path.write_bytes(blob[: len(blob) - 9])
        with pytest.raises(InputError, match="truncated in tensor"):
            load_params(path, tiny_config)

    @pytest.mark.parametrize("damage,message", [
        (lambda blob: blob[:12], "truncated before header length"),
        (lambda blob: blob[:20], "truncated inside header"),
        (lambda blob: blob[:16] + b"[" + blob[17:], "corrupt header"),
        (lambda blob: blob.replace(b'"embed.tok"', b'"embed.tak"', 1), "parameter names do not match config"),
    ], ids=["no-length", "short-header", "bad-json", "renamed"])
    def test_damaged_header_is_load_error(self, tiny_config, tiny_params, tmp_path, damage, message):
        # The file is 8 bytes of magic, an 8-byte header length, then the JSON header.
        path = tmp_path / "params.mixf"
        save_params(tiny_params, path)
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(InputError, match=message):
            load_params(path, tiny_config)

    def test_bad_magic(self, tiny_config, tmp_path):
        path = tmp_path / "params.mixf"
        path.write_bytes(b"NOTMAGIC" + b"\x00" * 64)
        with pytest.raises(InputError, match="bad magic"):
            load_params(path, tiny_config)

    def test_shape_mismatch_names_tensor(self, tiny_config, tiny_params, tmp_path):
        path = tmp_path / "params.mixf"
        save_params(tiny_params, path)
        bigger = ModelConfig(**{**tiny_config.__dict__, "vocab_size": 13})
        with pytest.raises(InputError, match=r"embed\.tok.*\[13, 8\]"):
            load_params(path, bigger)

    def test_trailing_bytes_rejected(self, tiny_config, tiny_params, tmp_path):
        path = tmp_path / "params.mixf"
        save_params(tiny_params, path)
        path.write_bytes(path.read_bytes() + b"extra")
        with pytest.raises(InputError, match="trailing"):
            load_params(path, tiny_config)


def test_param_shapes_contains_expected_names(tiny_config):
    shapes = param_shapes(tiny_config)
    assert shapes["embed.tok"] == (11, 8)
    assert shapes["layer0.attn.wq"] == (8, 8)
    assert shapes["layer0.ffn.w1"] == (8, 16)
    assert shapes["head.w"] == (8, 2)
    assert list(shapes)[0] == "embed.tok"
