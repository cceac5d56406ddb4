"""Micro-transformer encoder and task heads with hand-composed reverse mode.

The encoder is a fixed feed-forward pipeline: scaled token embeddings plus
sinusoidal positions, a stack of post-norm self-attention blocks with key-side
padding masks, then a tanh pooler over the position-0 hidden state. Since the
pooler reads nothing else, the last block computes position 0 only. In train
mode each block is a DualResult, like every op inside it; encode's backward
walks the blocks in reverse. Eval mode runs the same ops through a
forward-only wiring that keeps nothing for a backward. Each parameter is read
by one op per forward, `_linear` or `_norm` (the embedding table by `encode`
itself), and that op's backward writes its gradient view in `Parameters.grads`
in place and returns input gradients only.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

from . import files
from .errors import InputError
from .numerics import Array, DualResult, gelu, layer_norm, matmul, softmax_rows

PARAMS_MAGIC = b"MIXF0001"
MASKED_SCORE = -1e9  # added to attention logits of padded keys; underflows to weight 0


@dataclass(frozen=True)
class ModelConfig:
    vocab_size: int
    d_model: int = 32
    n_heads: int = 2
    n_layers: int = 2
    d_ff: int = 64
    max_len: int = 128
    head: str = "classification"  # or "regression"
    n_classes: int = 2
    dropout_rate: float = 0.1
    seed: int = 0

    def __post_init__(self):
        for name in ("vocab_size", "d_model", "n_heads", "n_layers", "d_ff", "max_len"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive, got {getattr(self, name)}")
        if self.d_model % self.n_heads != 0:
            raise ValueError(f"d_model {self.d_model} not divisible by n_heads {self.n_heads}")
        if self.head not in ("classification", "regression"):
            raise ValueError(f"head must be 'classification' or 'regression', got {self.head!r}")
        if self.head == "classification" and self.n_classes < 2:
            raise ValueError(f"classification head needs n_classes >= 2, got {self.n_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ValueError(f"dropout_rate must lie in [0, 1), got {self.dropout_rate}")

    @property
    def out_dim(self) -> int:
        return self.n_classes if self.head == "classification" else 1


@dataclass
class EncodedBatch:
    """Padded token ids, key mask, and label rows for one batch.

    labels: one-hot/soft rows [b, n_classes] for classification, [b, 1] scalars
    for regression. Position 0 of every row is the CLS token; mask 0 marks PAD.
    """

    token_ids: Array
    attention_mask: Array
    labels: Array


def param_shapes(config: ModelConfig) -> dict[str, tuple[int, ...]]:
    """Canonical name -> shape map; order is the save-file and grad-check order."""
    d, ff = config.d_model, config.d_ff
    shapes: dict[str, tuple[int, ...]] = {"embed.tok": (config.vocab_size, d)}
    for i in range(config.n_layers):
        p = f"layer{i}."
        for proj in ("q", "k", "v", "o"):
            shapes[p + f"attn.w{proj}"] = (d, d)
            shapes[p + f"attn.b{proj}"] = (d,)
        shapes[p + "attn.ln.gain"] = (d,)
        shapes[p + "attn.ln.bias"] = (d,)
        shapes[p + "ffn.w1"] = (d, ff)
        shapes[p + "ffn.b1"] = (ff,)
        shapes[p + "ffn.w2"] = (ff, d)
        shapes[p + "ffn.b2"] = (d,)
        shapes[p + "ffn.ln.gain"] = (d,)
        shapes[p + "ffn.ln.bias"] = (d,)
    shapes["pooler.w"] = (d, d)
    shapes["pooler.b"] = (d,)
    shapes["head.w"] = (d, config.out_dim)
    shapes["head.b"] = (config.out_dim,)
    return shapes


class Parameters:
    """Named trainable tensors and their gradients in two flat float64 buffers.

    `values` and `grads` map each name to same-shaped views of `flat` and `grad`,
    in the given order (the save-file order); values are copied in, gradients
    are what the last backward wrote. `m` and `v` are the Adam moments, flat like
    `flat`; `matrix_mask` is 1.0 on entries of tensors with two or more axes.
    Given `flat`, `values` gives only names and shapes for views of it. A stack
    `flat` [S, n] (matrices [S, k, m], vectors [S, 1, m]) is for forward passes:
    it has no gradient or moments, so a backward through it fails.
    """

    def __init__(self, config: ModelConfig, values: dict[str, Array], flat: Array | None = None):
        self.config = config
        shapes = {name: np.shape(value) for name, value in values.items()}
        if flat is None:
            flat = np.concatenate([np.ravel(value) for value in values.values()], dtype=np.float64)
        self.flat = flat
        self.values = _views(flat, shapes)
        if flat.ndim > 1:
            return  # a stack: forward passes only
        self.grad = np.zeros_like(flat)
        self.grads = _views(self.grad, shapes)
        self.matrix_mask = np.concatenate([np.full(v.size, float(v.ndim >= 2)) for v in self.values.values()])
        self.m = np.zeros_like(flat)
        self.v = np.zeros_like(flat)


def _views(buf: Array, shapes: dict[str, tuple[int, ...]]) -> dict[str, Array]:
    """Consecutive views of the last axis of `buf`; over a stack, a vector gets a row axis."""
    lead, views, off = buf.shape[:-1], {}, 0
    for name, shape in shapes.items():
        n = math.prod(shape)
        row = (1,) if lead and len(shape) == 1 else ()
        views[name] = buf[..., off : off + n].reshape(lead + row + shape)
        off += n
    return views


def init_params(config: ModelConfig) -> Parameters:
    """Seeded Xavier-uniform weights; zero biases; unit layer-norm gains.

    Tensors are drawn in canonical name order, so equal seeds give
    bit-identical parameters.
    """
    rng = np.random.Generator(np.random.PCG64(config.seed))
    values: dict[str, Array] = {}
    for name, shape in param_shapes(config).items():
        if name.endswith("ln.gain"):
            values[name] = np.ones(shape)
        elif len(shape) == 1:
            values[name] = np.zeros(shape)
        else:
            bound = math.sqrt(6.0 / (shape[0] + shape[1]))
            values[name] = rng.uniform(-bound, bound, size=shape)
    return Parameters(config, values)


@functools.lru_cache(maxsize=256)
def sinusoidal_positions(length: int, d_model: int) -> Array:
    """[length, d_model] sine/cosine table, computed once per shape; read-only."""
    pos = np.arange(length, dtype=np.float64)[:, None]
    idx = np.arange(0, d_model, 2, dtype=np.float64)[None, :]
    angles = pos / np.power(10000.0, idx / d_model)
    enc = np.zeros((length, d_model))
    enc[:, 0::2] = np.sin(angles)
    enc[:, 1::2] = np.cos(angles)[:, : d_model // 2]
    enc.flags.writeable = False
    return enc


def _linear(x2d: Array, params: Parameters, w_name: str, b_name: str) -> DualResult:
    mm = matmul(x2d, params.values[w_name])
    out = mm.output + params.values[b_name]

    def backward(g):
        dx, params.grads[w_name][...] = mm.backward(g)
        params.grads[b_name][...] = g.sum(axis=0)
        return (dx,)

    return DualResult(out, backward)


def _norm(x2d: Array, params: Parameters, prefix: str) -> DualResult:
    ln = layer_norm(x2d, params.values[prefix + "gain"], params.values[prefix + "bias"])

    def backward(g):
        dx, params.grads[prefix + "gain"][...], params.grads[prefix + "bias"][...] = ln.backward(g)
        return (dx,)

    return DualResult(ln.output, backward)


def _split_heads(x2d: Array, b: int, L: int, H: int, dh: int) -> Array:
    return x2d.reshape(x2d.shape[:-2] + (b, L, H, dh)).swapaxes(-3, -2)


def _merge_heads(x4d: Array, b: int, L: int, H: int, dh: int) -> Array:
    return x4d.swapaxes(-3, -2).reshape(x4d.shape[:-4] + (b * L, H * dh))


def _block(params: Parameters, prefix: str, x: Array, key_bias: Array, Lq: int, p_drop: float,
           rng: np.random.Generator | None) -> DualResult:
    """One post-norm block over x [(S,) b, L, d]; the output is [(S,) b, Lq, d],
    the block's first Lq query positions. K and V cover all L positions.

    Dropout masks are drawn from `rng` when p_drop > 0, attention's before the
    FFN's, at the full [b, H, L, L] and [b, L, d] shapes. The backward maps a
    [b, Lq, d] gradient to (dx,), dx [b, L, d]: the residual and Q paths fill
    the first Lq positions of every row, the K and V paths all L. It only
    chains input gradients: the `_linear` and `_norm` ops inside write the
    block's parameter gradients.
    """
    p = prefix
    lead, (b, L, d) = x.shape[:-3], x.shape[-3:]
    H = params.config.n_heads
    dh = d // H
    inv_scale = 1.0 / math.sqrt(dh)
    xf = x.reshape(lead + (b * L, d))
    xqf = x[..., :Lq, :].reshape(lead + (b * Lq, d))
    q_lin = _linear(xqf, params, p + "attn.wq", p + "attn.bq")
    k_lin = _linear(xf, params, p + "attn.wk", p + "attn.bk")
    v_lin = _linear(xf, params, p + "attn.wv", p + "attn.bv")
    Q = _split_heads(q_lin.output, b, Lq, H, dh)
    K = _split_heads(k_lin.output, b, L, H, dh)
    V = _split_heads(v_lin.output, b, L, H, dh)
    scores = (Q @ K.swapaxes(-1, -2)) * inv_scale + key_bias
    sm = softmax_rows(scores)
    attn = sm.output
    if p_drop > 0.0:
        attn_keep = (rng.random((b, H, L, L))[:, :, :Lq] >= p_drop) / (1.0 - p_drop)
        attn_used = attn * attn_keep
    else:
        attn_keep, attn_used = None, attn
    ctx = attn_used @ V
    o_lin = _linear(_merge_heads(ctx, b, Lq, H, dh), params, p + "attn.wo", p + "attn.bo")
    ln1 = _norm(xqf + o_lin.output, params, p + "attn.ln.")
    x1f = ln1.output
    f1 = _linear(x1f, params, p + "ffn.w1", p + "ffn.b1")
    act = gelu(f1.output)
    f2 = _linear(act.output, params, p + "ffn.w2", p + "ffn.b2")
    if p_drop > 0.0:
        ffn_keep = (rng.random((b, L, d))[:, :Lq].reshape(b * Lq, d) >= p_drop) / (1.0 - p_drop)
        ffn_out = f2.output * ffn_keep
    else:
        ffn_keep, ffn_out = None, f2.output
    ln2 = _norm(x1f + ffn_out, params, p + "ffn.ln.")

    def backward(g):
        (dres2,) = ln2.backward(g.reshape(b * Lq, d))
        (dact_out,) = f2.backward(dres2 * ffn_keep if ffn_keep is not None else dres2)
        (dx1f_ffn,) = f1.backward(act.backward(dact_out)[0])
        (dres1,) = ln1.backward(dres2 + dx1f_ffn)
        dctx = _split_heads(o_lin.backward(dres1)[0], b, Lq, H, dh)
        dattn = dctx @ V.swapaxes(-1, -2)
        dV = attn_used.swapaxes(-1, -2) @ dctx
        if attn_keep is not None:
            dattn = dattn * attn_keep
        dscores = sm.backward(dattn)[0] * inv_scale
        (dxq,) = q_lin.backward(_merge_heads(dscores @ K, b, Lq, H, dh))
        dxf = np.zeros((b, L, d))
        dxf[:, :Lq] = (dres1 + dxq).reshape(b, Lq, d)
        dxf = dxf.reshape(b * L, d)
        dxf += k_lin.backward(_merge_heads(dscores.swapaxes(-1, -2) @ Q, b, L, H, dh))[0]
        dxf += v_lin.backward(_merge_heads(dV, b, L, H, dh))[0]
        return (dxf.reshape(b, L, d),)

    return DualResult(ln2.output.reshape(lead + (b, Lq, d)), backward)


def _block_eval(params: Parameters, prefix: str, x: Array, key_bias: Array, Lq: int) -> Array:
    """`_block` without dropout, keeping nothing for a backward: the same ops in
    the same order, each output taken at once so that each intermediate is freed
    once the next op has read it. The output equals `_block`'s bit for bit."""
    p = prefix
    lead, (b, L, d) = x.shape[:-3], x.shape[-3:]
    H = params.config.n_heads
    dh = d // H
    xf = x.reshape(lead + (b * L, d))
    xqf = x[..., :Lq, :].reshape(lead + (b * Lq, d))
    Q = _split_heads(_linear(xqf, params, p + "attn.wq", p + "attn.bq").output, b, Lq, H, dh)
    K = _split_heads(_linear(xf, params, p + "attn.wk", p + "attn.bk").output, b, L, H, dh)
    V = _split_heads(_linear(xf, params, p + "attn.wv", p + "attn.bv").output, b, L, H, dh)
    attn = softmax_rows((Q @ K.swapaxes(-1, -2)) * (1.0 / math.sqrt(dh)) + key_bias).output
    del Q, K
    ctx = _merge_heads(attn @ V, b, Lq, H, dh)
    del attn, V
    x1f = _norm(xqf + _linear(ctx, params, p + "attn.wo", p + "attn.bo").output, params, p + "attn.ln.").output
    del ctx
    act = gelu(_linear(x1f, params, p + "ffn.w1", p + "ffn.b1").output).output
    ffn_out = _linear(act, params, p + "ffn.w2", p + "ffn.b2").output
    del act
    return _norm(x1f + ffn_out, params, p + "ffn.ln.").output.reshape(lead + (b, Lq, d))


def _no_backward(g):
    raise RuntimeError("eval mode keeps no backward state: run encode with train_mode=True to differentiate")


def encode(
    params: Parameters,
    batch: EncodedBatch,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> DualResult:
    """Run the encoder; output is the pooled [b, d_model] representation.

    Earlier blocks compute every position; the last computes position 0 only,
    the one the pooler reads (see `_block`). Dropout masks are drawn from `rng`
    only in train mode, block by block at full shapes, so the stream does not
    depend on the pruning, and are reused exactly in backward.

    In train mode the returned backward maps an upstream [b, d_model] gradient
    to the encoder's parameter gradients: the ops that read them overwrite
    their views in `params.grads` (every name but the head's), and it returns
    nothing. Eval mode keeps no backward state (see `_block_eval`): its
    backward raises. At dropout 0 both modes give the same output bit for bit.
    """
    cfg = params.config
    ids = np.asarray(batch.token_ids, dtype=np.int64)
    mask = np.asarray(batch.attention_mask, dtype=np.int64)
    if ids.ndim != 2 or mask.shape != ids.shape:
        raise ValueError(f"batch shapes disagree: ids {ids.shape}, mask {mask.shape}")
    if ids.min() < 0 or ids.max() >= cfg.vocab_size:
        raise ValueError(
            f"token id out of range [0, {cfg.vocab_size}): found {int(ids.min())}..{int(ids.max())}"
        )
    b, L = ids.shape
    if L > cfg.max_len:
        raise ValueError(f"sequence length {L} exceeds max_len {cfg.max_len}")
    d = cfg.d_model
    p_drop = cfg.dropout_rate if train_mode else 0.0
    if p_drop > 0.0 and rng is None:
        raise ValueError("train-mode dropout requires an rng")

    emb_scale = math.sqrt(d)
    x = np.take(params.values["embed.tok"], ids, axis=-2) * emb_scale + sinusoidal_positions(L, d)
    key_bias = (1.0 - mask.astype(np.float64))[:, None, None, :] * MASKED_SCORE
    blocks: list[DualResult] = []
    for i in range(cfg.n_layers):
        Lq = 1 if i == cfg.n_layers - 1 else L  # query positions this block computes
        if train_mode:
            blocks.append(_block(params, f"layer{i}.", x, key_bias, Lq, p_drop, rng))
            x = blocks[-1].output
        else:
            x = _block_eval(params, f"layer{i}.", x, key_bias, Lq)

    if not train_mode:
        return DualResult(np.tanh(_linear(x[..., 0, :], params, "pooler.w", "pooler.b").output), _no_backward)
    pool_lin = _linear(x[..., 0, :], params, "pooler.w", "pooler.b")
    pooled = np.tanh(pool_lin.output)

    def backward(g):
        (dh0,) = pool_lin.backward(g * (1.0 - pooled * pooled))
        dx = dh0.reshape(b, 1, d)  # the last block's output covers position 0 only
        for block in reversed(blocks):
            (dx,) = block.backward(dx)
        params.grads["embed.tok"][...] = 0.0
        np.add.at(params.grads["embed.tok"], ids.reshape(-1), dx.reshape(-1, d) * emb_scale)

    return DualResult(pooled, backward)


def head_forward(params: Parameters, pooled) -> DualResult:
    """Affine task head over pooled vectors; backward writes the head's views in
    `params.grads` and returns (dpooled,)."""
    pooled = np.asarray(pooled, dtype=np.float64)
    if pooled.ndim < 2 or pooled.shape[-1] != params.config.d_model:
        raise ValueError(
            f"pooled width {pooled.shape} does not match d_model {params.config.d_model}"
        )
    return _linear(pooled, params, "head.w", "head.b")


def save_params(params: Parameters, path) -> None:
    """Write magic, length-prefixed JSON {name: shape}, then raw LE float64 data."""
    header = json.dumps({k: list(v.shape) for k, v in params.values.items()}).encode("utf-8")
    data = params.flat.astype("<f8", copy=False)
    files.write(path, b"".join((PARAMS_MAGIC, struct.pack("<Q", len(header)), header, data)))


def load_params(path, config: ModelConfig) -> Parameters:
    """Read a parameter file and validate it against the config's shape map."""
    try:
        with open(path, "rb") as fh:
            blob = fh.read()
    except OSError as e:
        raise InputError(f"cannot read params {path}: {e}") from None
    if blob[: len(PARAMS_MAGIC)] != PARAMS_MAGIC:
        raise InputError(f"{path}: bad magic, not a parameter file")
    off = len(PARAMS_MAGIC)
    if len(blob) < off + 8:
        raise InputError(f"{path}: truncated before header length")
    (hlen,) = struct.unpack_from("<Q", blob, off)
    off += 8
    if len(blob) < off + hlen:
        raise InputError(f"{path}: truncated inside header")
    try:
        header = json.loads(blob[off : off + hlen].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise InputError(f"{path}: corrupt header: {e}") from None
    off += hlen

    expected = param_shapes(config)
    if list(header) != list(expected):
        missing = [k for k in expected if k not in header]
        extra = [k for k in header if k not in expected]
        raise InputError(
            f"{path}: parameter names do not match config (missing {missing}, unexpected {extra})"
        )
    values: dict[str, Array] = {}
    for name, shape in header.items():
        shape = tuple(int(s) for s in shape)
        if shape != expected[name]:
            raise InputError(
                f"{path}: tensor {name!r} has shape {list(shape)}, expected {list(expected[name])}"
            )
        nbytes = 8 * int(np.prod(shape)) if shape else 8
        if len(blob) < off + nbytes:
            raise InputError(
                f"{path}: truncated in tensor {name!r}: need {nbytes} bytes, have {len(blob) - off}"
            )
        values[name] = np.frombuffer(blob, dtype="<f8", count=nbytes // 8, offset=off).reshape(shape)
        off += nbytes
    if off != len(blob):
        raise InputError(f"{path}: {len(blob) - off} trailing bytes after last tensor")
    return Parameters(config, values)
