"""Micro-transformer encoder and task heads with hand-composed reverse mode.

The encoder is a fixed feed-forward pipeline: scaled token embeddings plus
sinusoidal positions, a stack of post-norm self-attention blocks with key-side
padding masks, then a tanh pooler over the position-0 hidden state. Since the
pooler reads nothing else, the last block computes position 0 only. Forward
passes cache the per-op DualResults; encode's backward walks them in reverse
and accumulates the parameter gradients into `Parameters.grads`.
"""

from __future__ import annotations

import functools
import json
import math
import struct
from dataclasses import dataclass

import numpy as np

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
    """

    def __init__(self, config: ModelConfig, values: dict[str, Array]):
        self.config = config
        sizes = [np.size(v) for v in values.values()]
        self.flat = np.empty(sum(sizes))
        self.grad = np.zeros_like(self.flat)
        self.matrix_mask = np.empty(sum(sizes))
        self.values, self.grads = {}, {}
        off = 0
        for (name, value), n in zip(values.items(), sizes):
            view = self.flat[off : off + n].reshape(np.shape(value))
            view[...] = value
            self.values[name] = view
            self.grads[name] = self.grad[off : off + n].reshape(view.shape)
            self.matrix_mask[off : off + n] = float(view.ndim >= 2)
            off += n
        self.m = np.zeros_like(self.flat)
        self.v = np.zeros_like(self.flat)


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


def _linear(x2d: Array, w: Array, b: Array) -> DualResult:
    mm = matmul(x2d, w)
    out = mm.output + b

    def backward(g):
        dx, dw = mm.backward(g)
        return dx, dw, g.sum(axis=0)

    return DualResult(out, backward)


def _split_heads(x2d: Array, b: int, L: int, H: int, dh: int) -> Array:
    return x2d.reshape(b, L, H, dh).transpose(0, 2, 1, 3)


def _merge_heads(x4d: Array, b: int, L: int, H: int, dh: int) -> Array:
    return x4d.transpose(0, 2, 1, 3).reshape(b * L, H * dh)


@dataclass
class _LayerCache:
    q_lin: DualResult
    k_lin: DualResult
    v_lin: DualResult
    o_lin: DualResult
    ln1: DualResult
    f1: DualResult
    act: DualResult
    f2: DualResult
    ln2: DualResult
    Q: Array
    K: Array
    V: Array
    attn_used: Array
    attn_keep: Array | None
    ffn_keep: Array | None
    sm: DualResult


def encode(
    params: Parameters,
    batch: EncodedBatch,
    train_mode: bool = False,
    rng: np.random.Generator | None = None,
) -> DualResult:
    """Run the encoder; output is the pooled [b, d_model] representation.

    Earlier blocks compute every position. The last block computes K and V for
    every position but its queries, attention rows, output projection, layer
    norms and FFN for position 0 only, the one the pooler reads; its backward
    scatters the residual and query input gradients into the position-0 rows
    of a zero [b, L, d_model] gradient and adds the K and V ones over all rows.

    The returned backward maps an upstream [b, d_model] gradient to the
    encoder's parameter gradients: it overwrites their views in `params.grads`
    (every name but the head's) and returns nothing. Dropout masks are drawn
    from `rng` only in train mode, at every block's full [b, H, L, L] and
    [b, L, d_model] shapes so the stream does not depend on the pruning, and
    are reused exactly in backward.
    """
    cfg = params.config
    W = params.values
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
    d, H = cfg.d_model, cfg.n_heads
    dh = d // H
    p_drop = cfg.dropout_rate if train_mode else 0.0
    if p_drop > 0.0 and rng is None:
        raise ValueError("train-mode dropout requires an rng")

    emb_scale = math.sqrt(d)
    x = W["embed.tok"][ids] * emb_scale + sinusoidal_positions(L, d)
    key_bias = (1.0 - mask.astype(np.float64))[:, None, None, :] * MASKED_SCORE
    inv_scale = 1.0 / math.sqrt(dh)

    caches: list[_LayerCache] = []
    for i in range(cfg.n_layers):
        p = f"layer{i}."
        Lq = 1 if i == cfg.n_layers - 1 else L  # query positions this block computes
        xf = x.reshape(b * L, d)
        xqf = x[:, :Lq, :].reshape(b * Lq, d)
        q_lin = _linear(xqf, W[p + "attn.wq"], W[p + "attn.bq"])
        k_lin = _linear(xf, W[p + "attn.wk"], W[p + "attn.bk"])
        v_lin = _linear(xf, W[p + "attn.wv"], W[p + "attn.bv"])
        Q = _split_heads(q_lin.output, b, Lq, H, dh)
        K = _split_heads(k_lin.output, b, L, H, dh)
        V = _split_heads(v_lin.output, b, L, H, dh)
        scores = (Q @ K.swapaxes(-1, -2)) * inv_scale + key_bias
        sm = softmax_rows(scores.reshape(b * H * Lq, L))
        attn = sm.output.reshape(b, H, Lq, L)
        if p_drop > 0.0:
            attn_keep = (rng.random((b, H, L, L))[:, :, :Lq] >= p_drop) / (1.0 - p_drop)
            attn_used = attn * attn_keep
        else:
            attn_keep, attn_used = None, attn
        ctx = attn_used @ V
        o_lin = _linear(_merge_heads(ctx, b, Lq, H, dh), W[p + "attn.wo"], W[p + "attn.bo"])
        ln1 = layer_norm(xqf + o_lin.output, W[p + "attn.ln.gain"], W[p + "attn.ln.bias"])
        x1f = ln1.output
        f1 = _linear(x1f, W[p + "ffn.w1"], W[p + "ffn.b1"])
        act = gelu(f1.output)
        f2 = _linear(act.output, W[p + "ffn.w2"], W[p + "ffn.b2"])
        if p_drop > 0.0:
            ffn_keep = (rng.random((b, L, d))[:, :Lq].reshape(b * Lq, d) >= p_drop) / (1.0 - p_drop)
            ffn_out = f2.output * ffn_keep
        else:
            ffn_keep, ffn_out = None, f2.output
        ln2 = layer_norm(x1f + ffn_out, W[p + "ffn.ln.gain"], W[p + "ffn.ln.bias"])
        x = ln2.output.reshape(b, Lq, d)
        caches.append(
            _LayerCache(q_lin, k_lin, v_lin, o_lin, ln1, f1, act, f2, ln2,
                        Q, K, V, attn_used, attn_keep, ffn_keep, sm)
        )

    pool_lin = _linear(x[:, 0, :], W["pooler.w"], W["pooler.b"])
    pooled = np.tanh(pool_lin.output)

    def backward(g):
        g = np.asarray(g, dtype=np.float64)
        grads = params.grads
        params.grad[: -(d + 1) * cfg.out_dim] = 0.0  # all but head.w and head.b, the last two
        dh0, dwp, dbp = pool_lin.backward(g * (1.0 - pooled * pooled))
        grads["pooler.w"] += dwp
        grads["pooler.b"] += dbp
        dx = dh0.reshape(b, 1, d)  # the last block's output covers position 0 only
        for i in reversed(range(cfg.n_layers)):
            dx = _layer_backward(caches[i], dx, grads, f"layer{i}.", b, L, H, dh, inv_scale)
        np.add.at(grads["embed.tok"], ids.reshape(-1), dx.reshape(-1, d) * emb_scale)

    return DualResult(pooled, backward)


def _layer_backward(c: _LayerCache, dx, grads, p, b, L, H, dh, inv_scale):
    """Backward of one block: dx is [b, Lq, d] for its Lq query positions; the
    input gradient returned is [b, L, d], with the residual and Q paths in the
    first Lq positions of every row and the K and V paths over all L."""
    Lq = c.Q.shape[2]
    dx2f = dx.reshape(b * Lq, H * dh)
    dres2, dg2, db2 = c.ln2.backward(dx2f)
    grads[p + "ffn.ln.gain"] += dg2
    grads[p + "ffn.ln.bias"] += db2
    dx1f = dres2.copy()
    dffn = dres2 * c.ffn_keep if c.ffn_keep is not None else dres2
    dact_out, dw2, db2f = c.f2.backward(dffn)
    grads[p + "ffn.w2"] += dw2
    grads[p + "ffn.b2"] += db2f
    (df1,) = c.act.backward(dact_out)
    dx1f_ffn, dw1, db1f = c.f1.backward(df1)
    grads[p + "ffn.w1"] += dw1
    grads[p + "ffn.b1"] += db1f
    dx1f += dx1f_ffn
    dres1, dg1, db1 = c.ln1.backward(dx1f)
    grads[p + "attn.ln.gain"] += dg1
    grads[p + "attn.ln.bias"] += db1
    dctxf, dwo, dbo = c.o_lin.backward(dres1)
    grads[p + "attn.wo"] += dwo
    grads[p + "attn.bo"] += dbo
    dctx = _split_heads(dctxf, b, Lq, H, dh)
    dattn = dctx @ c.V.swapaxes(-1, -2)
    dV = c.attn_used.swapaxes(-1, -2) @ dctx
    if c.attn_keep is not None:
        dattn = dattn * c.attn_keep
    (dscores_flat,) = c.sm.backward(dattn.reshape(b * H * Lq, L))
    dscores = dscores_flat.reshape(b, H, Lq, L) * inv_scale
    dQ = dscores @ c.K
    dK = dscores.swapaxes(-1, -2) @ c.Q
    dxq, dwq, dbq = c.q_lin.backward(_merge_heads(dQ, b, Lq, H, dh))
    grads[p + "attn.wq"] += dwq
    grads[p + "attn.bq"] += dbq
    dxf = np.zeros((b, L, H * dh))
    dxf[:, :Lq] = (dres1 + dxq).reshape(b, Lq, H * dh)
    dxf = dxf.reshape(b * L, H * dh)
    for lin, grad4, wname, bname in (
        (c.k_lin, dK, "attn.wk", "attn.bk"),
        (c.v_lin, dV, "attn.wv", "attn.bv"),
    ):
        dxp, dw, db = lin.backward(_merge_heads(grad4, b, L, H, dh))
        grads[p + wname] += dw
        grads[p + bname] += db
        dxf += dxp
    return dxf.reshape(b, L, H * dh)


def head_forward(params: Parameters, pooled) -> DualResult:
    """Affine task head over pooled vectors; backward writes the head's views in
    `params.grads` and returns dPooled."""
    pooled = np.asarray(pooled, dtype=np.float64)
    if pooled.ndim != 2 or pooled.shape[1] != params.config.d_model:
        raise ValueError(
            f"pooled width {pooled.shape} does not match d_model {params.config.d_model}"
        )
    lin = _linear(pooled, params.values["head.w"], params.values["head.b"])

    def backward(g):
        dp, params.grads["head.w"][...], params.grads["head.b"][...] = lin.backward(
            np.asarray(g, dtype=np.float64)
        )
        return dp

    return DualResult(lin.output, backward)


def save_params(params: Parameters, path) -> None:
    """Write magic, length-prefixed JSON {name: shape}, then raw LE float64 data."""
    header = json.dumps({k: list(v.shape) for k, v in params.values.items()}).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(PARAMS_MAGIC)
        fh.write(struct.pack("<Q", len(header)))
        fh.write(header)
        fh.write(params.flat.astype("<f8", copy=False).tobytes())


def load_params(path, config: ModelConfig) -> Parameters:
    """Read a parameter file and validate it against the config's shape map."""
    with open(path, "rb") as fh:
        blob = fh.read()
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
