"""Plain NumPy eval-mode forward pass, independent of the program's code.

It reads params.mixf by its documented layout (magic MIXF0001, an 8-byte
little-endian header length, a JSON {name: shape} header, then little-endian
float64 tensors in header order) and runs each row on its real tokens only,
with no padding and no mask. Agreement with the program's padded forward pass
therefore also checks padding invariance.
"""

from __future__ import annotations

import json
import math
import struct

import numpy as np

MAGIC = b"MIXF0001"
PAD, UNK, CLS, SEP = 0, 1, 2, 3
N_RESERVED = 4


def read_params(path: str) -> dict[str, np.ndarray]:
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:8] != MAGIC:
        raise ValueError(f"{path}: bad magic")
    (hlen,) = struct.unpack_from("<Q", blob, 8)
    header = json.loads(blob[16 : 16 + hlen])
    off, out = 16 + hlen, {}
    for name, shape in header.items():
        count = math.prod(shape)
        out[name] = np.frombuffer(blob, "<f8", count, off).reshape(shape)
        off += 8 * count
    if off != len(blob):
        raise ValueError(f"{path}: {len(blob) - off} trailing bytes")
    return out


def token_ids(text: str, vocab: dict[str, int], max_len: int) -> list[int]:
    """[CLS] words [SEP]; the benchmark's rows are lowercase words without punctuation."""
    ids = [vocab.get(w, UNK) for w in text.split()]
    return [CLS, *ids[: max_len - 2], SEP]


def _positions(length: int, d: int) -> np.ndarray:
    pos = np.arange(length)[:, None]
    angle = pos / 10000.0 ** (np.arange(0, d, 2)[None, :] / d)
    enc = np.zeros((length, d))
    enc[:, 0::2] = np.sin(angle)
    enc[:, 1::2] = np.cos(angle)[:, : d // 2]
    return enc


def _norm(x, gain, bias, eps=1e-5):
    xc = x - x.mean(axis=-1, keepdims=True)
    return xc / np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps) * gain + bias


def _gelu(x):
    return 0.5 * x * (1.0 + np.tanh(math.sqrt(2.0 / math.pi) * (x + 0.044715 * x * x * x)))


def logits(W: dict[str, np.ndarray], rows: list[list[int]], n_heads: int) -> np.ndarray:
    """Logits [len(rows), n_out]; rows of equal length are run together."""
    d = W["embed.tok"].shape[1]
    dh = d // n_heads
    n_layers = sum(1 for k in W if k.endswith(".attn.wq"))
    out = np.empty((len(rows), W["head.b"].shape[0]))
    by_len: dict[int, list[int]] = {}
    for i, r in enumerate(rows):
        by_len.setdefault(len(r), []).append(i)
    for L, idx in by_len.items():
        ids = np.array([rows[i] for i in idx])
        b = len(idx)
        x = W["embed.tok"][ids] * math.sqrt(d) + _positions(L, d)
        for layer in range(n_layers):
            p = f"layer{layer}."

            def heads(name):
                return (x @ W[p + "attn.w" + name] + W[p + "attn.b" + name]).reshape(b, L, n_heads, dh).transpose(0, 2, 1, 3)

            q, k, v = heads("q"), heads("k"), heads("v")
            s = q @ k.transpose(0, 1, 3, 2) / math.sqrt(dh)
            a = np.exp(s - s.max(axis=-1, keepdims=True))
            a /= a.sum(axis=-1, keepdims=True)
            ctx = (a @ v).transpose(0, 2, 1, 3).reshape(b, L, d)
            x = _norm(x + ctx @ W[p + "attn.wo"] + W[p + "attn.bo"], W[p + "attn.ln.gain"], W[p + "attn.ln.bias"])
            f = _gelu(x @ W[p + "ffn.w1"] + W[p + "ffn.b1"]) @ W[p + "ffn.w2"] + W[p + "ffn.b2"]
            x = _norm(x + f, W[p + "ffn.ln.gain"], W[p + "ffn.ln.bias"])
        pooled = np.tanh(x[:, 0, :] @ W["pooler.w"] + W["pooler.b"])
        out[idx] = pooled @ W["head.w"] + W["head.b"]
    return out
