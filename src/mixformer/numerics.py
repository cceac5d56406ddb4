"""Dense float64 tensor primitives with explicit backward closures.

Every operation returns a DualResult: the forward output plus a `backward`
callable mapping an upstream gradient to gradients for the op's differentiable
inputs. The model composes these closures by hand; there is no tape. All math
is 64-bit so the finite-difference checker can be held to tight tolerances.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

Array = np.ndarray

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def as_tensor(x) -> Array:
    return np.asarray(x, dtype=np.float64)


@dataclass(frozen=True, slots=True)
class DualResult:
    """Forward output paired with a reverse-mode closure.

    `backward` takes an upstream gradient that is a float64 ndarray shaped like
    `output` (a plain float for scalar-output ops) and returns a tuple with one
    gradient per differentiable input, each shaped like that input. The
    gradient is not re-checked: inputs are checked once, in the forward call,
    except that `cross_entropy_soft` takes its targets to be distributions.
    Ops that read model parameters (`model._linear`, `model._norm`) write
    those parameters' gradients into `Parameters.grads` in place and return
    input gradients only.
    """

    output: Array | float
    backward: Callable[..., tuple[Array, ...]]


def matmul(a, b) -> DualResult:
    """out = a @ b; backward: dA = g @ b.T, dB = a.T @ g."""
    a, b = as_tensor(a), as_tensor(b)
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ValueError(f"matmul dimension mismatch: {a.shape} x {b.shape}")
    out = a @ b

    def backward(g):
        return g @ b.T, a.T @ g

    return DualResult(out, backward)


def softmax_rows(x) -> DualResult:
    """Row softmax over the last axis, max-subtracted for stability.

    backward: s * (g - rowdot(g, s)).
    """
    x = as_tensor(x)
    shifted = x - x.max(axis=-1, keepdims=True)
    e = np.exp(shifted)
    s = e / e.sum(axis=-1, keepdims=True)

    def backward(g):
        dot = (g * s).sum(axis=-1, keepdims=True)
        return (s * (g - dot),)

    return DualResult(s, backward)


def layer_norm(x, gain, bias, eps: float = 1e-5) -> DualResult:
    """Per-row zero-mean unit-variance normalization, scaled and shifted.

    backward covers x, gain and bias.
    """
    if eps <= 0:
        raise ValueError(f"layer_norm eps must be positive, got {eps}")
    x, gain, bias = as_tensor(x), as_tensor(gain), as_tensor(bias)
    # Row means as sum / n: what ndarray.mean computes, bit for bit, without
    # its Python-level wrapper, which costs a measurable share of a small step.
    n = x.shape[-1]
    mu = x.sum(axis=-1, keepdims=True) / n
    xc = x - mu
    var = (xc * xc).sum(axis=-1, keepdims=True) / n
    inv = 1.0 / np.sqrt(var + eps)
    xhat = xc * inv
    out = xhat * gain + bias

    def backward(g):
        dgain = (g * xhat).reshape(-1, x.shape[-1]).sum(axis=0)
        dbias = g.reshape(-1, x.shape[-1]).sum(axis=0)
        dxhat = g * gain
        dx = inv * (
            dxhat
            - dxhat.sum(axis=-1, keepdims=True) / n
            - xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) / n)
        )
        return dx, dgain, dbias

    return DualResult(out, backward)


def gelu(x) -> DualResult:
    """Tanh-approximation GELU with the exact derivative of that approximation.

    y = 0.5 * x * (1 + tanh(c * (x + a * x^3))), c = sqrt(2/pi), a = 0.044715.
    """
    x = as_tensor(x)
    t = np.tanh(_GELU_C * (x + _GELU_A * (x * x * x)))
    out = 0.5 * x * (1.0 + t)

    def backward(g):
        du = _GELU_C * (1.0 + 3.0 * _GELU_A * x * x)
        deriv = 0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du
        return (g * deriv,)

    return DualResult(out, backward)


def cross_entropy_soft(logits, targets) -> DualResult:
    """Mean over the batch of -sum(targets * log_softmax(logits)).

    Precondition, not checked here: each target row is a distribution (entries
    in [0, 1] summing to 1). `data.batches` builds one-hot rows from labels
    checked at load, and `mix_labels` convex combinations of them. Targets may
    be soft; the loss is exactly linear in them.
    backward on logits: (softmax(logits) - targets) / batch.
    """
    logits, targets = as_tensor(logits), as_tensor(targets)
    if logits.shape != targets.shape or logits.ndim != 2:
        raise ValueError(
            f"cross_entropy_soft shape mismatch: logits {logits.shape} vs targets {targets.shape}"
        )
    b = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    lse = m + np.log(np.exp(logits - m).sum(axis=1, keepdims=True))
    logp = logits - lse
    loss = float((-(targets * logp).sum(axis=1)).sum() / b)  # bitwise .mean(), minus its Python-level wrapper

    def backward(g):
        return ((np.exp(logp) - targets) * (g / b),)

    return DualResult(loss, backward)


def mse(pred, target) -> DualResult:
    """Mean squared error; backward on pred: 2 * (pred - target) / n."""
    pred, target = as_tensor(pred), as_tensor(target)
    if pred.shape != target.shape:
        raise ValueError(f"mse shape mismatch: {pred.shape} vs {target.shape}")
    diff = pred - target
    loss = float((diff * diff).mean())

    def backward(g):
        return (diff * (2.0 * g / pred.size),)

    return DualResult(loss, backward)


def scalarize(op: Callable[..., DualResult], weights) -> Callable[..., DualResult]:
    """Wrap a tensor-output op into a scalar function via a fixed probe functional.

    f(*inputs) = sum(weights * op(*inputs).output), so grad_check can be applied
    to ops whose natural output is a tensor.
    """
    weights = as_tensor(weights)

    def f(*inputs):
        dual = op(*inputs)
        value = float((dual.output * weights).sum())
        return DualResult(value, lambda g: dual.backward(g * weights))

    return f


def grad_check(
    f: Callable[..., DualResult],
    inputs: Sequence[Array],
    h: float = 1e-5,
) -> float:
    """Max relative error between f's analytic and central-difference gradients.

    f must be a deterministic scalar function of the given tensors; its
    DualResult.backward, applied to 1.0, must yield one gradient per input.
    Relative error per coordinate is |a - n| / max(1, |a|, |n|). Inputs are
    perturbed in place during the sweep and restored exactly afterwards.
    """
    if h <= 0:
        raise ValueError(f"grad_check step h must be positive, got {h}")
    inputs = [as_tensor(x) for x in inputs]
    dual = f(*inputs)
    base = float(dual.output)
    if float(f(*inputs).output) != base:
        raise RuntimeError(
            "grad_check requires a deterministic function: two forward passes disagree"
        )
    # Backward runs before any coordinate is perturbed: backward closures may
    # read the inputs by reference (the training step reads the parameter
    # views), so it must see them exactly as the base forward pass did.
    analytic = dual.backward(1.0)
    if len(analytic) != len(inputs):
        raise ValueError(
            f"backward returned {len(analytic)} gradients for {len(inputs)} inputs"
        )

    max_err = 0.0  # np.maximum, not max: a NaN error must stick
    for x, a in zip(inputs, analytic):
        a = as_tensor(a)
        if a.shape != x.shape:
            raise ValueError(f"gradient shape {a.shape} does not match input {x.shape}")
        flat_x, flat_a = x.ravel(), a.ravel()
        for i in range(flat_x.size):
            orig = flat_x[i]
            flat_x[i] = orig + h
            fp = float(f(*inputs).output)
            flat_x[i] = orig - h
            fm = float(f(*inputs).output)
            flat_x[i] = orig
            num = (fp - fm) / (2.0 * h)
            ana = flat_a[i]
            max_err = np.maximum(max_err, abs(ana - num) / max(1.0, abs(ana), abs(num)))
    return float(max_err)
