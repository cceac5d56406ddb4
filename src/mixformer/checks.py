"""Gradient verification suite: every primitive op, the mix routing, and the
full tiny-model training step, all against central finite differences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixup import FixedLambda, MixPlan, MixupConfig, mix_representations
from .model import EncodedBatch, ModelConfig, init_params
from .numerics import (
    cross_entropy_soft,
    gelu,
    grad_check,
    layer_norm,
    matmul,
    mse,
    scalarize,
    softmax_rows,
)
from .pool import fork_pool
from .trainer import step_loss


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def ok(self) -> bool:
        return self.max_rel_error < self.tolerance


def _tiny_setup(mix: bool):
    config = ModelConfig(
        vocab_size=11, d_model=8, n_heads=2, n_layers=1, d_ff=16,
        max_len=4, head="classification", n_classes=2, dropout_rate=0.0, seed=3,
    )
    params = init_params(config)
    batch = EncodedBatch(
        token_ids=np.array([[2, 4, 5, 3], [2, 6, 3, 0]], dtype=np.int64),
        attention_mask=np.array([[1, 1, 1, 1], [1, 1, 1, 0]], dtype=np.int64),
        labels=np.array([[1.0, 0.0], [0.0, 1.0]]),
    )
    plan = MixPlan(0.35, np.array([1, 0])) if mix else None
    return params, batch, plan


def _model_step_error(mix: bool, h: float) -> float:
    params, batch, plan = _tiny_setup(mix)
    mixup_config = MixupConfig(lambda_policy=FixedLambda(0.35))

    # step_loss's backward returns (params.grad,): the gradient of `flat`,
    # which every parameter view shares and grad_check perturbs. grad_check
    # calls that backward once, on its unperturbed base evaluation.
    return grad_check(lambda _: step_loss(params, batch, mix, mixup_config, plan=plan), [params.flat], h=h)


def gradient_check_suite(seed: int = 0, h: float = 1e-5) -> list[CheckResult]:
    """Run every component check; used by both the CLI and the acceptance tests.

    The two model-step checks take almost all of the evaluations. Each builds
    its own model and batch and draws nothing from `rng`, so they run in two
    forked workers while the op checks run here; their results are appended
    last, as if run in order.
    """
    with fork_pool(2) as pool:
        steps = [pool.submit(_model_step_error, mix, h) for mix in (False, True)]
        results = _op_checks(seed, h)
        results.append(CheckResult("model_step", steps[0].result(), 1e-6))
        results.append(CheckResult("model_step_mixup", steps[1].result(), 1e-6))
    return results


def _op_checks(seed: int, h: float) -> list[CheckResult]:
    rng = np.random.default_rng(seed)
    results: list[CheckResult] = []

    def record(name, op, inputs, tol, probe_shape=None):
        f = op if probe_shape is None else scalarize(op, rng.uniform(-1, 1, probe_shape))
        results.append(CheckResult(name, grad_check(f, inputs, h=h), tol))

    a = rng.uniform(-2, 2, (3, 4))
    b = rng.uniform(-2, 2, (4, 2))
    record("matmul", matmul, [a, b], 1e-6, probe_shape=(3, 2))

    x = rng.uniform(-2, 2, (2, 5))
    record("softmax_rows", softmax_rows, [x], 1e-6, probe_shape=(2, 5))

    x = rng.uniform(-2, 2, (4, 8))
    gain = rng.uniform(0.5, 1.5, 8)
    bias = rng.uniform(-0.5, 0.5, 8)
    record("layer_norm", layer_norm, [x, gain, bias], 1e-5, probe_shape=(4, 8))

    x = rng.uniform(-2, 2, 7)
    record("gelu", gelu, [x], 1e-6, probe_shape=(7,))

    logits = rng.uniform(-2, 2, (3, 4))
    targets = softmax_rows(rng.uniform(-2, 2, (3, 4))).output
    record("cross_entropy_soft", lambda z: cross_entropy_soft(z, targets), [logits], 1e-6)

    pred = rng.uniform(-2, 2, (5, 1))
    target = rng.uniform(-2, 2, (5, 1))
    record("mse", lambda p: mse(p, target), [pred], 1e-7)

    hrep = rng.uniform(-1, 1, (3, 2))
    plan = MixPlan(0.3, np.array([2, 0, 1]))
    record(
        "mix_representations",
        lambda t: mix_representations(t, plan),
        [hrep],
        1e-10,
        probe_shape=(3, 2),
    )
    return results
