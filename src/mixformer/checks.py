"""Gradient verification suite: every primitive op, the mix routing, and the
full tiny-model training step, all against central finite differences."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .mixup import FixedLambda, MixPlan, MixupConfig, mix_representations
from .model import EncodedBatch, ModelConfig, Parameters, init_params
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
from .trainer import step_loss

SEED = 0  # of the op checks' inputs and probes
H = 1e-5  # central-difference step


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


def _model_step_error(mix: bool) -> float:
    params, batch, plan = _tiny_setup(mix)
    mixup_config = MixupConfig(lambda_policy=FixedLambda(0.35))

    # The step as a function of `flat`. step_loss's backward returns
    # (params.grad,), the gradient of the flat buffer every view shares;
    # grad_check's stacked copies of `flat` give one loss per copy.
    def f(flat):
        return step_loss(Parameters(params.config, params.values, flat), batch, mix, mixup_config, plan=plan)

    return grad_check(f, [params.flat], H)


def gradient_check_suite() -> list[CheckResult]:
    """Run every component check; used by both the CLI and the acceptance tests."""
    results = _op_checks()
    results.append(CheckResult("model_step", _model_step_error(False), 1e-6))
    results.append(CheckResult("model_step_mixup", _model_step_error(True), 1e-6))
    return results


def _op_checks() -> list[CheckResult]:
    rng = np.random.default_rng(SEED)
    results: list[CheckResult] = []

    def record(name, op, inputs, tol, probe_shape=None):
        f = op if probe_shape is None else scalarize(op, rng.uniform(-1, 1, probe_shape))
        results.append(CheckResult(name, grad_check(f, inputs, H), tol))

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
