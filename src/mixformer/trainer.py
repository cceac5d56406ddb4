"""End-to-end training loop: encoder -> mix -> head -> loss, Adam, per-epoch eval.

Dropout and mixing draw from two separate generator streams so that a run with
mixing disabled is bit-identical to a run with a fixed coefficient of 1 (the
degenerate endpoint), regardless of dropout.
"""

from __future__ import annotations

import copy
import math
import time
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .data import Dataset, batches
from .errors import NonFiniteLossError
from .metrics import accuracy, matthews_corr, spearman_corr
from .mixup import MixPlan, MixupConfig, is_active, make_plan, mix_labels, mix_representations
from .model import EncodedBatch, ModelConfig, Parameters, encode, head_forward, init_params
from .numerics import DualResult, cross_entropy_soft, mse


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 3
    batch_size: int = 8
    learning_rate: float = 2e-5
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    weight_decay: float = 0.01
    grad_clip_norm: float | None = 1.0
    seed: int = 0
    mixup: MixupConfig = field(default_factory=MixupConfig)

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ValueError("epochs and batch_size must be >= 1")
        if self.learning_rate <= 0:
            raise ValueError(f"learning_rate must be positive, got {self.learning_rate}")
        for key, beta in (("beta1", self.beta1), ("beta2", self.beta2)):
            if not 0.0 <= beta < 1.0:
                raise ValueError(f"train.{key} must lie in [0, 1), got {beta}")
        if self.adam_eps <= 0:
            raise ValueError(f"train.adam_eps must be positive, got {self.adam_eps}")
        if self.weight_decay < 0:
            raise ValueError(f"train.weight_decay must be >= 0, got {self.weight_decay}")
        if self.grad_clip_norm is not None and self.grad_clip_norm <= 0:
            raise ValueError(f"grad_clip_norm must be positive or None, got {self.grad_clip_norm}")
        if self.seed < 0:
            raise ValueError(f"train.seed must be >= 0, got {self.seed}")
        s = self.mixup.schedule
        if not isinstance(s, str) and not (s and max(s) <= self.epochs):
            raise ValueError(f"mixup.schedule must name epochs within 1..{self.epochs}, got {list(s)}")


@dataclass
class EpochReport:
    epoch: int
    mixup_active: bool
    mean_train_loss: float
    dev_metric: float
    wall_time_ms: int


@dataclass
class TrainState:
    """A run between two epochs: everything the next epoch reads and changes.

    `params` holds the weights and the Adam moments `m` and `v`; its `grad` is
    overwritten by every step, so it carries nothing between epochs. `reports`
    has one entry per finished epoch.
    """

    params: Parameters
    opt_step: int
    dropout_rng: np.random.Generator
    mixup_rng: np.random.Generator
    reports: list[EpochReport]

    def copy(self) -> TrainState:
        """An independent state that continues exactly as this one would."""
        params = Parameters(self.params.config, self.params.values)
        params.m[...], params.v[...] = self.params.m, self.params.v
        return TrainState(params, self.opt_step, copy.deepcopy(self.dropout_rng),
                          copy.deepcopy(self.mixup_rng), list(self.reports))


def start_state(model_config: ModelConfig, seed: int) -> TrainState:
    """The state before epoch 1: seeded initial weights and generator streams."""
    return TrainState(
        params=init_params(model_config), opt_step=0,
        dropout_rng=np.random.default_rng(np.random.SeedSequence([seed, 1])),
        mixup_rng=np.random.default_rng(np.random.SeedSequence([seed, 2])),
        reports=[],
    )


def _first_nonfinite(named: Sequence[tuple[str, np.ndarray | float]]) -> str | None:
    for name, value in named:
        if not (math.isfinite(value) if isinstance(value, float) else np.isfinite(value).all()):
            return name
    return None


def step_loss(
    params: Parameters,
    batch: EncodedBatch,
    mix_active: bool,
    mixup_config: MixupConfig,
    dropout_rng: np.random.Generator | None = None,
    mixup_rng: np.random.Generator | None = None,
    plan: MixPlan | None = None,
) -> DualResult:
    """Forward pass of one training step; output is the float loss, or one per
    copy of a stacked `params`, all sharing the batch, plan and dropout masks.

    When mixing is active the pooled representations and the label rows are
    interpolated with the same plan before the head. The returned backward
    maps an upstream scalar gradient to the gradients of all parameters,
    running loss -> head -> mix -> encoder; for a pair it routes gradient
    shares to both members. It overwrites `params.grad` and returns
    `(params.grad,)`, the gradient of `params.flat`, its one differentiable
    input. The backward closures read `params.values` by reference,
    so call it before the parameters change. Pass an explicit `plan` to pin
    the coefficient and pairing (tests, gradient checks).
    """
    enc = encode(params, batch, train_mode=True, rng=dropout_rng)
    h = enc.output
    y = batch.labels
    mix = None
    if mix_active:
        if plan is None:
            plan = make_plan(h.shape[-2], mixup_config, mixup_rng)
        mix = mix_representations(h, plan)
        h = mix.output
        y = mix_labels(y, plan)
    head = head_forward(params, h)
    logits = head.output
    classification = params.config.head == "classification"
    loss_dual = cross_entropy_soft(logits, y) if classification else mse(logits, y)
    loss = loss_dual.output

    bad = _first_nonfinite(
        [
            ("encoder.pooled", enc.output),
            ("mixup.mixed", h),
            ("head.logits" if classification else "head.predictions", logits),
            ("loss", loss),
        ]
    )
    if bad is not None:
        raise NonFiniteLossError(f"non-finite values in tensor {bad!r}")

    def backward(g):
        (dlogits,) = loss_dual.backward(g)
        (dpooled,) = head.backward(dlogits)
        if mix is not None:
            (dpooled,) = mix.backward(dpooled)
        enc.backward(dpooled)
        return (params.grad,)

    return DualResult(loss, backward)


def train_step(
    params: Parameters,
    batch: EncodedBatch,
    mix_active: bool,
    mixup_config: MixupConfig,
    dropout_rng: np.random.Generator | None = None,
    mixup_rng: np.random.Generator | None = None,
    plan: MixPlan | None = None,
):
    """One forward/backward pass (see `step_loss`); returns (loss, `params.grads`).

    The dict's arrays are views into `params.grad`: the next backward overwrites them.
    """
    step = step_loss(params, batch, mix_active, mixup_config, dropout_rng, mixup_rng, plan)
    step.backward(1.0)
    return step.output, params.grads


def adam_update(params: Parameters, step_count: int, config: TrainConfig) -> Parameters:
    """Bias-corrected Adam with decoupled weight decay on weight matrices only.

    Reads the gradient from `params.grad`. If any entry is non-finite, this
    raises NonFiniteLossError naming the first such tensor before any state
    changes. Optional global-norm clipping scales a copy, never `params.grad`.
    Decay skips biases and layer-norm parameters (everything 1-D).
    """
    if step_count < 1:
        raise ValueError(f"step_count must be >= 1, got {step_count}")
    if not np.isfinite(params.grad).all():
        bad = _first_nonfinite(list(params.grads.items()))
        raise NonFiniteLossError(f"non-finite gradient in tensor {bad!r}")
    g = params.grad.copy()  # the scratch array that clipping scales and the update is computed in
    clip = config.grad_clip_norm
    if clip is not None:
        # einsum, not g @ g: a BLAS dot this long wakes OpenBLAS's thread pool.
        # On 2 cores (OpenBLAS 0.3.31) that took 1.7 ms for 20k entries, and
        # einsum 0.03 ms.
        total = float(np.sqrt(np.einsum("i,i->", g, g)))
        if total > clip:
            g *= clip / total
    c1 = 1.0 - config.beta1**step_count
    c2 = 1.0 - config.beta2**step_count
    m, v = params.m, params.v
    # The ops below reuse `tmp` and `g` as outputs: a fresh temporary of this
    # size costs more than the arithmetic done in it.
    tmp = (1.0 - config.beta1) * g
    m *= config.beta1
    m += tmp
    np.multiply(g, 1.0 - config.beta2, out=tmp)
    tmp *= g
    v *= config.beta2
    v += tmp
    denom = np.divide(v, c2, out=tmp)
    np.sqrt(denom, out=denom)
    denom += config.adam_eps
    update = np.divide(m, c1, out=g)
    update *= config.learning_rate
    update /= denom
    if config.weight_decay:
        decay = np.multiply(params.flat, config.learning_rate * config.weight_decay, out=tmp)
        decay *= params.matrix_mask
        update += decay
    params.flat -= update
    return params


EVAL_BATCH_SIZE = 32


def evaluate(params: Parameters, dev_ds: Dataset) -> float:
    """Forward-only pass (no dropout, no mixing); returns the task metric's value.

    Rows are batched in order of length (a stable sort), so each batch is
    padded to about its rows' own width instead of the longest of
    EVAL_BATCH_SIZE rows in dataset order. Outputs are put back in dataset
    order before the metric, so it sums in the same order as an unsorted pass.
    A row's outputs may differ from that pass in the last bits, because the
    batch width changes the order of the attention sums.
    """
    examples, task = dev_ds.examples, dev_ds.task
    if not examples:
        raise ValueError("cannot evaluate on an empty dataset")
    order = np.argsort([ex.token_ids.size for ex in examples], kind="stable")
    by_length = Dataset(task, [examples[i] for i in order], dev_ds.split)
    outs = []
    for batch in batches(by_length, EVAL_BATCH_SIZE):
        pooled = encode(params, batch, train_mode=False).output
        outs.append(head_forward(params, pooled).output)
    out = np.concatenate(outs)[np.argsort(order)]
    preds = (np.argmax(out, axis=1) if task.is_classification else out[:, 0]).tolist()
    golds = [ex.label for ex in examples]
    if task.metric == "accuracy":
        return accuracy(preds, golds)
    if task.metric == "matthews":
        return matthews_corr(preds, golds)
    return spearman_corr(preds, golds)


def run_training(
    model_config: ModelConfig,
    train_config: TrainConfig,
    train_ds: Dataset,
    dev_ds: Dataset,
    state: TrainState | None = None,
    stop: int | None = None,
):
    """Seeded shuffling, scheduled mixing, Adam steps, per-epoch dev eval.

    Trains the epochs after those `state` has finished, through epoch `stop`
    (default: all). `state` defaults to a fresh `start_state`; a given one is
    advanced in place, so a caller can copy it at an epoch boundary and
    continue each copy under its own config. Returns (Parameters, list of
    EpochReports) of the state. Deterministic given the seeds and configs;
    only wall_time_ms varies between repeats.
    """
    if train_ds.task != dev_ds.task:
        raise ValueError("train and dev datasets must share a task")
    if state is None:
        state = start_state(model_config, train_config.seed)
    params, mix_cfg, seed = state.params, train_config.mixup, train_config.seed
    for epoch in range(len(state.reports) + 1, (train_config.epochs if stop is None else stop) + 1):
        t0 = time.perf_counter()
        active = is_active(epoch, train_config.epochs, mix_cfg)
        losses = []
        shuffle_seed = np.random.SeedSequence([seed, 3, epoch])
        for step, batch in enumerate(batches(train_ds, train_config.batch_size, shuffle_seed), start=1):
            try:
                loss, _ = train_step(
                    params, batch, active, mix_cfg,
                    dropout_rng=state.dropout_rng, mixup_rng=state.mixup_rng,
                )
                state.opt_step += 1
                adam_update(params, state.opt_step, train_config)
            except NonFiniteLossError as e:
                raise NonFiniteLossError(f"epoch {epoch}, step {step}: {e}") from None
            losses.append(loss)
        state.reports.append(
            EpochReport(
                epoch=epoch,
                mixup_active=active,
                mean_train_loss=float(np.mean(losses)) if losses else float("nan"),
                dev_metric=evaluate(params, dev_ds),
                wall_time_ms=int((time.perf_counter() - t0) * 1000),
            )
        )
    return params, state.reports
