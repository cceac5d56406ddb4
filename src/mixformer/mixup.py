"""Convex interpolation of pooled representations and labels.

A training step draws one mixing coefficient and one within-batch permutation
(a MixPlan), then applies the same plan to the encoder's pooled outputs and to
the labels. Mixing is a training-time regularizer only and can be restricted
to a subset of epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Union

import numpy as np

from .numerics import Array, DualResult, as_tensor


@dataclass(frozen=True)
class FixedLambda:
    """Always mix with the same coefficient."""

    value: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.value <= 1.0):
            raise ValueError(f"fixed lambda must lie in [0, 1], got {self.value}")


@dataclass(frozen=True)
class BetaLambda:
    """Draw the coefficient from Beta(alpha, alpha)."""

    alpha: float = 1.0

    def __post_init__(self):
        if not self.alpha > 0.0:
            raise ValueError(f"beta alpha must be positive, got {self.alpha}")


LambdaPolicy = Union[FixedLambda, BetaLambda]

SCHEDULE_NAMES = ("always", "last_half")


@dataclass(frozen=True)
class MixupConfig:
    """Mixing policy: coefficient source, epoch schedule, master switch.

    schedule is "always", "last_half" (active when epoch > floor(total/2)),
    or an explicit tuple of 1-based epoch indices.
    """

    enabled: bool = True
    lambda_policy: LambdaPolicy = field(default_factory=FixedLambda)
    schedule: str | tuple[int, ...] = "last_half"

    def __post_init__(self):
        s = self.schedule
        if isinstance(s, str):
            if s not in SCHEDULE_NAMES:
                raise ValueError(f"unknown schedule {s!r}; expected one of {SCHEDULE_NAMES} or epoch tuple")
        else:
            object.__setattr__(self, "schedule", tuple(int(e) for e in s))
            if any(e < 1 for e in self.schedule):
                raise ValueError(f"epoch_set entries must be 1-based positives, got {s}")


@dataclass(frozen=True)
class MixPlan:
    """One batch's mixing decision: coefficient plus pairing permutation."""

    lam: float
    perm: Array

    def __post_init__(self):
        perm = np.asarray(self.perm, dtype=np.int64)
        object.__setattr__(self, "perm", perm)
        if perm.ndim != 1 or not np.array_equal(np.sort(perm), np.arange(perm.size)):
            raise ValueError("perm must be a bijection on {0..b-1}")
        if not (0.0 <= self.lam <= 1.0):
            raise ValueError(f"lambda must lie in [0, 1], got {self.lam}")


def sample_lambda(config: MixupConfig, rng: np.random.Generator) -> float:
    """Draw one mixing coefficient; Fixed returns its value verbatim."""
    pol = config.lambda_policy
    if isinstance(pol, FixedLambda):
        return pol.value
    return float(rng.beta(pol.alpha, pol.alpha))


def make_plan(batch_size: int, config: MixupConfig, rng: np.random.Generator) -> MixPlan:
    """One lambda and one uniform shuffle of batch indices per batch."""
    if batch_size < 1:
        raise ValueError(f"batch_size must be >= 1, got {batch_size}")
    lam = sample_lambda(config, rng)
    perm = rng.permutation(batch_size)
    return MixPlan(lam, perm)


def mix_representations(h, plan: MixPlan) -> DualResult:
    """out[k] = lam * h[k] + (1 - lam) * h[perm[k]].

    backward routes the upstream gradient to both members of each pair:
    dH[k] += lam * g[k] and dH[perm[k]] += (1 - lam) * g[k], which is what
    keeps the mixed representation trainable end to end.
    """
    h = as_tensor(h)
    if plan.perm.shape[0] != h.shape[0]:
        raise ValueError(f"plan covers {plan.perm.shape[0]} rows but batch has {h.shape[0]}")
    lam = plan.lam
    out = lam * h + (1.0 - lam) * h[plan.perm]

    def backward(g):
        dh = lam * g
        np.add.at(dh, plan.perm, (1.0 - lam) * g)
        return (dh,)

    return DualResult(out, backward)


def mix_labels(labels, plan: MixPlan) -> Array:
    """Same convex combination as the representations, applied to label rows."""
    labels = as_tensor(labels)
    if labels.shape[0] != plan.perm.shape[0]:
        raise ValueError(f"plan covers {plan.perm.shape[0]} rows but labels have {labels.shape[0]}")
    return plan.lam * labels + (1.0 - plan.lam) * labels[plan.perm]


def is_active(epoch: int, total_epochs: int, config: MixupConfig) -> bool:
    """Whether mixing applies in this 1-based epoch under the configured schedule."""
    if not 1 <= epoch <= total_epochs:
        raise ValueError(f"epoch {epoch} outside [1, {total_epochs}]")
    if not config.enabled:
        return False
    s = config.schedule
    if s == "always":
        return True
    if s == "last_half":
        return epoch > total_epochs // 2
    return epoch in s


def epochs_before_mixing(total_epochs: int, config: MixupConfig) -> int:
    """How many epochs run before mixing first applies: all of them when it never does."""
    return next((e - 1 for e in range(1, total_epochs + 1) if is_active(e, total_epochs, config)), total_epochs)
