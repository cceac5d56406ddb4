"""Evaluation metrics: accuracy, Matthews correlation, Spearman/Pearson correlation.

Degenerate cases (one-class predictions, zero variance) evaluate to 0 rather
than raising, so low-resource sweep cells never abort the harness.
"""

from __future__ import annotations

import math
import warnings
from typing import Sequence

import numpy as np


def accuracy(pred: Sequence[int], gold: Sequence[int]) -> float:
    """Fraction of exact matches."""
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(gold)} labels")
    if not pred:
        raise ValueError("empty input")
    return sum(int(p == g) for p, g in zip(pred, gold)) / len(pred)


def matthews_corr(pred: Sequence[int], gold: Sequence[int]) -> float:
    """Binary Matthews correlation from the confusion matrix; 0 when degenerate."""
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} predictions vs {len(gold)} labels")
    if not pred:
        raise ValueError("empty input")
    if any(v not in (0, 1) for v in pred) or any(v not in (0, 1) for v in gold):
        raise ValueError("matthews_corr requires binary {0, 1} labels")
    tp = sum(1 for p, g in zip(pred, gold) if p == 1 and g == 1)
    tn = sum(1 for p, g in zip(pred, gold) if p == 0 and g == 0)
    fp = sum(1 for p, g in zip(pred, gold) if p == 1 and g == 0)
    fn = sum(1 for p, g in zip(pred, gold) if p == 0 and g == 1)
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def _average_ranks(xs: np.ndarray) -> np.ndarray:
    """Fractional ranks (1-based), ties averaged, via stable sort."""
    order = np.argsort(xs, kind="stable")
    ranks = np.empty(xs.size, dtype=np.float64)
    i = 0
    while i < xs.size:
        j = i
        while j + 1 < xs.size and xs[order[j + 1]] == xs[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        i = j + 1
    return ranks


def pearson_corr(x: Sequence[float], y: Sequence[float]) -> float:
    """Centered covariance over the product of standard deviations; 0 on zero variance."""
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    if len(x) < 2:
        raise ValueError("pearson_corr needs at least 2 points")
    xa = np.asarray(x, dtype=np.float64)
    ya = np.asarray(y, dtype=np.float64)
    dx = xa - xa.mean()
    dy = ya - ya.mean()
    den = math.sqrt(float((dx * dx).sum())) * math.sqrt(float((dy * dy).sum()))
    if den == 0.0:
        return 0.0
    return float((dx * dy).sum()) / den


def spearman_corr(pred: Sequence[float], gold: Sequence[float]) -> float:
    """Pearson correlation of average-over-ties fractional ranks."""
    if len(pred) != len(gold):
        raise ValueError(f"length mismatch: {len(pred)} vs {len(gold)}")
    if len(pred) < 2:
        raise ValueError("spearman_corr needs at least 2 points")
    rp = _average_ranks(np.asarray(pred, dtype=np.float64))
    rg = _average_ranks(np.asarray(gold, dtype=np.float64))
    if np.all(rp == rp[0]) or np.all(rg == rg[0]):
        warnings.warn("spearman_corr: zero variance in a rank vector, returning 0", stacklevel=2)
        return 0.0
    return pearson_corr(rp, rg)
