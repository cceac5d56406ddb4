"""Summary statistics used by the benchmark: the percentile rule and self time."""

from __future__ import annotations

import math
import statistics
from collections import defaultdict
from typing import Iterable, NamedTuple, Sequence

TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


class Summary(NamedTuple):
    n: int
    median: float
    tail_pct: float | None  # None when there are too few samples for a tail
    tail: float | None


def summarize(samples: Sequence[float]) -> Summary:
    """Median plus the highest ladder percentile with at least ten samples beyond it.

    Below forty samples no ladder percentile has ten samples beyond it, so only
    the median is given. Percentiles use the nearest-rank definition.
    """
    if not samples:
        raise ValueError("summarize needs at least one sample")
    xs = sorted(samples)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = math.ceil(pct * n / 100.0 - 1e-9)  # nearest rank, robust to 99.9 * n rounding up
        if n - rank >= MIN_BEYOND:
            return Summary(n, statistics.median(xs), pct, xs[rank - 1])
    return Summary(n, statistics.median(xs), None, None)


class Span(NamedTuple):
    sid: int
    parent: int | None
    name: str
    start: float
    end: float


def _covered(intervals: Iterable[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of the intervals, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Span]) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {s.sid: (s.end - s.start) - _covered(children[s.sid], s.start, s.end) for s in spans}

