"""Tests of the benchmark's own helpers: `python3 -m pytest perfbench/tests`."""

import os
import statistics
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from stats import Span, self_times, summarize  # noqa: E402


def test_below_forty_samples_only_the_median():
    for n in (1, 2, 10, 39):
        s = summarize([float(i) for i in range(n)])
        assert s.n == n
        assert s.median == statistics.median(range(n))
        assert s.tail_pct is None and s.tail is None


def test_forty_samples_give_p75_with_ten_beyond():
    xs = [float(i) for i in range(1, 41)]
    s = summarize(list(reversed(xs)))
    assert (s.tail_pct, s.tail) == (75.0, 30.0)
    assert sum(x > s.tail for x in xs) == 10


@pytest.mark.parametrize("n, pct", [(99, 75.0), (100, 90.0), (199, 90.0), (200, 95.0),
                                    (999, 95.0), (1000, 99.0), (10000, 99.9)])
def test_highest_percentile_with_ten_samples_beyond(n, pct):
    xs = [float(i) for i in range(1, n + 1)]
    s = summarize(xs)
    assert s.tail_pct == pct
    assert sum(x > s.tail for x in xs) >= 10
    assert s.median == statistics.median(xs)


def test_summarize_rejects_no_samples():
    with pytest.raises(ValueError):
        summarize([])


def test_self_time_subtracts_children():
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 1.0, 3.0),
        Span(2, 0, "b", 4.0, 8.0),
        Span(3, 2, "c", 5.0, 6.0),
    ]
    assert self_times(spans) == {0: 4.0, 1: 2.0, 2: 3.0, 3: 1.0}


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # a backward closure can be called after its parent span has ended
    spans = [
        Span(0, None, "root", 0.0, 10.0),
        Span(1, 0, "a", 2.0, 6.0),
        Span(2, 0, "b", 4.0, 7.0),
        Span(3, 0, "late", 9.0, 12.0),
    ]
    assert self_times(spans)[0] == pytest.approx(10.0 - 5.0 - 1.0)


def test_self_time_of_leaf_is_its_duration():
    assert self_times([Span(7, None, "x", 1.5, 2.0)]) == {7: 0.5}

