import math
import warnings

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from mixformer.metrics import accuracy, matthews_corr, pearson_corr, spearman_corr


# ---- independent brute-force oracles -------------------------------------

def oracle_accuracy(pred, gold):
    hits = 0
    for p, g in zip(pred, gold):
        if p == g:
            hits += 1
    return hits / len(pred)


def oracle_matthews(pred, gold):
    tp = tn = fp = fn = 0
    for p, g in zip(pred, gold):
        if p == 1 and g == 1:
            tp += 1
        elif p == 0 and g == 0:
            tn += 1
        elif p == 1 and g == 0:
            fp += 1
        else:
            fn += 1
    denom = (tp + fp) * (tp + fn) * (tn + fp) * (tn + fn)
    if denom == 0:
        return 0.0
    return (tp * tn - fp * fn) / math.sqrt(denom)


def oracle_pearson(x, y):
    n = len(x)
    mx = sum(x) / n
    my = sum(y) / n
    cov = sum((a - mx) * (b - my) for a, b in zip(x, y))
    vx = sum((a - mx) ** 2 for a in x)
    vy = sum((b - my) ** 2 for b in y)
    if vx == 0 or vy == 0:
        return 0.0
    return cov / math.sqrt(vx * vy)


def oracle_average_ranks(xs):
    ranks = [0.0] * len(xs)
    for i, v in enumerate(xs):
        smaller = sum(1 for u in xs if u < v)
        equal = sum(1 for u in xs if u == v)
        # ranks smaller+1 .. smaller+equal averaged
        ranks[i] = smaller + (equal + 1) / 2.0
    return ranks


def oracle_spearman(pred, gold):
    rp = oracle_average_ranks(pred)
    rg = oracle_average_ranks(gold)
    if all(r == rp[0] for r in rp) or all(r == rg[0] for r in rg):
        return 0.0
    return oracle_pearson(rp, rg)


# ---- examples --------------------------------------------------------------

class TestAccuracy:
    def test_perfect(self):
        assert accuracy([1, 0, 2], [1, 0, 2]) == 1.0

    def test_half(self):
        assert accuracy([1, 0, 1, 0], [1, 1, 1, 1]) == 0.5

    def test_all_wrong(self):
        assert accuracy([0, 0], [1, 1]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length mismatch"):
            accuracy([1], [1, 0])

    def test_empty(self):
        with pytest.raises(ValueError, match="empty"):
            accuracy([], [])


class TestMatthews:
    def test_perfect_both_classes(self):
        assert matthews_corr([1, 0, 1, 0], [1, 0, 1, 0]) == 1.0

    def test_balanced_random_is_zero(self):
        # confusion matrix TP=FP=FN=TN=1 -> numerator 1-1=0
        assert oracle_matthews([1, 1, 0, 0], [1, 0, 1, 0]) == 0.0
        assert matthews_corr([1, 1, 0, 0], [1, 0, 1, 0]) == 0.0

    def test_degenerate_single_class_prediction(self):
        assert matthews_corr([1, 1, 1, 1], [1, 0, 1, 0]) == 0.0

    def test_rejects_non_binary(self):
        with pytest.raises(ValueError, match="binary"):
            matthews_corr([0, 2], [0, 1])

    def test_symmetry(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            pred = list(rng.integers(0, 2, 20))
            gold = list(rng.integers(0, 2, 20))
            assert matthews_corr(pred, gold) == pytest.approx(matthews_corr(gold, pred), abs=1e-15)


class TestSpearman:
    def test_strictly_increasing(self):
        assert spearman_corr([1.0, 2.5, 3.0, 7.0], [0.1, 0.2, 0.3, 0.4]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman_corr([4.0, 3.0, 2.0, 1.0], [1.0, 2.0, 3.0, 4.0]) == pytest.approx(-1.0)

    def test_ties_get_average_ranks(self):
        pred = [1.0, 2.0, 2.0, 4.0]
        gold = [1.0, 2.0, 3.0, 4.0]
        expected = oracle_spearman(pred, gold)
        assert oracle_average_ranks(pred) == [1.0, 2.5, 2.5, 4.0]
        assert spearman_corr(pred, gold) == pytest.approx(expected, abs=1e-12)

    def test_zero_variance_warns_and_returns_zero(self):
        with pytest.warns(UserWarning, match="zero variance"):
            assert spearman_corr([2.0, 2.0, 2.0], [1.0, 2.0, 3.0]) == 0.0

    def test_matches_scipy_with_ties(self):
        rng = np.random.default_rng(8)
        for _ in range(30):
            pred = list(rng.integers(0, 5, 25).astype(float))
            gold = list(rng.normal(size=25))
            expected = scipy.stats.spearmanr(pred, gold).statistic
            assert spearman_corr(pred, gold) == pytest.approx(expected, abs=1e-12)


class TestPearson:
    def test_affine_is_one(self):
        x = [1.0, 2.0, 5.0, 9.0]
        assert pearson_corr(x, [2 * v + 3 for v in x]) == pytest.approx(1.0)

    def test_negation_is_minus_one(self):
        x = [1.0, 2.0, 5.0]
        assert pearson_corr(x, [-v for v in x]) == pytest.approx(-1.0)

    def test_matches_textbook_oracle(self):
        rng = np.random.default_rng(10)
        x = list(rng.normal(size=200))
        y = list(rng.normal(size=200))
        assert pearson_corr(x, y) == pytest.approx(oracle_pearson(x, y), abs=1e-12)

    def test_zero_variance(self):
        assert pearson_corr([1.0, 1.0, 1.0], [1.0, 2.0, 3.0]) == 0.0

    def test_too_short(self):
        with pytest.raises(ValueError, match="at least 2"):
            pearson_corr([1.0], [2.0])


# ---- invariance properties -------------------------------------------------

pair_lists = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(st.floats(-100, 100), min_size=n, max_size=n),
        st.lists(st.floats(-100, 100), min_size=n, max_size=n),
    )
)


@settings(max_examples=60, deadline=None)
@given(pair_lists, st.integers(min_value=0, max_value=2**31 - 1))
def test_metrics_order_invariant(xy, seed):
    x, y = xy
    order = np.random.default_rng(seed).permutation(len(x))
    px = [x[i] for i in order]
    py = [y[i] for i in order]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        assert spearman_corr(px, py) == pytest.approx(spearman_corr(x, y), abs=1e-9)
    assert pearson_corr(px, py) == pytest.approx(pearson_corr(x, y), abs=1e-9)


# a coarse value grid keeps exp() strictly monotone in floating point (no
# underflow-created ties), so ranks must be preserved exactly
grid_pair_lists = st.integers(min_value=2, max_value=40).flatmap(
    lambda n: st.tuples(
        st.lists(st.integers(-100_000, 100_000).map(lambda k: k / 1000), min_size=n, max_size=n),
        st.lists(st.floats(-100, 100), min_size=n, max_size=n),
    )
)


@settings(max_examples=60, deadline=None)
@given(grid_pair_lists, st.floats(min_value=0.01, max_value=50), st.floats(min_value=-20, max_value=20))
def test_spearman_monotone_transform_invariant(xy, scale, shift):
    x, y = xy
    transformed = [math.exp(v * 0.01) * scale + shift for v in x]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        base = spearman_corr(x, y)
        trans = spearman_corr(transformed, y)
    assert trans == pytest.approx(base, abs=1e-9)


# x on the 1e-3 grid, as for Spearman above: with arbitrary floats, x = [0, 3.6e-68]
# shifted by 1 rounds to the constant [1, 1], whose correlation is 0 by definition.
@settings(max_examples=60, deadline=None)
@given(grid_pair_lists, st.floats(min_value=0.01, max_value=50), st.floats(min_value=-20, max_value=20))
def test_pearson_positive_affine_invariant(xy, scale, shift):
    x, y = xy
    assert pearson_corr([scale * v + shift for v in x], y) == pytest.approx(
        pearson_corr(x, y), abs=1e-7
    )

