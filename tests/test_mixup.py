import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mixformer.mixup import (
    BetaLambda,
    FixedLambda,
    MixPlan,
    MixupConfig,
    is_active,
    make_plan,
    mix_labels,
    mix_representations,
    sample_lambda,
)
from mixformer.numerics import grad_check, scalarize


def beta_variance(alpha: float) -> float:
    # Var Beta(a, a) = a^2 / ((2a)^2 (2a + 1)) = 1 / (4 (2a + 1))
    return 1.0 / (4.0 * (2.0 * alpha + 1.0))


class TestSampleLambda:
    def test_fixed_returns_value_verbatim(self):
        cfg = MixupConfig(lambda_policy=FixedLambda(0.5))
        rng = np.random.default_rng(0)
        assert all(sample_lambda(cfg, rng) == 0.5 for _ in range(100))

    def test_beta_symmetric_mean(self):
        cfg = MixupConfig(lambda_policy=BetaLambda(1.0))
        rng = np.random.default_rng(11)
        draws = np.array([sample_lambda(cfg, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.5) < 0.01

    @pytest.mark.parametrize("alpha", [0.2, 1.0, 5.0])
    def test_beta_variance_matches_formula(self, alpha):
        cfg = MixupConfig(lambda_policy=BetaLambda(alpha))
        rng = np.random.default_rng(17)
        draws = np.array([sample_lambda(cfg, rng) for _ in range(100_000)])
        expected = beta_variance(alpha)
        assert abs(draws.var() - expected) < 0.1 * expected

    @pytest.mark.parametrize("alpha", [0.2, 0.7, 1.0, 3.0])
    def test_always_in_unit_interval(self, alpha):
        cfg = MixupConfig(lambda_policy=BetaLambda(alpha))
        rng = np.random.default_rng(2)
        draws = [sample_lambda(cfg, rng) for _ in range(2000)]
        assert all(0.0 <= d <= 1.0 for d in draws)

    def test_policy_validation(self):
        with pytest.raises(ValueError):
            FixedLambda(1.5)
        with pytest.raises(ValueError):
            BetaLambda(0.0)


class TestMakePlan:
    def test_batch_of_one_pairs_with_itself(self):
        plan = make_plan(1, MixupConfig(), np.random.default_rng(0))
        np.testing.assert_array_equal(plan.perm, [0])

    def test_zero_batch_rejected(self):
        with pytest.raises(ValueError, match="batch_size"):
            make_plan(0, MixupConfig(), np.random.default_rng(0))

    def test_seeded_determinism(self):
        cfg = MixupConfig(lambda_policy=BetaLambda(0.4))
        p1 = make_plan(6, cfg, np.random.default_rng(123))
        p2 = make_plan(6, cfg, np.random.default_rng(123))
        assert p1.lam == p2.lam
        np.testing.assert_array_equal(p1.perm, p2.perm)

    def test_permutations_uniform(self):
        # each of the 24 permutations of 4 indices ~ Binomial(n, 1/24)
        n = 10_000
        rng = np.random.default_rng(7)
        counts = {p: 0 for p in itertools.permutations(range(4))}
        for _ in range(n):
            counts[tuple(make_plan(4, MixupConfig(), rng).perm)] += 1
        p = 1 / 24
        sigma = math.sqrt(n * p * (1 - p))
        for perm, c in counts.items():
            assert abs(c - n * p) < 3 * sigma, f"perm {perm} count {c}"


class TestMixRepresentations:
    def test_lambda_one_is_bitwise_identity(self):
        h = np.random.default_rng(3).uniform(-5, 5, (6, 4))
        out = mix_representations(h, MixPlan(1.0, np.roll(np.arange(6), 1))).output
        np.testing.assert_array_equal(out, h)

    def test_lambda_zero_is_permuted_rows(self):
        h = np.random.default_rng(4).uniform(-5, 5, (5, 3))
        perm = np.array([4, 3, 2, 1, 0])
        out = mix_representations(h, MixPlan(0.0, perm)).output
        np.testing.assert_array_equal(out, h[perm])

    def test_halfway_arithmetic(self):
        out = mix_representations(
            np.array([[2.0, 4.0], [0.0, 0.0]]), MixPlan(0.5, np.array([1, 0]))
        ).output
        np.testing.assert_array_equal(out, [[1.0, 2.0], [1.0, 2.0]])

    def test_inverse_permutation_identity(self):
        # mix(h, perm, lam) == mix(h, perm^-1, 1-lam) with rows permuted by perm
        rng = np.random.default_rng(9)
        for _ in range(20):
            b, d = int(rng.integers(2, 7)), int(rng.integers(1, 5))
            h = rng.uniform(-3, 3, (b, d))
            perm = rng.permutation(b)
            inv = np.argsort(perm)
            lam = float(rng.uniform(0, 1))
            left = mix_representations(h, MixPlan(lam, perm)).output
            right = mix_representations(h, MixPlan(1.0 - lam, inv)).output[perm]
            np.testing.assert_allclose(left, right, atol=1e-15)

    def test_gradient_near_machine_precision(self):
        rng = np.random.default_rng(12)
        h = rng.uniform(-1, 1, (3, 2))
        plan = MixPlan(0.3, np.array([2, 0, 1]))
        probe = rng.uniform(-1, 1, (3, 2))
        err = grad_check(scalarize(lambda t: mix_representations(t, plan), probe), [h], h=1e-5)
        assert err < 1e-10

    def test_backward_routes_shares_to_pair_members(self):
        # brute-force oracle: dH[k] += lam*g[k]; dH[perm[k]] += (1-lam)*g[k]
        rng = np.random.default_rng(21)
        for _ in range(50):
            b, d = int(rng.integers(1, 9)), int(rng.integers(1, 6))
            h = rng.uniform(-2, 2, (b, d))
            perm = rng.permutation(b)
            lam = float(rng.uniform(0, 1))
            g = rng.uniform(-2, 2, (b, d))
            (analytic,) = mix_representations(h, MixPlan(lam, perm)).backward(g)
            oracle = np.zeros((b, d))
            for k in range(b):
                for j in range(d):
                    oracle[k, j] += lam * g[k, j]
                    oracle[perm[k], j] += (1.0 - lam) * g[k, j]
            np.testing.assert_allclose(analytic, oracle, atol=1e-15)

    def test_plan_length_mismatch(self):
        with pytest.raises(ValueError, match="rows"):
            mix_representations(np.zeros((3, 2)), MixPlan(0.5, np.array([1, 0])))


class TestMixLabels:
    def test_one_hot_halfway(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0]])
        out = mix_labels(labels, MixPlan(0.5, np.array([1, 0])))
        np.testing.assert_array_equal(out, [[0.5, 0.5], [0.5, 0.5]])

    def test_lambda_zero_gives_permuted_labels(self):
        labels = np.array([[1.0, 0.0], [0.0, 1.0], [1.0, 0.0]])
        perm = np.array([2, 0, 1])
        out = mix_labels(labels, MixPlan(0.0, perm))
        np.testing.assert_array_equal(out, labels[perm])

    def test_regression_interpolation(self):
        out = mix_labels(np.array([[2.0], [4.0]]), MixPlan(0.25, np.array([1, 0])))
        assert out[0, 0] == pytest.approx(3.5)

    @settings(max_examples=50, deadline=None)
    @given(
        st.integers(min_value=1, max_value=8),
        st.integers(min_value=2, max_value=5),
        st.floats(min_value=0.0, max_value=1.0),
        st.integers(min_value=0, max_value=2**31 - 1),
    )
    def test_mixed_rows_remain_distributions(self, b, c, lam, seed):
        rng = np.random.default_rng(seed)
        labels = np.zeros((b, c))
        labels[np.arange(b), rng.integers(0, c, b)] = 1.0
        out = mix_labels(labels, MixPlan(lam, rng.permutation(b)))
        np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(out >= 0.0)


class TestIsActive:
    def test_last_half_of_three(self):
        cfg = MixupConfig(schedule="last_half")
        assert [is_active(e, 3, cfg) for e in (1, 2, 3)] == [False, True, True]

    def test_last_half_of_four(self):
        cfg = MixupConfig(schedule="last_half")
        assert [is_active(e, 4, cfg) for e in (1, 2, 3, 4)] == [False, False, True, True]

    def test_disabled_is_never_active(self):
        cfg = MixupConfig(enabled=False, schedule="always")
        assert not any(is_active(e, 5, cfg) for e in range(1, 6))

    def test_always(self):
        cfg = MixupConfig(schedule="always")
        assert all(is_active(e, 4, cfg) for e in range(1, 5))

    def test_epoch_set_membership(self):
        cfg = MixupConfig(schedule=(1, 3))
        assert [is_active(e, 3, cfg) for e in (1, 2, 3)] == [True, False, True]

    def test_epoch_out_of_range(self):
        with pytest.raises(ValueError, match="epoch"):
            is_active(0, 3, MixupConfig())
        with pytest.raises(ValueError, match="epoch"):
            is_active(4, 3, MixupConfig())

    def test_schedule_validation(self):
        with pytest.raises(ValueError, match="schedule"):
            MixupConfig(schedule="sometimes")
        with pytest.raises(ValueError, match="1-based"):
            MixupConfig(schedule=(0, 2))


def test_plan_requires_bijection():
    with pytest.raises(ValueError, match="bijection"):
        MixPlan(0.5, np.array([0, 0, 1]))
