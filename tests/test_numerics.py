import math

import numpy as np
import pytest

from mixformer.numerics import (
    DualResult,
    cross_entropy_soft,
    gelu,
    grad_check,
    layer_norm,
    matmul,
    mse,
    scalarize,
    softmax_rows,
)

RNG = np.random.default_rng(20240811)


class TestMatmul:
    def test_identity(self):
        out = matmul([[1.0, 0.0], [0.0, 1.0]], [[3.0, 4.0], [5.0, 6.0]]).output
        np.testing.assert_array_equal(out, [[3.0, 4.0], [5.0, 6.0]])

    def test_row_times_column(self):
        out = matmul([[1.0, 2.0]], [[3.0], [4.0]]).output
        np.testing.assert_array_equal(out, [[11.0]])

    def test_shape_error_names_both_shapes(self):
        with pytest.raises(ValueError, match=r"\(2, 3\).*\(2, 2\)"):
            matmul(np.zeros((2, 3)), np.zeros((2, 2)))

    def test_gradient_matches_finite_differences(self):
        a = RNG.uniform(-2, 2, (3, 4))
        b = RNG.uniform(-2, 2, (4, 2))
        probe = RNG.uniform(-1, 1, (3, 2))
        err = grad_check(scalarize(matmul, probe), [a, b], h=1e-5)
        assert err < 1e-6


class TestSoftmaxRows:
    def test_uniform_row(self):
        out = softmax_rows([[0.0, 0.0, 0.0]]).output
        np.testing.assert_allclose(out, [[1 / 3] * 3], atol=1e-15)

    def test_large_logit_no_overflow(self):
        # max-subtraction turns these into exp(0) and exp(-1000)
        out = softmax_rows([[1000.0, 0.0]]).output
        assert np.all(np.isfinite(out))
        assert out[0, 0] == pytest.approx(1.0)
        assert out[0, 1] < 1e-300

    def test_rows_sum_to_one_in_unit_interval(self):
        x = RNG.uniform(-20, 20, (50, 7))
        s = softmax_rows(x).output
        np.testing.assert_allclose(s.sum(axis=1), 1.0, atol=1e-12)
        assert np.all(s >= 0.0) and np.all(s <= 1.0)

    def test_gradient_matches_finite_differences(self):
        x = RNG.uniform(-2, 2, (2, 5))
        probe = RNG.uniform(-1, 1, (2, 5))
        err = grad_check(scalarize(softmax_rows, probe), [x], h=1e-5)
        assert err < 1e-6


class TestLayerNorm:
    def test_constant_row_collapses_to_bias(self):
        out = layer_norm([[5.0, 5.0, 5.0, 5.0]], np.ones(4), np.zeros(4)).output
        np.testing.assert_array_equal(out, [[0.0, 0.0, 0.0, 0.0]])

    def test_already_normalized_row(self):
        out = layer_norm([[1.0, -1.0]], np.ones(2), np.zeros(2), eps=1e-12).output
        np.testing.assert_allclose(out, [[1.0, -1.0]], atol=1e-9)

    def test_eps_must_be_positive(self):
        with pytest.raises(ValueError, match="eps"):
            layer_norm(np.ones((2, 2)), np.ones(2), np.zeros(2), eps=0.0)

    def test_gradient_all_three_inputs(self):
        x = RNG.uniform(-2, 2, (4, 8))
        gain = RNG.uniform(0.5, 1.5, 8)
        bias = RNG.uniform(-0.5, 0.5, 8)
        probe = RNG.uniform(-1, 1, (4, 8))
        err = grad_check(scalarize(layer_norm, probe), [x, gain, bias], h=1e-5)
        assert err < 1e-5

    @pytest.mark.parametrize("width", [5, 8, 24, 32])
    def test_forward_and_backward_bit_identical_to_mean_formulas(self, width):
        rng = np.random.default_rng(width)
        x = rng.uniform(-3, 3, (2, 7, width))
        gain = rng.uniform(0.5, 1.5, width)
        bias = rng.uniform(-0.5, 0.5, width)
        g = rng.uniform(-1, 1, x.shape)
        eps = 1e-5
        # Reference: the same formulas written with ndarray.mean.
        mu = x.mean(axis=-1, keepdims=True)
        xc = x - mu
        var = (xc * xc).mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(var + eps)
        xhat = xc * inv
        dxhat = g * gain
        ref_dx = inv * (
            dxhat
            - dxhat.mean(axis=-1, keepdims=True)
            - xhat * (dxhat * xhat).mean(axis=-1, keepdims=True)
        )
        dual = layer_norm(x, gain, bias, eps=eps)
        np.testing.assert_array_equal(dual.output, xhat * gain + bias)
        dx, dgain, dbias = dual.backward(g)
        np.testing.assert_array_equal(dx, ref_dx)
        np.testing.assert_array_equal(dgain, (g * xhat).reshape(-1, width).sum(axis=0))
        np.testing.assert_array_equal(dbias, g.reshape(-1, width).sum(axis=0))


class TestGelu:
    def test_zero(self):
        assert gelu(np.array([0.0])).output[0] == 0.0

    def test_large_positive_asymptote(self):
        assert gelu(np.array([10.0])).output[0] == pytest.approx(10.0, abs=1e-6)

    def test_gradient_matches_finite_differences(self):
        x = RNG.uniform(-2, 2, 9)
        probe = RNG.uniform(-1, 1, 9)
        err = grad_check(scalarize(gelu, probe), [x], h=1e-5)
        assert err < 1e-6


def random_distributions(rng, shape):
    return softmax_rows(rng.uniform(-2, 2, shape)).output


class TestCrossEntropySoft:
    def test_uniform_logits_one_hot_target(self):
        c = 5
        logits = np.zeros((1, c))
        target = np.zeros((1, c))
        target[0, 0] = 1.0
        assert cross_entropy_soft(logits, target).output == pytest.approx(math.log(c), abs=1e-12)

    def test_linear_in_targets(self):
        z = RNG.uniform(-3, 3, (4, 6))
        p = random_distributions(RNG, (4, 6))
        q = random_distributions(RNG, (4, 6))
        lam = 0.5
        mixed = cross_entropy_soft(z, lam * p + (1 - lam) * q).output
        split = lam * cross_entropy_soft(z, p).output + (1 - lam) * cross_entropy_soft(z, q).output
        assert abs(mixed - split) < 1e-12

    def test_gradient_matches_finite_differences(self):
        z = RNG.uniform(-2, 2, (3, 4))
        targets = random_distributions(RNG, (3, 4))
        err = grad_check(lambda logits: cross_entropy_soft(logits, targets), [z], h=1e-5)
        assert err < 1e-6


class TestMse:
    def test_equal_is_zero(self):
        assert mse(np.ones((3, 1)), np.ones((3, 1))).output == 0.0

    def test_simple_value(self):
        assert mse(np.array([[1.0]]), np.array([[3.0]])).output == 4.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="mse shape mismatch"):
            mse(np.zeros((2, 1)), np.zeros((3, 1)))

    def test_gradient_matches_finite_differences(self):
        pred = RNG.uniform(-2, 2, (6, 1))
        target = RNG.uniform(-2, 2, (6, 1))
        err = grad_check(lambda p: mse(p, target), [pred], h=1e-5)
        assert err < 1e-7


class TestGradCheck:
    def test_quadratic_exact_under_central_differences(self):
        def f(x):
            return DualResult((x * x).sum(axis=-1), lambda g: (2.0 * x * float(g),))

        err = grad_check(f, [np.array([1.0, 2.0])], h=1e-5)
        analytic = f(np.array([1.0, 2.0])).backward(1.0)[0]
        np.testing.assert_array_equal(analytic, [2.0, 4.0])
        assert err < 1e-9

    def test_linear_to_machine_precision(self):
        w = np.array([0.3, -1.2, 0.7])

        def f(x):
            return DualResult((w * x).sum(axis=-1), lambda g: (w * float(g),))

        err = grad_check(f, [np.array([0.1, 0.2, -0.4])], h=1e-5)
        assert err < 1e-10

    def test_detects_corrupted_gradient(self):
        def f(x):
            return DualResult((x * x).sum(axis=-1), lambda g: (2.2 * x * float(g),))

        err = grad_check(f, [np.array([1.0, 2.0])], h=1e-5)
        assert err > 1e-2

    def test_nan_gradient_fails_even_before_finite_ones(self):
        def f(x):
            return DualResult((x * x).sum(axis=-1), lambda g: (np.array([np.nan, 2.0 * x[1]]),))

        assert np.isnan(grad_check(f, [np.array([1.0, 2.0])], h=1e-5))

    def test_nondeterministic_function_is_hard_error(self):
        state = {"n": 0}

        def f(x):
            state["n"] += 1
            return DualResult(float(x.sum()) + state["n"], lambda g: (np.ones_like(x),))

        with pytest.raises(RuntimeError, match="deterministic"):
            grad_check(f, [np.zeros(2)])

    def test_requires_positive_h(self):
        def f(x):
            return DualResult(float(x.sum()), lambda g: (np.ones_like(x ),))

        with pytest.raises(ValueError, match="positive"):
            grad_check(f, [np.zeros(2)], h=0.0)

    def test_read_only_inputs_pass(self):
        x = np.array([1.0, 2.0, 3.0])
        x.flags.writeable = False

        def f(t):
            return DualResult((t * t).sum(axis=-1), lambda g: (2.0 * t * float(g),))

        assert grad_check(f, [x]) < 1e-9


def op_cases():
    rng = np.random.default_rng(5)
    x = rng.uniform(-2, 2, (3, 4))
    return [
        ("matmul", matmul(x, rng.uniform(-2, 2, (4, 2))), (3, 2)),
        ("softmax_rows", softmax_rows(x), (3, 4)),
        ("layer_norm", layer_norm(x, np.ones(4), np.zeros(4)), (3, 4)),
        ("gelu", gelu(x), (3, 4)),
        ("cross_entropy_soft", cross_entropy_soft(x, random_distributions(rng, (3, 4))), ()),
        ("mse", mse(x[:, :1], x[:, 1:2]), ()),
    ]


@pytest.mark.parametrize("name,dual,out_shape", op_cases(), ids=lambda c: c if isinstance(c, str) else "")
def test_zero_upstream_gives_zero_gradients(name, dual, out_shape):
    zero = 0.0 if out_shape == () else np.zeros(out_shape)
    for grad in dual.backward(zero):
        assert not np.any(grad)


@pytest.mark.parametrize(
    "op,args",
    [
        (matmul, (RNG.uniform(-1, 1, (3, 4)), RNG.uniform(-1, 1, (4, 2)))),
        (softmax_rows, (RNG.uniform(-1, 1, (3, 4)),)),
        (layer_norm, (RNG.uniform(-1, 1, (3, 4)), np.ones(4), np.zeros(4))),
        (gelu, (RNG.uniform(-1, 1, (3, 4)),)),
    ],
)
def test_ops_are_pure(op, args):
    first = op(*args).output
    second = op(*args).output
    np.testing.assert_array_equal(first, second)
