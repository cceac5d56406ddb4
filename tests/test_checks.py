import multiprocessing
import os

import numpy as np
import pytest

import mixformer.checks as checks_mod
import mixformer.model as model_mod
from mixformer.checks import gradient_check_suite
from mixformer.cli import main
from mixformer.numerics import DualResult, grad_check


def per_coordinate_grad_check(f, inputs, h):
    """The finite-difference loop `numerics.grad_check` replaces: one unstacked
    call of f per +h and per -h perturbation, written into copies of the inputs."""
    inputs = [np.array(x, dtype=np.float64) for x in inputs]
    analytic = f(*inputs).backward(1.0)
    max_err = 0.0
    for x, a in zip(inputs, analytic):
        flat_x, flat_a = x.reshape(-1), np.ravel(a)
        for i in range(flat_x.size):
            orig = flat_x[i]
            flat_x[i] = orig + h
            fp = float(f(*inputs).output)
            flat_x[i] = orig - h
            fm = float(f(*inputs).output)
            flat_x[i] = orig
            num = (fp - fm) / (2.0 * h)
            ana = flat_a[i]
            max_err = np.maximum(max_err, abs(ana - num) / max(1.0, abs(ana), abs(num)))
    return float(max_err)


def test_scaled_gelu_backward_inside_the_model_fails_the_step_checks(monkeypatch, capsys):
    # Only the model's GELU is corrupted; the standalone `gelu` op check uses
    # the real one. The step checks evaluate the forward pass alone and call
    # backward once, so this proves that backward belongs to the same step.
    # A 0.1% error gives about 2e-4, well above the step tolerance of 1e-6.
    real = model_mod.gelu

    def scaled(x):
        dual = real(x)
        return DualResult(dual.output, lambda g: tuple(1.001 * a for a in dual.backward(g)))

    monkeypatch.setattr(model_mod, "gelu", scaled)
    failing = {r.name for r in gradient_check_suite() if not r.ok}
    assert failing == {"model_step", "model_step_mixup"}
    assert main(["gradcheck"]) == 1
    out = capsys.readouterr().out
    assert "FAIL model_step:" in out and "FAIL model_step_mixup:" in out


def test_suite_errors_equal_a_per_coordinate_loop_bit_for_bit(monkeypatch):
    # Stacking the perturbed copies changes no arithmetic: every check's error
    # is the one the per-coordinate loop gives, to the last bit.
    calls = []

    def recording(f, inputs, h):
        calls.append((f, inputs, h))
        return grad_check(f, inputs, h)

    monkeypatch.setattr(checks_mod, "grad_check", recording)
    results = gradient_check_suite()
    assert [r.name for r in results] == [
        "matmul", "softmax_rows", "layer_norm", "gelu", "cross_entropy_soft", "mse",
        "mix_representations", "model_step", "model_step_mixup",
    ]
    assert len(calls) == len(results)
    for r, (f, inputs, h) in zip(results, calls):
        assert r.max_rel_error == per_coordinate_grad_check(f, inputs, h), r.name


class ModelGeluError(RuntimeError):
    pass


def test_an_exception_in_a_model_step_reaches_the_caller_and_no_process_starts(monkeypatch):
    def failing(x):
        raise ModelGeluError()

    def no_fork():
        raise AssertionError("gradcheck started a child process")

    monkeypatch.setattr(os, "fork", no_fork)
    assert main(["gradcheck"]) == 0
    monkeypatch.setattr(model_mod, "gelu", failing)
    with pytest.raises(ModelGeluError):
        gradient_check_suite()
    assert multiprocessing.active_children() == []
