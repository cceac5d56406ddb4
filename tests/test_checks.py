import multiprocessing
import os

import pytest

import mixformer.checks as checks_mod
import mixformer.model as model_mod
from mixformer.checks import gradient_check_suite
from mixformer.cli import main
from mixformer.numerics import DualResult


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


def test_pooled_model_steps_match_in_process_checks():
    # The two model steps run in forked workers; their errors must be the
    # ones an in-process run gives, bit for bit, appended in the usual order.
    results = gradient_check_suite()
    assert [r.name for r in results] == [
        "matmul", "softmax_rows", "layer_norm", "gelu", "cross_entropy_soft", "mse",
        "mix_representations", "model_step", "model_step_mixup",
    ]
    errors = {r.name: r.max_rel_error for r in results}
    assert errors["model_step"] == checks_mod._model_step_error(False, 1e-5)
    assert errors["model_step_mixup"] == checks_mod._model_step_error(True, 1e-5)


class WorkerGeluError(RuntimeError):
    pass


def test_an_exception_in_a_model_step_worker_reaches_the_caller(monkeypatch):
    def failing(x):
        raise WorkerGeluError(os.getpid())

    monkeypatch.setattr(model_mod, "gelu", failing)
    with pytest.raises(WorkerGeluError) as excinfo:
        gradient_check_suite()
    assert excinfo.value.args[0] != os.getpid()  # raised in a worker, not here
    assert multiprocessing.active_children() == []
