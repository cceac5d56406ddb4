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
