"""Fast sanity checks on the toy training loop; the full 500-step
stability comparison lives in the acceptance suite."""

import json

import pytest

from momentpool.toytrain import ToyTrainConfig, ToyTrainReport, run_toytrain

FAST = dict(steps=30, lr=5e-4, batch=4, feature_shape=(2, 8, 8))


def test_mean_pooling_converges():
    report = run_toytrain(ToyTrainConfig(seed=5, n=1, norm="none", **FAST))
    assert report.step_of_first_nonfinite is None
    assert len(report.loss_curve) == 30
    assert report.final_loss < report.loss_curve[0]


def test_same_seed_reproduces_loss_curve():
    cfg = ToyTrainConfig(seed=11, n=2, norm="none", **FAST)
    assert run_toytrain(cfg).loss_curve == run_toytrain(cfg).loss_curve


def test_different_seed_changes_task():
    a = run_toytrain(ToyTrainConfig(seed=1, n=1, norm="none", **FAST))
    b = run_toytrain(ToyTrainConfig(seed=2, n=1, norm="none", **FAST))
    assert a.loss_curve != b.loss_curve


def test_report_json_is_strict():
    report = ToyTrainReport(step_of_first_nonfinite=3,
                            final_loss=float("nan"),
                            loss_curve=[1.0, float("inf"), float("-inf"),
                                        float("nan")])
    decoded = json.loads(report.to_json())  # would choke on bare NaN tokens
    assert decoded["final_loss"] == "NaN"
    assert decoded["loss_curve"] == [1.0, "Infinity", "-Infinity", "NaN"]


def test_nonfinite_step_never_exceeds_steps():
    cfg = ToyTrainConfig(seed=17, steps=120, lr=5e-4, n=4, norm="none",
                         unsafe_no_norm=True)
    report = run_toytrain(cfg)
    assert report.step_of_first_nonfinite is not None
    assert 1 <= report.step_of_first_nonfinite <= 120
    assert len(report.loss_curve) <= 120


def test_config_validation():
    with pytest.raises(ValueError):
        ToyTrainConfig(seed=1, steps=0)
    with pytest.raises(ValueError):
        ToyTrainConfig(seed=1, lr=0.0)
    with pytest.raises(ValueError):
        ToyTrainConfig(seed=1, input_scale=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be finite"):
            ToyTrainConfig(seed=1, lr=bad)
        with pytest.raises(ValueError, match="input_scale must be finite"):
            ToyTrainConfig(seed=1, input_scale=bad)
    with pytest.raises(ValueError):
        ToyTrainConfig(seed=1, feature_shape=(2, 2))
    with pytest.raises(ValueError):
        ToyTrainConfig(seed=1, n=4, norm="none")  # guard reaches the config
