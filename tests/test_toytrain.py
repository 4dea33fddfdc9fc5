"""Fast sanity checks on the toy training loop; the full 500-step
stability comparison lives in the acceptance suite."""

import hashlib
import json

import numpy as np
import pytest

from momentpool.toytrain import ToyTrainConfig, ToyTrainReport, run_toytrain

FAST = dict(steps=30, lr=5e-4, batch=4, feature_shape=(2, 8, 8))

# sha256 of run_toytrain(cfg).to_json(): the benchmark's pinned run (the
# defaults at seed 17), and an unnormalized n=4 run that diverges at step 86
PINNED_REPORTS = [
    (ToyTrainConfig(seed=17, steps=500, lr=5e-4),
     "0127ed21e8b9337f21ce3b76905287f356792ef7219858b58fbc0a1e6c4a3710"),
    (ToyTrainConfig(seed=3, n=4, norm="none", unsafe_no_norm=True),
     "5584e8119cd61ac6bb2822d3977e7adfeb64571fa6eb1e2a32f8673fa0684717"),
]


@pytest.mark.parametrize("cfg, digest", PINNED_REPORTS,
                         ids=["cli-seeded", "diverging"])
def test_report_bytes_are_pinned(cfg, digest):
    text = run_toytrain(cfg).to_json()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


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
    with pytest.raises(ValueError, match="batch"):
        ToyTrainConfig(seed=1, batch=0)
    with pytest.raises(ValueError):
        ToyTrainConfig(seed=1, input_scale=-1.0)
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="lr must be finite"):
            ToyTrainConfig(seed=1, lr=bad)
        with pytest.raises(ValueError, match="input_scale must be finite"):
            ToyTrainConfig(seed=1, input_scale=bad)
    for bad in (2.5, True, 0):
        with pytest.raises(ValueError, match="steps must be an int"):
            ToyTrainConfig(seed=1, steps=bad)
        with pytest.raises(ValueError, match="batch must be an int"):
            ToyTrainConfig(seed=1, batch=bad)
    for bad in ((2, 2), 5, None, "abc"):
        with pytest.raises(ValueError, match="feature_shape must be"):
            ToyTrainConfig(seed=1, feature_shape=bad)
    for good in ([2, 8, 8], np.array([2, 8, 8])):  # any length-3 sequence
        assert ToyTrainConfig(seed=1, feature_shape=good).feature_shape is good
    for bad in ((2, 0, 8), (2, 8.0, 8), (2, 8, True), (-1, 8, 8)):
        with pytest.raises(ValueError, match="extents must be ints"):
            ToyTrainConfig(seed=1, feature_shape=bad)
    with pytest.raises(ValueError):
        ToyTrainConfig(seed=1, n=4, norm="none")  # guard reaches the config


def test_lr_and_input_scale_must_be_real_numbers():
    for bad in (True, "1e-3", None):
        with pytest.raises(ValueError, match=f"lr must be finite.*{bad!r}"):
            ToyTrainConfig(seed=1, lr=bad)
        with pytest.raises(ValueError,
                           match=f"input_scale must be finite.*{bad!r}"):
            ToyTrainConfig(seed=1, input_scale=bad)
    assert ToyTrainConfig(seed=1, lr=np.float64(1e-3), input_scale=2).lr == 1e-3
