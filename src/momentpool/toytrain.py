"""Seeded training-stability experiment at desk scale.

The task is a synthetic regression in which window moments are sufficient
statistics by construction: each target is a fixed random linear functional
of the true (raw, unnormalized) moments of orders 1..4 of the sample's
feature map, plus small noise. A linear readout over pooled features
therefore has signal to fit at every moment order, and the experiment
probes optimization stability rather than task fit.

Features are a fixed batch of uniform-noise maps scaled by `input_scale`,
pooled globally. The model is the pooling operator under test followed by
an affine head, trained with plain gradient descent on mean squared error.
The report records the per-step loss and the first step, if any, at which
the loss or a parameter became non-finite.

Raw fourth-moment features grow like input_scale**4, so with unnormalized
order-4 pooling the quadratic loss surface is steep enough that a fixed
step size overshoots and diverges to infinity and then NaN; the normalized
variants keep those channels of order one and train through.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .rng import Xoshiro256pp
from .smp import MomentSpec, smp_forward
from .tensor import Tensor
from .windows import PoolSpec

_FEATURE_STREAM = 0
_TARGET_WEIGHT_STREAM = 1
_TARGET_NOISE_STREAM = 2
_TARGET_ORDER = 4
_TARGET_NOISE_SCALE = 0.01


@dataclass(frozen=True)
class ToyTrainConfig:
    seed: int
    steps: int = 500
    lr: float = 5e-4
    n: int = 4
    norm: str = "layer"
    batch: int = 8
    feature_shape: tuple[int, int, int] = (4, 16, 16)
    input_scale: float = 10.0
    eps_norm: float = 1e-5
    unsafe_no_norm: bool = False

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not (math.isfinite(self.lr) and self.lr > 0):
            raise ValueError(f"lr must be finite and positive, got {self.lr!r}")
        if self.batch < 1:
            raise ValueError("batch must be >= 1")
        if not (math.isfinite(self.input_scale) and self.input_scale > 0):
            raise ValueError(
                f"input_scale must be finite and positive, got {self.input_scale!r}")
        if len(self.feature_shape) != 3:
            raise ValueError("feature_shape must be (C, H, W)")
        self.moment_spec()  # surface order/norm guard violations eagerly

    def moment_spec(self) -> MomentSpec:
        return MomentSpec(n=self.n, norm=self.norm, eps_norm=self.eps_norm,
                          unsafe_no_norm=self.unsafe_no_norm)


@dataclass
class ToyTrainReport:
    step_of_first_nonfinite: int | None
    final_loss: float
    loss_curve: list[float] = field(default_factory=list)

    def to_json(self) -> str:
        return json.dumps({
            "step_of_first_nonfinite": self.step_of_first_nonfinite,
            "final_loss": _encode_float(self.final_loss),
            "loss_curve": [_encode_float(v) for v in self.loss_curve],
        }, separators=(",", ":"))


def _encode_float(v: float):
    """Strict-JSON encoding; non-finite values become marker strings."""
    if math.isnan(v):
        return "NaN"
    if math.isinf(v):
        return "Infinity" if v > 0 else "-Infinity"
    return v


def run_toytrain(cfg: ToyTrainConfig) -> ToyTrainReport:
    spec = cfg.moment_spec()
    c, h, w = cfg.feature_shape
    pool = PoolSpec(kernel_h=h, kernel_w=w)

    count = cfg.batch * c * h * w
    feats = Xoshiro256pp(cfg.seed, _FEATURE_STREAM).fill_uniform(
        count, 0.0, cfg.input_scale)
    features = Tensor((cfg.batch, c, h, w), feats)

    # targets: fixed linear functional of the true moments, plus small noise
    true_spec = MomentSpec(n=_TARGET_ORDER, norm="none", unsafe_no_norm=True)
    true_m = smp_forward(features, pool, true_spec).data.reshape(cfg.batch, -1)
    w_star = Xoshiro256pp(cfg.seed, _TARGET_WEIGHT_STREAM).fill_uniform(
        true_m.shape[1], -1.0, 1.0)
    noise = Xoshiro256pp(cfg.seed, _TARGET_NOISE_STREAM).fill_uniform(
        cfg.batch, -1.0, 1.0)
    targets = true_m @ w_star + _TARGET_NOISE_SCALE * noise

    phi = smp_forward(features, pool, spec).data.reshape(cfg.batch, -1)
    weights = np.zeros(phi.shape[1])
    bias = 0.0

    losses: list[float] = []
    first_bad: int | None = None
    # overflow to inf and NaN is the observable this experiment exists to
    # record, so let it happen silently
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(1, cfg.steps + 1):
            residual = phi @ weights + bias - targets
            loss = float(np.mean(residual * residual))
            losses.append(loss)
            if not math.isfinite(loss):
                first_bad = step
                break
            gw = (2.0 / cfg.batch) * (phi.T @ residual)
            gb = (2.0 / cfg.batch) * residual.sum()
            weights = weights - cfg.lr * gw
            bias = bias - cfg.lr * gb
            if not (np.isfinite(weights).all() and math.isfinite(bias)):
                first_bad = step
                break

    return ToyTrainReport(
        step_of_first_nonfinite=first_bad,
        final_loss=losses[-1],
        loss_curve=losses,
    )
