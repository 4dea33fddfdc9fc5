"""Analytic backward pass for moment pooling, plus a finite-difference checker.

`smp_backward` is the vector-Jacobian product of `smp_forward`: it chains
the normalization backward (orders >= 3), the pre-norm standardization
backward when enabled, the per-window moment derivatives, and the
scatter-add back onto the input grid. For upstream weights u it satisfies

    <smp_backward(u), dx>  ==  d/de <smp_forward(x + e*dx), u> at e = 0.

`finite_diff_check` verifies any forward/backward pair against central
differences. The probe <forward(x), upstream> is accumulated with exact
summation of per-element product differences, so unperturbed outputs cancel
bitwise and the check's noise floor comes only from the forward pass's own
rounding. Errors are reported relative to the gradient scale: the per
element error |analytic - numeric| is divided by
max(max|analytic|, max|numeric|, 1e-12), which keeps elements whose true
derivative happens to vanish from drowning the report in 0/0 noise.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum
from typing import Callable

import numpy as np

from .normalize import BatchNormState, _peak_divisor
from .smp import (
    MomentSpec,
    _grouped,
    _normalize_vjp,
    _pooled,
    _pre_norm_block,
    _standardize_denoms,
    _window_stats,
    smp_forward,
)
from .tensor import Tensor
from .windows import PoolSpec, output_dims, scatter_windows


@dataclass(frozen=True)
class GradCheckReport:
    """Result of one finite-difference sweep over every input element."""

    max_rel_error: float
    max_abs_error: float
    worst_index: int
    n_checked: int
    passed: bool

    def to_dict(self) -> dict:
        return {
            "max_rel_error": self.max_rel_error,
            "max_abs_error": self.max_abs_error,
            "worst_index": self.worst_index,
            "n_checked": self.n_checked,
            "passed": self.passed,
        }


def smp_backward(t: Tensor, pool: PoolSpec, spec: MomentSpec, upstream: Tensor,
                 bn_state: BatchNormState | None = None,
                 training: bool = True) -> Tensor:
    """Input gradients of `smp_forward` for the given upstream weights."""
    x4 = t.nchw
    n_samples, channels, h, w = x4.shape
    h_out, w_out = output_dims(h, w, pool)
    expected = (n_samples, spec.n * channels, h_out, w_out)
    u4 = upstream.nchw
    if u4.shape != expected:
        raise ValueError(f"upstream shape {u4.shape} does not match forward "
                         f"output {expected}")

    view, valid, counts, stats = _window_stats(x4, pool, spec.n)
    u = u4.astype(np.float64, copy=True)

    if spec.norm != "none" and spec.n >= 3:
        # the pre-norm block is rebuilt here and dropped once the VJP returns,
        # before the per-window gradient allocates its window-sized buffers
        u[:, 2 * channels :] = _normalize_vjp(
            _pre_norm_block(stats, spec), u[:, 2 * channels :], spec,
            bn_state, training)

    if spec.standardize_pre_norm and spec.n >= 3:
        m2 = stats[1]
        d3, d4 = _standardize_denoms(m2, spec.eps_norm)
        u3 = u[:, 2 * channels : 3 * channels]
        # d(m3 / d3)/d m2 = -m3 * 1.5*sqrt(m2) / d3^2, and likewise for m4
        u[:, channels : 2 * channels] += u3 * (
            -stats[2] * 1.5 * np.sqrt(m2) / (d3 * d3))
        u3 /= d3
        if spec.n >= 4:
            u4o = u[:, 3 * channels : 4 * channels]
            u[:, channels : 2 * channels] += u4o * (
                -stats[3] * 2.0 * m2 / (d4 * d4))
            u4o /= d4

    inv = 1.0 / counts
    orders = [u[:, i * channels : (i + 1) * channels] for i in range(spec.n)]
    gwin = np.zeros(view.shape)
    gwin += (orders[0] * inv)[..., None, None]
    if spec.n >= 2:
        dev = view - stats[0][..., None, None]
        if valid is not None:
            dev = dev * valid
        gwin += (2.0 * inv * orders[1])[..., None, None] * dev
        if spec.n >= 3:
            d2 = dev * dev
            gwin += (3.0 * inv * orders[2])[..., None, None] * (
                d2 - stats[1][..., None, None])
            if spec.n >= 4:
                gwin += (4.0 * inv * orders[3])[..., None, None] * (
                    d2 * dev - stats[2][..., None, None])
    if valid is not None:
        gwin *= valid

    grad = scatter_windows(gwin, pool, h, w)
    return Tensor(t.shape, grad.reshape(t.shape))


def check_forward(x: Tensor, pool: PoolSpec, spec: MomentSpec,
                  bn_state: BatchNormState | None = None,
                  training: bool = True) -> Callable[[Tensor], Tensor]:
    """Forward closure matching the operator's declared gradient semantics.

    For max norm the declared gradient is straight-through on the peak
    divisor, so the finite-difference target must hold that divisor fixed
    at the evaluation point `x`; perturbing through the peak would measure
    a derivative the backward deliberately does not implement. Every other
    configuration returns the true forward.
    """
    if spec.norm != "max" or spec.n < 3:
        return lambda t: smp_forward(t, pool, spec, bn_state=bn_state,
                                     training=training)

    base = _pre_norm_block(_window_stats(x.nchw, pool, spec.n)[3], spec)
    grouped, axis = _grouped(base, spec)
    peaks = _peak_divisor(grouped, spec.eps_norm, axis)

    def fixed_peak(block: np.ndarray) -> np.ndarray:
        g, _ = _grouped(block, spec)
        return (g / peaks).reshape(block.shape)

    return lambda t: _pooled(t.nchw, pool, spec, fixed_peak)


def finite_diff_check(forward: Callable[[Tensor], Tensor],
                      backward: Callable[[Tensor, Tensor], Tensor],
                      x: Tensor, upstream: Tensor,
                      h: float = 1e-6, tol: float = 1e-6) -> GradCheckReport:
    """Sweep every input element with central differences of step `h`.

    The forward must be deterministic (it is called twice up front and the
    outputs compared bitwise). Error metric per the module docstring.
    """
    if h <= 0:
        raise ValueError("step size must be positive")
    ref = forward(x)
    again = forward(x)
    if ref.data.tobytes() != again.data.tobytes():
        raise ValueError("forward is not deterministic: repeated calls disagree")
    u = upstream.data
    if ref.size != u.size:
        raise ValueError("upstream size does not match forward output")

    analytic = backward(x, upstream).data
    base = x.data.copy()
    numeric = np.empty_like(analytic)
    for j in range(base.size):
        saved = base[j]
        base[j] = saved + h
        fp = forward(Tensor(x.shape, base)).data
        base[j] = saved - h
        fm = forward(Tensor(x.shape, base)).data
        base[j] = saved
        numeric[j] = fsum(fp * u - fm * u) / (2.0 * h)

    abs_err = np.abs(analytic - numeric)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    worst = int(abs_err.argmax())
    max_abs = float(abs_err[worst])
    max_rel = max_abs / scale
    return GradCheckReport(
        max_rel_error=max_rel,
        max_abs_error=max_abs,
        worst_index=worst,
        n_checked=int(base.size),
        passed=bool(max_rel < tol),
    )


def gradient_magnitude_profile(x: Tensor, pool: PoolSpec, n_max: int,
                               norm: str = "none", eps_norm: float = 1e-5,
                               norm_axis: str = "order") -> list[float]:
    """Largest input-gradient magnitude driven by each moment order.

    Order i's entry feeds an all-ones upstream into the order-i channels
    only and reports max|gradient|. Without normalization the order-i entry
    grows like s**(i-1) when the input is scaled by s, which is the reason
    raw high-order channels blow up under training; with layer norm the
    profile is scale-stable.
    """
    spec = MomentSpec(n=n_max, norm=norm, eps_norm=eps_norm,
                      norm_axis=norm_axis, unsafe_no_norm=True)
    x4 = x.nchw
    n_samples, channels, h, w = x4.shape
    h_out, w_out = output_dims(h, w, pool)
    profile = []
    for i in range(n_max):
        up = np.zeros((n_samples, n_max * channels, h_out, w_out))
        up[:, i * channels : (i + 1) * channels] = 1.0
        g = smp_backward(x, pool, spec, Tensor(up.shape, up))
        profile.append(float(np.abs(g.data).max()))
    return profile
