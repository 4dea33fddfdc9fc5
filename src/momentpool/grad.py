"""Finite-difference gradient checker and per-order gradient profile.

`finite_diff_check` verifies any forward/backward pair against the central
differences of `numeric_gradient`. Errors are reported relative to the
gradient scale: the per element error |analytic - numeric| is divided by
max(max|analytic|, max|numeric|, 1e-12), which keeps elements whose true
derivative happens to vanish from drowning the report in 0/0 noise.

`gradient_magnitude_profile` measures how strongly each moment order drives
the input gradient of `smp.smp_backward`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import fsum, prod
from typing import Callable

import numpy as np

from . import windows
from .smp import MomentSpec, output_shape, smp_backward
from .tensor import Tensor, _check_finite
from .windows import PoolSpec


@dataclass(frozen=True)
class GradCheckReport:
    """Result of one finite-difference sweep over every input element."""

    max_rel_error: float
    max_abs_error: float
    worst_index: int
    n_checked: int
    passed: bool

    def to_dict(self) -> dict:
        return asdict(self)


def _one_by_one(forward: Callable[[Tensor], Tensor],
                shape) -> Callable[[Tensor], Tensor]:
    """`forward` once per probe of `shape`, outputs joined."""
    size = prod(shape)

    def each(probes: Tensor) -> Tensor:
        outs = [forward(Tensor._adopt(shape, p)).data
                for p in probes.data.reshape(-1, size)]
        out = np.concatenate(outs)
        return Tensor._adopt(out.shape, out)

    return each


def _check_upstream(out_size: int, upstream_size: int) -> None:
    if out_size != upstream_size:
        raise ValueError("upstream size does not match forward output")


def numeric_gradient(forward: Callable[[Tensor], Tensor], x: Tensor,
                     upstream: Tensor, h: float = 1e-6) -> np.ndarray:
    """Central differences of <forward(x), upstream> for every element of x.

    `h` must be finite and positive and `upstream` the size of forward(x).
    Elements are probed in order, a chunk at a time: the x + h and x - h
    probes of each element of a chunk, interleaved on the sample axis, go
    to one call, and a chunk holds as many elements as keep its probes
    plus outputs within `windows._STEP_BYTES`. A forward separable by sample
    carries `sample`: each sample b is then a block of its own, and
    `sample(b)` takes a chunk's K probes of x[b], shape (K, C, H, W) for
    x's (N, C, H, W), and returns their K outputs in order, so the check
    costs O(N) sample-forwards, not O(N^2). Any other forward is called
    once per probe, on a whole copy of x.

    An element's product differences, out(x + h) * u - out(x - h) * u,
    are summed by `math.fsum`, so unperturbed outputs cancel bitwise and
    the noise floor is the forward's own rounding. Only the nonzero terms
    reach it: `fsum` is exactly rounded, so dropping the exact zeros (other
    samples, windows the probe does not touch) leaves every derivative
    bit-identical.
    """
    _check_finite("step size", h, positive=True)
    n_samples, *cell = x.nchw.shape
    if hasattr(forward, "sample"):
        parts, forwards = n_samples, map(forward.sample, range(n_samples))
    else:
        parts, forwards = 1, [_one_by_one(forward, x.shape)]
    numeric = np.empty(x.size)
    # array_split never raises, so a wrong-size upstream reaches the check
    for call, base, u, grad in zip(
            forwards, np.split(x.data, parts),
            np.array_split(upstream.data, parts), np.split(numeric, parts)):
        per_chunk = max(1, windows._STEP_BYTES // (16 * (base.size + u.size)))
        for start in range(0, base.size, per_chunk):
            cols = np.arange(start, min(start + per_chunk, base.size))
            rows = 2 * np.arange(cols.size)  # x + h at rows, x - h at rows + 1
            probes = np.tile(base, (2 * cols.size, 1))
            probes[rows, cols] = base[cols] + h
            probes[rows + 1, cols] = base[cols] - h
            shape = (2 * cols.size * n_samples // parts, *cell)
            out = call(Tensor._adopt(shape, probes)).data
            _check_upstream(out.size, 2 * cols.size * u.size)
            out = out.reshape(2 * cols.size, u.size)
            terms = out[0::2] * u - out[1::2] * u
            nonzero = terms != 0
            kept = terms[nonzero].tolist()
            ends = np.cumsum(nonzero.sum(axis=1)).tolist()
            for j, lo, hi in zip(cols.tolist(), [0] + ends, ends):
                grad[j] = fsum(kept[lo:hi]) / (2.0 * h)
    return numeric


def finite_diff_check(forward: Callable[[Tensor], Tensor],
                      backward: Callable[[Tensor, Tensor], Tensor],
                      x: Tensor, upstream: Tensor,
                      h: float = 1e-6, tol: float = 1e-6) -> GradCheckReport:
    """Compare `backward` with `numeric_gradient` on every input element.

    `h` and `tol` must be finite and positive. The forward must be
    deterministic (it is called twice up front and the outputs compared
    bitwise). Error metric per the module docstring.
    """
    _check_finite("step size", h, positive=True)
    _check_finite("tol", tol, positive=True)
    ref = forward(x)
    again = forward(x)
    if ref.data.tobytes() != again.data.tobytes():
        raise ValueError("forward is not deterministic: repeated calls disagree")
    _check_upstream(ref.size, upstream.size)

    analytic = backward(x, upstream).data
    if analytic.size != x.size:
        raise ValueError(f"backward returned {analytic.size} gradient values "
                         f"for an input of {x.size}")
    numeric = numeric_gradient(forward, x, upstream, h)

    abs_err = np.abs(analytic - numeric)
    scale = max(np.abs(analytic).max(), np.abs(numeric).max(), 1e-12)
    worst = int(abs_err.argmax())
    max_abs = float(abs_err[worst])
    max_rel = float(max_abs / scale)
    return GradCheckReport(
        max_rel_error=max_rel,
        max_abs_error=max_abs,
        worst_index=worst,
        n_checked=int(x.size),
        passed=bool(max_rel < tol),
    )


def gradient_magnitude_profile(x: Tensor, pool: PoolSpec, n_max: int,
                               norm: str = "none") -> list[float]:
    """Largest input-gradient magnitude driven by each moment order.

    Order i's entry feeds an all-ones upstream into the order-i channels
    only and reports max|gradient|. Without normalization the order-i entry
    grows like s**(i-1) when the input is scaled by s, which is the reason
    raw high-order channels blow up under training; with layer norm the
    profile is scale-stable. The n_max backwards share one input, so the
    first runs the forward and the rest read what it saved.
    """
    spec = MomentSpec(n=n_max, norm=norm, unsafe_no_norm=True)
    shape = output_shape(x.shape, pool, spec)
    channels = shape[1] // n_max
    profile = []
    for i in range(n_max):
        up = np.zeros(shape)
        up[:, i * channels : (i + 1) * channels] = 1.0
        g = smp_backward(x, pool, spec, Tensor._adopt(up.shape, up))
        profile.append(float(np.abs(g.data).max()))
    return profile
