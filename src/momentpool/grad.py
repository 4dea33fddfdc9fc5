"""Finite-difference gradient checker and per-order gradient profile.

`finite_diff_check` verifies any forward/backward pair against central
differences. The probe <forward(x), upstream> is accumulated with exact
summation of per-element product differences, so unperturbed outputs cancel
bitwise and the check's noise floor comes only from the forward pass's own
rounding. Errors are reported relative to the gradient scale: the per
element error |analytic - numeric| is divided by
max(max|analytic|, max|numeric|, 1e-12), which keeps elements whose true
derivative happens to vanish from drowning the report in 0/0 noise.

`gradient_magnitude_profile` measures how strongly each moment order drives
the input gradient of `smp.smp_backward`.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from math import fsum, isfinite
from typing import Callable

import numpy as np

from .smp import MomentSpec, output_shape, smp_backward
from .tensor import Tensor
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


def finite_diff_check(forward: Callable[[Tensor], Tensor],
                      backward: Callable[[Tensor, Tensor], Tensor],
                      x: Tensor, upstream: Tensor,
                      h: float = 1e-6, tol: float = 1e-6) -> GradCheckReport:
    """Sweep every input element with central differences of step `h`.

    `h` and `tol` must be finite and positive. The forward must be
    deterministic (it is called twice up front and the outputs compared
    bitwise). Error metric per the module docstring.
    """
    if not (isfinite(h) and h > 0):
        raise ValueError(f"step size must be finite and positive, got {h!r}")
    if not (isfinite(tol) and tol > 0):
        raise ValueError(f"tol must be finite and positive, got {tol!r}")
    ref = forward(x)
    again = forward(x)
    if ref.data.tobytes() != again.data.tobytes():
        raise ValueError("forward is not deterministic: repeated calls disagree")
    u = upstream.data
    if ref.size != u.size:
        raise ValueError("upstream size does not match forward output")

    analytic = backward(x, upstream).data
    if analytic.size != x.size:
        raise ValueError(f"backward returned {analytic.size} gradient values "
                         f"for an input of {x.size}")
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
                               norm: str = "none") -> list[float]:
    """Largest input-gradient magnitude driven by each moment order.

    Order i's entry feeds an all-ones upstream into the order-i channels
    only and reports max|gradient|. Without normalization the order-i entry
    grows like s**(i-1) when the input is scaled by s, which is the reason
    raw high-order channels blow up under training; with layer norm the
    profile is scale-stable.
    """
    spec = MomentSpec(n=n_max, norm=norm, unsafe_no_norm=True)
    shape = output_shape(x.shape, pool, spec)
    channels = shape[1] // n_max
    profile = []
    for i in range(n_max):
        up = np.zeros(shape)
        up[:, i * channels : (i + 1) * channels] = 1.0
        g = smp_backward(x, pool, spec, Tensor(up.shape, up))
        profile.append(float(np.abs(g.data).max()))
    return profile
