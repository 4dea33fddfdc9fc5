"""Plain-numpy reference for the pooled outputs the benchmark checks.

Independent of `windows.py` and `smp.py`: windows are shifted-slice sums
with exclusive in-bounds counts, followed by the layer-norm formula over
each order >= 3 group of one sample.
"""

from __future__ import annotations

from math import fsum

import numpy as np

EPS_NORM = 1e-5


def shifted_moments(x: np.ndarray, k: int, stride: int, pad: int,
                    n: int) -> list[np.ndarray]:
    """Moments of k x k windows with exclusive zero padding, by slice sums."""
    b, c, h, w = x.shape
    h_out = (h + 2 * pad - k) // stride + 1
    w_out = (w + 2 * pad - k) // stride + 1
    xp = np.zeros((b, c, h + 2 * pad, w + 2 * pad))
    xp[:, :, pad:pad + h, pad:pad + w] = x
    inside = np.zeros((h + 2 * pad, w + 2 * pad))
    inside[pad:pad + h, pad:pad + w] = 1.0

    def shifts(a):
        for i in range(k):
            for j in range(k):
                yield a[..., i:i + (h_out - 1) * stride + 1:stride,
                        j:j + (w_out - 1) * stride + 1:stride]

    count = sum(shifts(inside))
    mu = sum(shifts(xp)) / count
    out = [mu]
    for order in range(2, n + 1):
        acc = sum(m * (v - mu) ** order for v, m in zip(shifts(xp), shifts(inside)))
        out.append(acc / count)
    return out


def layer_normed(moments: list[np.ndarray]) -> np.ndarray:
    """Moment-major (N, n*C, H', W') output, orders >= 3 layer-normed per sample."""
    blocks = [moments[0], moments[1]]
    for m in moments[2:]:
        flat = m.reshape(m.shape[0], -1)
        mean = flat.mean(axis=1, keepdims=True)
        var = flat.var(axis=1, keepdims=True)
        blocks.append(((flat - mean) / np.sqrt(var + EPS_NORM)).reshape(m.shape))
    return np.concatenate(blocks, axis=1)


def max_rel_error(got: np.ndarray, want: np.ndarray, n: int) -> float:
    """Largest per-order max|got - want| / max|want| over the n order blocks."""
    if got.shape != want.shape:
        return float("inf")
    c = want.shape[1] // n
    worst = 0.0
    for i in range(n):
        g, w = got[:, i * c:(i + 1) * c], want[:, i * c:(i + 1) * c]
        scale = float(np.abs(w).max()) or 1.0
        worst = max(worst, float(np.abs(g - w).max()) / scale)
    return worst


def vjp_rel_error(forward, x: np.ndarray, up: np.ndarray, grad: np.ndarray,
                  direction: np.ndarray, step: float = 1e-5) -> float:
    """Relative gap between <grad, d> and a central difference of <f(x), u>."""
    u = up.reshape(-1)
    fp = forward(x + step * direction).reshape(-1)
    fm = forward(x - step * direction).reshape(-1)
    numeric = fsum(fp * u - fm * u) / (2.0 * step)
    analytic = fsum(grad.reshape(-1) * direction.reshape(-1))
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-300)
