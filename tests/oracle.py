"""Scalar and per-window oracles for the tests; not part of the package.

Central moments of small value multisets
----------------------------------------
For m values x_1..x_m the statistics are population-style:

    m1 = (1/m) sum x_j                      (the mean)
    mi = (1/m) sum (x_j - m1)^i   i = 2..4  (central moments)

Computation is two-pass (mean first, then centered power sums) because the
raw-moment expansion of the fourth moment cancels catastrophically for
large means. Sums use exact accumulation (math.fsum), which makes the
results independent of input order outright.

Gradients follow from differentiating under the sum:

    d m1 / d x_j = 1/m
    d mi / d x_j = (i/m) * ((x_j - m1)^(i-1) - m_{i-1})   i >= 2

with m_1 read as 0 inside the recurrence (the first central moment
vanishes identically).

im2col / col2im
---------------
`im2col` flattens every window into one row (raster order over output
positions, raster order within the window); `col2im_accumulate` is its
adjoint and scatter-adds per-window values back onto the input grid,
discarding contributions that fall on padding. Both are plain per-window
index loops that share no code with the package's `window_steps`, so the
forward and the backward can be checked against them.

Finite differences
------------------
`scalar_finite_diff` runs the per-element loop of `gradutil.fd_gradient`
on a Tensor forward: two forwards per input element, each on a fresh
`Tensor`, and every product difference of the probe <forward(x), upstream>
summed with math.fsum. The package's `grad.numeric_gradient` evaluates the
same probes in chunks of one sample where the forward carries `sample`,
else one probe per call, and must reproduce this loop bit for bit.

Seeded uniforms
---------------
`scalar_next_u64` steps a `Xoshiro256pp`'s state by the scalar
xoshiro256++ rule in `momentpool.rng`'s docstring, one word at a time, and
`scalar_random` turns a word into a double in [0, 1). `scalar_fill_uniform`
draws through them: the draw-by-draw definition that the lane-parallel
`Xoshiro256pp.fill_uniform` must reproduce bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import fsum

import numpy as np

from momentpool.tensor import Tensor
from momentpool.windows import PoolSpec, output_dims

from gradutil import fd_gradient

MAX_ORDER = 4


@dataclass(frozen=True)
class MomentVector:
    """Mean and central moments of one window; orders above `n` stay 0."""

    m1: float
    m2: float
    m3: float
    m4: float
    count: int

    def by_order(self, i: int) -> float:
        return (self.m1, self.m2, self.m3, self.m4)[i - 1]


def _check_order(n: int) -> None:
    if not 1 <= n <= MAX_ORDER:
        raise ValueError(f"moment order must be 1..{MAX_ORDER}, got {n}")


def central_moments(values, n: int) -> MomentVector:
    """Mean and central moments up to order `n` of a non-empty multiset."""
    _check_order(n)
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    m = x.size
    if m == 0:
        raise ValueError("cannot compute moments of an empty multiset")
    mean = fsum(x) / m
    m2 = m3 = m4 = 0.0
    if n >= 2:
        dev = x - mean
        d2 = dev * dev
        m2 = fsum(d2) / m
        if n >= 3:
            m3 = fsum(d2 * dev) / m
        if n >= 4:
            m4 = fsum(d2 * d2) / m
    return MomentVector(m1=mean, m2=m2, m3=m3, m4=m4, count=m)


def moment_gradients(values, n: int) -> list[np.ndarray]:
    """Per-order, per-element partial derivatives of the moments.

    Returns a list of `n` arrays; entry i-1 holds d m_i / d x_j.
    """
    _check_order(n)
    x = np.asarray(values, dtype=np.float64).reshape(-1)
    m = x.size
    if m == 0:
        raise ValueError("cannot differentiate moments of an empty multiset")
    mv = central_moments(x, max(1, n - 1))
    dev = x - mv.m1
    grads = [np.full(m, 1.0 / m)]
    if n >= 2:
        grads.append((2.0 / m) * dev)
    if n >= 3:
        grads.append((3.0 / m) * (dev * dev - mv.m2))
    if n >= 4:
        grads.append((4.0 / m) * (dev * dev * dev - mv.m3))
    return grads


@dataclass(frozen=True)
class WindowMatrix:
    """im2col result for one channel.

    Row r holds the window at output position (r // W', r % W'); columns
    follow raster order within the kernel. `valid` marks in-bounds cells
    when extraction tracked padding, else None.
    """

    data: np.ndarray
    origin_shape: tuple[int, int]
    valid: np.ndarray | None = None

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]


def _as_chw(t: Tensor) -> np.ndarray:
    x4 = t.nchw
    if x4.shape[0] != 1:
        raise ValueError("per-channel window extraction expects a single sample")
    return x4


def _window_cells(spec: PoolSpec, oh: int, ow: int):
    """Input (y, x) of one window's cells in raster order, padding included."""
    for i in range(spec.kernel_h):
        for j in range(spec.kernel_w):
            yield (oh * spec.stride_h + i * spec.dilation_h - spec.pad_h,
                   ow * spec.stride_w + j * spec.dilation_w - spec.pad_w)


def im2col(t: Tensor, spec: PoolSpec, pad_value: float = 0.0,
           track_valid: bool = False) -> list[WindowMatrix]:
    """Extract per-channel window matrices from a (C, H, W) tensor."""
    x4 = _as_chw(t)
    _, c, h, w = x4.shape
    h_out, w_out = output_dims(h, w, spec)
    data = np.full((c, h_out * w_out, spec.window_size), float(pad_value))
    valid = np.zeros((h_out * w_out, spec.window_size), dtype=bool)
    for r in range(h_out * w_out):
        for k, (y, x) in enumerate(_window_cells(spec, *divmod(r, w_out))):
            if 0 <= y < h and 0 <= x < w:
                data[:, r, k] = x4[0, :, y, x]
                valid[r, k] = True
    return [
        WindowMatrix(data=data[ch], origin_shape=(h_out, w_out),
                     valid=valid if track_valid else None)
        for ch in range(c)
    ]


def col2im_accumulate(grads, spec: PoolSpec, h: int, w: int) -> Tensor:
    """Adjoint of im2col: scatter-add per-window values onto a (C, H, W) grid.

    Every input position receives the sum of contributions from all windows
    covering it; contributions landing on padding are dropped.
    """
    h_out, w_out = output_dims(h, w, spec)
    mats = [g.data if isinstance(g, WindowMatrix) else np.asarray(g) for g in grads]
    for m in mats:
        if m.shape != (h_out * w_out, spec.window_size):
            raise ValueError(
                f"window matrix shape {m.shape} does not match geometry "
                f"({h_out * w_out}, {spec.window_size})"
            )
    out = np.zeros((len(mats), h, w))
    for ch, m in enumerate(mats):
        for r in range(h_out * w_out):
            for k, (y, x) in enumerate(_window_cells(spec, *divmod(r, w_out))):
                if 0 <= y < h and 0 <= x < w:
                    out[ch, y, x] += m[r, k]
    return Tensor(out.shape, out)


_MASK64 = (1 << 64) - 1


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


def scalar_next_u64(gen) -> int:
    """The next xoshiro256++ output word of `gen`, advancing its state."""
    s0, s1, s2, s3 = gen._s
    result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
    t = (s1 << 17) & _MASK64
    s2 ^= s0
    s3 ^= s1
    s1 ^= s2
    s0 ^= s3
    s2 ^= t
    s3 = _rotl(s3, 45)
    gen._s = [s0, s1, s2, s3]
    return result


def scalar_random(gen) -> float:
    """The next uniform double in [0, 1) of `gen`, 53-bit resolution."""
    return (scalar_next_u64(gen) >> 11) * 2.0 ** -53


def scalar_fill_uniform(gen, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
    """``count`` uniform draws in [lo, hi) from `gen`, one word each."""
    span = hi - lo
    out = np.empty(count, dtype=np.float64)
    for i in range(count):
        out[i] = lo + span * scalar_random(gen)
    return out


def scalar_finite_diff(forward, x: Tensor, upstream: Tensor,
                       h: float = 1e-6) -> np.ndarray:
    """Central-difference gradient of <forward(x), upstream>, one element at a time."""
    return fd_gradient(lambda v: forward(Tensor(x.shape, v)).data,
                       x.data, upstream.data, h)
