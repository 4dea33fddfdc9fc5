"""Moment pooling: windowed mean plus central moments, channel-concatenated.

For an input of shape (N, C, H, W) and moment order n, each pooling window
is reduced to its mean and its central moments of orders 2..n. The output
shape is `output_shape(shape, pool, spec)`, (N, n*C, H', W'), with a
moment-major channel layout: channels [0, C) hold the means of input
channels 0..C-1, channels [C, 2C) the second central moments, and so on.
Order 1 with no normalization is exactly average pooling, bit for bit.

Padding is exclusive: padded cells never enter a window's statistics, and
each window divides by its true in-bounds count. Zero-padding would bias
the mean and every higher moment, so there is no inclusive mode.

Channels of orders >= 3 can be rescaled by one of the strategies in
`normalize`; orders 1 and 2 are never normalized. Requesting order >= 3
with no normalization requires an explicit unsafe flag, because those raw
channels are known to destabilize training (see `grad` and the toytrain
experiment).

Backward
--------
`smp_backward` is the vector-Jacobian product of `smp_forward`: for
upstream weights u it satisfies

    <smp_backward(u), dx>  ==  d/de <smp_forward(x + e*dx), u> at e = 0.

It reads what the forward of its input saved, then chains the
normalization VJP (orders >= 3), the pre-norm standardization VJP when
enabled, and the per-window moment derivatives, evaluated per cell as a
polynomial in its deviation from the window mean and added back onto the
input grid block by block. `check_forward` is the matching
finite-difference target: the true forward, except that max norm holds its
peak divisor fixed, as the backward does.

Saved forward
-------------
Each `smp_forward` saves, read-only in a one-entry cache, what the
backward needs: the walk, the per-axis counts, m1..mn (m1 and m2 as views
of the output, m3 and m4 raw), and the normalized orders >= 3 (a view of
the output) with their per-group divisor, so no pre-norm block is rebuilt.
The key is the input `Tensor`'s identity through a weakref (tensors are
immutable), `pool`, the whole `spec` and `training`, since the divisor
depends on every normalization field. On a miss the backward runs the
forward itself, without the running state in training mode, so a hit and
a miss share one formula. Eval-mode batch norm divides by the backward's
own running state. The entry goes when its input dies or the next input
is pooled.

Operation-count model
---------------------
`op_cost` counts multiply-accumulate operations; a fused multiply-add and a
bare add each count as 1 MAC. With window size m = kh*kw, per sample,
channel and output cell:

    order 1 (average):   m accumulates + 1 scale            = m + 1
    each order i >= 2:   m fused subtract-multiply steps
                         + m accumulates + 1 scale          = 2m + 1

Keeping the centered value and running power in registers makes every
higher order the same amount of work, so the extra cost over average
pooling is (n - 1) * (2m + 1) per cell and channel. Normalization of the
orders >= 3 adds, per normalized element, 5 MACs for layer or batch norm
(two reduction passes plus center-and-scale) and 2 for max norm (peak scan
plus divide). The total is strictly monotone in n.
"""

from __future__ import annotations

import math
import weakref
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import normalize
from .normalize import BatchNormState
from .tensor import Tensor, _is_int, nchw_shape
from .windows import PoolSpec, output_dims, window_steps

NORM_KINDS = ("none", "layer", "max", "batch")
NORM_AXES = ("order", "joint", "location")

_NORM_MACS_PER_ELEM = {"layer": 5, "max": 2, "batch": 5}


@dataclass(frozen=True)
class MomentSpec:
    """Moment order, normalization strategy and numeric guards.

    `norm_axis` picks the grouping for layer/max norm: "order" normalizes
    each moment order separately over its C channels and all spatial
    positions of one sample (the default), "joint" pools all orders >= 3
    into one group per sample, "location" groups the C channels of one
    order at a single spatial position. Batch norm is always per channel
    over batch and spatial axes.
    """

    n: int
    norm: str = "none"
    eps_norm: float = 1e-5
    standardize_pre_norm: bool = False
    norm_axis: str = "order"
    unsafe_no_norm: bool = False

    def __post_init__(self):
        if not _is_int(self.n) or self.n not in (1, 2, 3, 4):
            raise ValueError(f"moment order must be an int in 1..4, got {self.n!r}")
        if self.norm not in NORM_KINDS:
            raise ValueError(f"norm must be one of {NORM_KINDS}, got {self.norm!r}")
        if self.norm_axis not in NORM_AXES:
            raise ValueError(f"norm_axis must be one of {NORM_AXES}")
        if not (math.isfinite(self.eps_norm) and self.eps_norm > 0):
            raise ValueError(
                f"eps_norm must be finite and positive, got {self.eps_norm!r}")
        if self.n >= 3 and self.norm == "none" and not self.unsafe_no_norm:
            raise ValueError(
                "order >= 3 without normalization destabilizes training; "
                "pass unsafe_no_norm=True (CLI: --unsafe-no-norm) to force it"
            )


@dataclass(frozen=True)
class OpCostReport:
    """Multiply-accumulate counts for one forward pass."""

    mul_add_count: int
    extra_vs_sap: int


def output_shape(shape, pool: PoolSpec,
                 spec: MomentSpec) -> tuple[int, int, int, int]:
    """(N, n*C, H', W'): `smp_forward`'s output shape for an input of `shape`."""
    n_samples, channels, h, w = nchw_shape(shape)
    return (n_samples, spec.n * channels) + output_dims(h, w, pool)


def _by_order(a: np.ndarray, channels: int) -> np.ndarray:
    """Moment-major (N, k*C, H', W') channels as an (N, k, C, H', W') view."""
    return a.reshape(a.shape[0], -1, channels, *a.shape[2:])


def _cell_sum(a: np.ndarray) -> np.ndarray:
    """Sum over a block's kernel axes; a one-cell block has none."""
    return a if a.ndim == 3 else a.sum(axis=(3, 4))


def _window_stats(x4: np.ndarray, pool: PoolSpec, n: int):
    """Window steps, per-axis in-bounds counts and (N, C, H', W') maps m1..mn.

    The mean, then the centered power sums, accumulate over the steps in
    their fixed order, so results are bit-identical run to run.
    """
    steps, counts = window_steps(x4.shape, pool)
    inv = 1.0 / np.multiply.outer(*counts)
    mu = np.zeros((x4.shape[0] * x4.shape[1],) + inv.shape)  # one per plane
    for st in steps:
        mu[st.out] += _cell_sum(st.block(x4))
    mu *= inv
    sums = [np.zeros_like(mu) for _ in range(n - 1)]
    for st in steps if sums else ():
        dev = st.block(x4) - mu[st.win]
        d2 = dev * dev
        sums[0][st.out] += _cell_sum(d2)
        if n >= 3:  # the powers reuse the deviation's and the square's buffers
            sums[1][st.out] += _cell_sum(np.multiply(d2, dev, out=dev))
        if n >= 4:
            sums[2][st.out] += _cell_sum(np.multiply(d2, d2, out=d2))
    stats = [mu] + [np.multiply(s, inv, out=s) for s in sums]
    return steps, counts, [m.reshape(x4.shape[:2] + inv.shape) for m in stats]


# What the last forward saved, for the backward of the same input:
# (weakref to the input Tensor, pool, spec, training, entry) or None, with
# entry = (steps, counts, stats, normalized orders >= 3, divisor). Tensors
# are immutable, so the input's identity pins its bytes.
_cached = None


def _forget(ref) -> None:
    """Weakref callback: drop the entry when its input Tensor dies."""
    global _cached
    if _cached is not None and _cached[0] is ref:
        _cached = None


def _saved(t: Tensor, pool: PoolSpec, spec: MomentSpec,
           bn_state: BatchNormState | None, training: bool):
    """The entry `smp_forward` saved for `t`, running it on a miss."""
    hit = _cached
    if hit is None or hit[0]() is not t or hit[1:4] != (pool, spec, training):
        smp_forward(t, pool, spec, None if training else bn_state, training)
    return _cached[4]


def _standardize_terms(m2: np.ndarray, spec: MomentSpec):
    """(p / 2, sigma^(p-2), sigma^p + eps) for each order p = 3..n.

    Order p's pre-norm channel is m_p / (sigma^p + eps), whose derivative
    in m2 is -m_p * (p / 2) * sigma^(p-2) / (sigma^p + eps)^2.
    """
    for p, root in zip(range(3, spec.n + 1), (np.sqrt(m2), m2)):
        yield p / 2, root, root * m2 + spec.eps_norm


def _standardize_block(block: np.ndarray, m2: np.ndarray,
                       spec: MomentSpec) -> np.ndarray:
    """Divide raw m3, m4 in `block` by sigma^3 + eps, sigma^4 + eps, in place,
    when `spec.standardize_pre_norm` is set. The result is the pre-norm block,
    the normalization input."""
    if spec.standardize_pre_norm:
        orders = _by_order(block, m2.shape[1])
        for i, (_, _, denom) in enumerate(_standardize_terms(m2, spec)):
            orders[:, i] /= denom
    return block


def _grouped(block: np.ndarray, spec: MomentSpec):
    """Reshape an orders >= 3 block so one axis spans each norm group.

    Batch norm groups per channel over batch and spatial axes, which is the
    block's own layout, so it comes back unchanged and with no axis. For a
    contiguous block, or the orders >= 3 of a contiguous array, each
    reshape below only splits or merges axes whose cells are contiguous
    within a sample, so it is a view and writes to it land in the block.
    """
    if spec.norm == "batch":
        return block, None
    n_samples, k = block.shape[0], spec.n - 2
    if spec.norm_axis == "order":
        return block.reshape(n_samples, k, -1), 2
    if spec.norm_axis == "joint":
        return block.reshape(n_samples, -1), 1
    return block.reshape(n_samples, k, block.shape[1] // k, -1), 2  # location


def _normalize(block: np.ndarray, spec: MomentSpec,
               bn_state: BatchNormState | None, training: bool):
    """`spec.norm` applied in place to a pre-norm block in its groups;
    returns the per-group divisor, or None without normalization."""
    if spec.norm == "none":
        return None
    x, axis = _grouped(block, spec)
    return normalize._normalized(spec.norm, x, spec.eps_norm, axis, bn_state,
                                 training, out=x)[1]


def _pooled(t: Tensor, pool: PoolSpec, spec: MomentSpec, norm):
    """(output, entry): moment channels m1, m2 and the pre-norm block after
    `norm`, which rescales it in place and returns its divisor, concatenated;
    the read-only entry is what `_saved` returns for `t`.

    The entry keeps m1, m2 and the normalized block as views of the output
    and raw m3, m4 as their own arrays, so the two together hold no map
    twice.
    """
    steps, counts, stats = _window_stats(t.nchw, pool, spec.n)
    channels = stats[0].shape[1]
    out = np.concatenate(stats, axis=1)
    orders = _by_order(out, channels)
    stats[:2] = [orders[:, i] for i in range(min(spec.n, 2))]  # frees m1, m2
    block = divisor = None
    if spec.n >= 3:
        block = _standardize_block(out[:, 2 * channels:], stats[1], spec)
        divisor = norm(block)
    for a in (*stats, block, divisor):
        if a is not None:
            a.setflags(write=False)
    return out, (steps, counts, stats, block, divisor)


def smp_forward(t: Tensor, pool: PoolSpec, spec: MomentSpec,
                bn_state: BatchNormState | None = None,
                training: bool = True) -> Tensor:
    """Pool `t` to (N, n*C, H', W') moment channels.

    With `spec.norm != "none"`, channels of orders >= 3 are normalized;
    batch norm reads/updates `bn_state` (a fresh transient state is used
    when none is given in training mode).
    """
    global _cached
    out, entry = _pooled(t, pool, spec,
                         lambda block: _normalize(block, spec, bn_state, training))
    _cached = (weakref.ref(t, _forget), pool, spec, training, entry)
    return Tensor._adopt(out.shape, out)


def smp_backward(t: Tensor, pool: PoolSpec, spec: MomentSpec, upstream: Tensor,
                 bn_state: BatchNormState | None = None,
                 training: bool = True) -> Tensor:
    """Input gradients of `smp_forward` for the given upstream weights."""
    expected = output_shape(t.shape, pool, spec)
    if upstream.nchw.shape != expected:
        raise ValueError(f"upstream shape {upstream.nchw.shape} does not match "
                         f"forward output {expected}")

    x4 = t.nchw
    steps, counts, stats, y, divisor = _saved(t, pool, spec, bn_state, training)
    u = upstream.nchw.astype(np.float64, copy=True)
    coef = _by_order(u, x4.shape[1])  # coef[:, k - 1] holds order k's weights

    if spec.norm != "none" and spec.n >= 3:
        y, axis = _grouped(y, spec)
        u_norm, _ = _grouped(u[:, 2 * x4.shape[1]:], spec)  # a view into u
        if spec.norm == "batch" and not training:  # this call's running state
            divisor = np.sqrt(normalize._running_stats(bn_state, y)[1]
                              + spec.eps_norm)
        u_norm[...] = normalize._normalized_vjp(spec.norm, y, divisor, u_norm,
                                                axis, training)

    if spec.standardize_pre_norm and spec.n >= 3:
        for i, (half_p, root, denom) in enumerate(
                _standardize_terms(stats[1], spec), start=2):
            u_p = coef[:, i]  # order p = i + 1, through m_p / denom
            coef[:, 1] += u_p * (-stats[i] * half_p * root / (denom * denom))
            u_p /= denom

    # coef[:, k - 1] = k * u_k / window count, order k's cell-gradient weight
    inv = 1.0 / np.multiply.outer(*counts)
    coef *= (np.arange(1.0, spec.n + 1)[:, None, None] * inv)[:, None]
    # sum_k coef_k * (dev**(k-1) - m_(k-1)), m_0 = m_1 = 0, as a polynomial
    # in the cell's deviation dev from the window mean
    poly = [coef[:, k].reshape((-1,) + inv.shape) for k in range(spec.n)]
    m = [s.reshape((-1,) + inv.shape) for s in stats]  # per plane, as the steps
    for k in range(2, spec.n):
        poly[0] -= poly[k] * m[k - 1]

    grad = np.zeros(x4.shape)  # no cell repeats within a block: += is safe
    for st in steps:
        dev = st.block(x4) - m[0][st.win]
        g = np.zeros(dev.shape)
        for c in reversed(poly[1:]):  # Horner, highest order first
            g += c[st.win]
            g *= dev
        g += poly[0][st.win]
        dst = st.block(grad)
        dst += g
    return Tensor._adopt(t.shape, grad)


def check_forward(x: Tensor, pool: PoolSpec, spec: MomentSpec,
                  bn_state: BatchNormState | None = None,
                  training: bool = True) -> Callable[[Tensor], Tensor]:
    """Forward closure matching the operator's declared gradient semantics.

    For max norm the declared gradient is straight-through on the peak
    divisor, so the finite-difference target must hold that divisor fixed
    at the evaluation point `x`; perturbing through the peak would measure
    a derivative the backward deliberately does not implement. Every other
    configuration returns the true forward. Training-mode outputs never
    read `bn_state`, so only eval-mode probes get it: a check must not fold
    its perturbed batches into the running statistics.

    Every configuration except training-mode batch norm is separable by
    sample: no norm, layer and max norm in all three `norm_axis` groupings,
    with or without `standardize_pre_norm`, and eval-mode batch norm. Its
    forward takes any whole number of copies of x's batch stacked on the
    sample axis (fixed-peak max norm repeats its peaks once per copy) and
    carries itself as `stacked`, so `grad.finite_diff_check` evaluates a
    chunk of probes in one call. Training-mode batch statistics couple the
    samples, so that forward has no `stacked` and is called once per probe.
    """
    if spec.norm == "batch" and training:
        return lambda t: smp_forward(t, pool, spec, training=True)

    if spec.norm != "max" or spec.n < 3:
        def forward(t: Tensor) -> Tensor:
            return smp_forward(t, pool, spec, bn_state=bn_state,
                               training=training)
    else:
        peaks = _saved(x, pool, spec, bn_state, training)[4]

        def forward(t: Tensor) -> Tensor:
            tiled = np.concatenate([peaks] * (t.nchw.shape[0] // len(peaks)))

            def fixed_peak(block: np.ndarray) -> None:
                g, _ = _grouped(block, spec)
                g /= tiled

            out, _ = _pooled(t, pool, spec, fixed_peak)
            return Tensor._adopt(out.shape, out)

    forward.stacked = forward
    return forward


def sap_forward(t: Tensor, pool: PoolSpec) -> Tensor:
    """Spatial average pooling: the order-1 special case."""
    return smp_forward(t, pool, MomentSpec(n=1, norm="none"))


def op_cost(shape, pool: PoolSpec, spec: MomentSpec) -> OpCostReport:
    """MAC count for one forward pass; formula in the module docstring."""
    per_order = math.prod(output_shape(shape, pool, spec)) // spec.n  # NCH'W'
    m = pool.window_size

    sap = per_order * (m + 1)
    extra = per_order * (spec.n - 1) * (2 * m + 1)
    if spec.norm != "none" and spec.n >= 3:
        extra += per_order * (spec.n - 2) * _NORM_MACS_PER_ELEM[spec.norm]
    return OpCostReport(mul_add_count=sap + extra, extra_vs_sap=extra)
