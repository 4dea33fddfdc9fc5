"""Moment pooling: windowed mean plus central moments, channel-concatenated.

For an input of shape (N, C, H, W) and moment order n, each pooling window
is reduced to its mean and its central moments of orders 2..n. Output shape
is (N, n*C, H', W') with moment-major channel layout: channels [0, C) hold
the means of input channels 0..C-1, channels [C, 2C) the second central
moments, and so on. Order 1 with no normalization is exactly average
pooling, bit for bit.

Padding is exclusive: padded cells never enter a window's statistics, and
each window divides by its true in-bounds count. Zero-padding would bias
the mean and every higher moment, so there is no inclusive mode.

Channels of orders >= 3 can be rescaled by one of the strategies in
`normalize`; orders 1 and 2 are never normalized. Requesting order >= 3
with no normalization requires an explicit unsafe flag, because those raw
channels are known to destabilize training (see `grad` and the toytrain
experiment).

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
from dataclasses import dataclass

import numpy as np

from . import normalize
from .normalize import BatchNormState
from .tensor import Tensor
from .windows import PoolSpec, _is_int, output_dims, window_view

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


# centered-power temporaries are processed in chunks this size: small
# enough that the three scratch buffers stay in L2 and below glibc's mmap
# ceiling, so repeat passes hit cache and the allocator recycles the heap
# blocks instead of page-faulting fresh mappings
_CHUNK_BYTES = 1 << 17


def _window_stats(x4: np.ndarray, pool: PoolSpec, n: int):
    """Window view plus raw moment maps m1..mn, each (N, C, H', W').

    The centered-power pass is chunked over channels and kernel rows with
    partial-sum accumulation in fixed raster order, so results are
    bit-identical for a given shape regardless of run or thread count.
    """
    view, valid, counts = window_view(x4, pool)
    inv = 1.0 / counts
    mu = view.sum(axis=(-2, -1)) * inv
    stats = [mu]
    if n == 1:
        return view, valid, counts, stats

    n_s, c_s, h_out, w_out = view.shape[:4]
    k_h, k_w = view.shape[4:]
    sums = [np.zeros((n_s, c_s, h_out, w_out)) for _ in range(n - 1)]
    cell_bytes = h_out * w_out * k_w * 8
    chans = max(1, _CHUNK_BYTES // (cell_bytes * k_h))
    k_rows = k_h if chans > 1 else max(1, _CHUNK_BYTES // cell_bytes)
    for b in range(n_s):
        for c0 in range(0, c_s, chans):
            cs = slice(c0, min(c0 + chans, c_s))
            mu_c = mu[b, cs][..., None, None]
            for i0 in range(0, k_h, k_rows):
                ks = slice(i0, min(i0 + k_rows, k_h))
                dev = view[b, cs, :, :, ks, :] - mu_c
                if valid is not None:
                    dev *= valid[:, :, ks, :]
                d2 = dev * dev
                sums[0][b, cs] += d2.sum(axis=(-2, -1))
                if n >= 3:
                    d2_dev = d2 * dev
                    sums[1][b, cs] += d2_dev.sum(axis=(-2, -1))
                if n >= 4:
                    d4 = np.multiply(d2, d2, out=d2_dev)  # scratch reuse
                    sums[2][b, cs] += d4.sum(axis=(-2, -1))
    stats.extend(s * inv for s in sums)
    return view, valid, counts, stats


def _standardize_denoms(m2: np.ndarray, eps: float):
    """(sigma^3 + eps, sigma^4 + eps) denominators for pre-norm scaling."""
    sigma = np.sqrt(m2)
    return sigma * m2 + eps, m2 * m2 + eps


def _pre_norm_block(stats, spec: MomentSpec) -> np.ndarray:
    """Orders >= 3 of the window statistics as one (N, (n-2)*C, H', W') block.

    This is the normalization input: m3 and m4, divided by sigma^3 + eps and
    sigma^4 + eps when `spec.standardize_pre_norm` is set.
    """
    block = np.concatenate(stats[2:], axis=1)
    if spec.standardize_pre_norm:
        channels = stats[0].shape[1]
        d3, d4 = _standardize_denoms(stats[1], spec.eps_norm)
        block[:, :channels] /= d3
        if spec.n >= 4:
            block[:, channels:] /= d4
    return block


def _grouped(block: np.ndarray, spec: MomentSpec):
    """Reshape a pre-norm block so one reduction axis spans each norm group.

    Batch norm groups per channel over batch and spatial axes, which is the
    block's own layout, so it comes back unchanged and with no axis.
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
               bn_state: BatchNormState | None, training: bool) -> np.ndarray:
    """`spec.norm` applied to a pre-norm block in its `spec.norm_axis` groups."""
    if spec.norm == "none":
        return block
    if spec.norm == "batch":
        return normalize.batch_norm(block, state=bn_state, training=training,
                                    eps=spec.eps_norm)
    x, axis = _grouped(block, spec)
    fn = normalize.layer_norm if spec.norm == "layer" else normalize.max_norm
    return fn(x, eps=spec.eps_norm, axis=axis).reshape(block.shape)


def _normalize_vjp(block: np.ndarray, upstream: np.ndarray, spec: MomentSpec,
                   bn_state: BatchNormState | None, training: bool) -> np.ndarray:
    """VJP of `_normalize` at `block` for upstream weights of the same shape."""
    x, axis = _grouped(block, spec)
    u, _ = _grouped(upstream, spec)
    return normalize.norm_backward(spec.norm, x, u, spec.eps_norm, axis,
                                   bn_state, training).reshape(upstream.shape)


def _pooled(x4: np.ndarray, pool: PoolSpec, spec: MomentSpec, norm) -> Tensor:
    """Moment channels m1, m2 and `norm` of the pre-norm block, concatenated."""
    stats = _window_stats(x4, pool, spec.n)[3]
    if spec.n >= 3:
        stats[2:] = [_pre_norm_block(stats, spec)]  # frees m3, m4 before norm
        stats[2] = norm(stats[2])
    out = np.concatenate(stats, axis=1)
    del stats  # before the Tensor copy, so only `out` is held twice
    return Tensor(out.shape, out)


def smp_forward(t: Tensor, pool: PoolSpec, spec: MomentSpec,
                bn_state: BatchNormState | None = None,
                training: bool = True) -> Tensor:
    """Pool `t` to (N, n*C, H', W') moment channels.

    With `spec.norm != "none"`, channels of orders >= 3 are normalized;
    batch norm reads/updates `bn_state` (a fresh transient state is used
    when none is given in training mode).
    """
    return _pooled(t.nchw, pool, spec,
                   lambda block: _normalize(block, spec, bn_state, training))


def sap_forward(t: Tensor, pool: PoolSpec) -> Tensor:
    """Spatial average pooling: the order-1 special case."""
    return smp_forward(t, pool, MomentSpec(n=1, norm="none"))


def op_cost(shape, pool: PoolSpec, spec: MomentSpec) -> OpCostReport:
    """MAC count for one forward pass; formula in the module docstring."""
    dims = tuple(int(s) for s in shape)
    if not 1 <= len(dims) <= 4:
        raise ValueError("shape must have 1..4 extents")
    full = (1,) * (4 - len(dims)) + dims
    n_samples, channels, h, w = full
    h_out, w_out = output_dims(h, w, pool)
    cells = h_out * w_out
    m = pool.window_size

    sap = n_samples * channels * cells * (m + 1)
    extra = n_samples * channels * cells * (spec.n - 1) * (2 * m + 1)
    if spec.norm != "none" and spec.n >= 3:
        norm_elems = n_samples * (spec.n - 2) * channels * cells
        extra += norm_elems * _NORM_MACS_PER_ELEM[spec.norm]
    return OpCostReport(mul_add_count=sap + extra, extra_vs_sap=extra)
