"""Moment pooling: windowed mean plus central moments, channel-concatenated.

For an input of shape (N, C, H, W) and moment order n, each pooling window
is reduced to its mean and its central moments of orders 2..n. The output
shape is `output_shape(shape, pool, spec)`, (N, n*C, H', W'), with a
moment-major channel layout: channels [0, C) hold the means of input
channels 0..C-1, channels [C, 2C) the second central moments, and so on.
Order 1 with no normalization is exactly average pooling, bit for bit.

Padding is exclusive: padded cells never enter a window's statistics, and
each window divides by its true in-bounds count. Zero-padding would bias
the mean and every higher moment, so there is no inclusive mode. How the
windows are laid out and walked is for `windows` alone to decide (see its
docstring); this module keeps the moment arithmetic.

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

`check_forward` is the matching finite-difference target.

Saved forward
-------------
Each `smp_forward` saves, read-only in a one-entry cache, what the
backward reads, unless its caller passes `save=False`: the entry (walk,
stats, block, divisor) holds the walk with its 1 / count map, the raw
maps m1..m_(n-1) (m1 and m2 as views of the output), the normalized
orders >= 3 (a view of the output) and their per-group divisor, so output
and entry hold no map twice. Order k's cell gradient reads m_(k-1); only
the standardization VJP reads raw mn, so it is kept only under
`standardize_pre_norm`. The key is the input `Tensor`'s identity through
a weakref (tensors are immutable), `pool`, the whole `spec` and
`training`, since the divisor depends on every normalization field. On a
miss the backward runs the forward itself, without the running state in
training mode, so a hit and a miss share one formula. Eval-mode batch
norm divides by the backward's own running state. The entry goes when its
input dies or a saving forward starts, so none is held while the next is
built.

A forward that no backward follows passes `save=False` and is pure: it
copies no raw order, neither reads nor writes the entry, and returns the
saving forward's bytes. The CLI `pool` and `bench` and both `toytrain`
forwards pass it, and `check_forward`'s probes run `_pooled` the same
way; a default `smp_forward`, and the forward that `smp_backward` runs on
a miss, save.

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

from . import normalize, windows
from .normalize import BatchNormState
from .tensor import Tensor, _check_finite, _is_int, nchw_shape
from .windows import PoolSpec, Walk, output_dims, window_walk

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
            raise ValueError(
                f"norm_axis must be one of {NORM_AXES}, got {self.norm_axis!r}")
        _check_finite("eps_norm", self.eps_norm, positive=True)
        for flag in ("standardize_pre_norm", "unsafe_no_norm"):
            if not isinstance(getattr(self, flag), bool):
                raise ValueError(f"{flag} must be a bool, got {getattr(self, flag)!r}")
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


def _by_order(a: np.ndarray, shape: tuple) -> list:
    """Moment-major channels, or their norm groups, as a view of `shape` per order."""
    return list(a.reshape(shape[0], -1, *shape[1:]).swapaxes(0, 1))


def _walk_stats(x4: np.ndarray, walk: Walk, n: int):
    """(maps, output): the (N, C, H', W') maps m1..mn over `walk`, as views
    of an array of `output_shape` that holds them in its moment-major
    channels, into which the walk adds them.

    Each group's blocks, and the powers of their deviations from the window
    means, are summed by `windows.add_sum` into the outputs before one
    scaling by 1 / cell count; where a group holds several cells, the mean
    pass hands it the sums' start, copied before any is added. A group's
    cells take a deviation and a square buffer each; the cubes go into the
    deviations and the fourth powers into the squares.
    """
    orders = np.empty((len(x4), n, x4.shape[1]) + tuple(a.size for a in walk.counts))
    maps = list(orders.swapaxes(0, 1))
    cells = max(map(len, walk.chunks[0][1]))  # a flat walk's chunks share their groups
    for groups, x, acc, _, inv, work in windows.frames(
            walk, x4, sums=maps, work=2 * cells if n >= 2 else cells // 2 + (cells > 1)):
        if cells > 1:  # the sums' start: +0.0 at real outputs, NaN at junk
            work[-1][...] = acc[0]
        for group in groups:
            windows.add_sum(acc[0][group[0].out], [st.block(x) for st in group], work,
                            work[-1] if cells > 1 else None)
        acc[0] *= inv
        for group in groups if n >= 2 else ():
            out, k = group[0].out, len(group)
            devs = [windows.deviation(st, x, acc[0], e) for st, e in zip(group, work)]
            squares = [np.multiply(d, d, out=e) for d, e in zip(devs, work[k:])]
            if n >= 3:
                windows.add_sum(acc[2][out], [np.multiply(d2, d, out=d)
                                              for d2, d in zip(squares, devs)], devs)
            windows.add_sum(acc[1][out], squares, devs)  # into the freed deviations
            if n >= 4:
                windows.add_sum(acc[3][out], [np.multiply(d2, d2, out=d2)
                                              for d2 in squares], squares)
        for a in acc[1:]:
            a *= inv
    return maps, orders.reshape(len(x4), -1, *orders.shape[3:])


def _cell_grads(x4: np.ndarray, walk: Walk, m1: np.ndarray, coefficients):
    """Cell gradients over `walk`, added onto the input grid, for the n
    coefficient maps that `coefficients` = (n, f) builds (see
    `windows.frames`), one step at a time; a step's block holds no input
    cell twice, and a group's steps hold distinct cells, so `+=` is safe."""
    grad = np.empty(x4.shape)
    for groups, x, (mean, *coef), g, _, (e, t) in windows.frames(
            walk, x4, maps=[m1], fill=coefficients, grad=grad):
        for st in sum(groups, ()):  # each group's cells in turn
            h = coef[-1][st.win]
            if len(coef) > 1:  # Horner, highest order first
                dev = windows.deviation(st, x, mean, e)
                h = np.multiply(h, dev, out=t)
                for c in coef[-2:0:-1]:
                    h += c[st.win]
                    h *= dev
                h += coef[0][st.win]
            gb = st.block(g)
            if len(coef) > 1 and not gb.flags.c_contiguous:
                # a ufunc copies a strided output that it cannot prove free
                # of internal overlap: add into h, which is ours, and copy it
                np.copyto(gb, np.add(gb, h, out=h))
            else:
                gb += h
    return grad


# (weakref to the input, pool, spec, training, entry) or None: "Saved forward"
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


def _standardize_terms(m2: np.ndarray, spec: MomentSpec, out):
    """(p / 2, sigma^(p-2), sigma^p + eps) for each order p = 3..n, built
    into `out`, two arrays of m2's shape, which each order's terms
    overwrite.

    Order p's pre-norm channel is m_p / (sigma^p + eps), whose derivative
    in m2 is -m_p * (p / 2) * sigma^(p-2) / (sigma^p + eps)^2.
    """
    for p, root in zip(range(3, spec.n + 1), (np.sqrt(m2, out=out[0]), m2)):
        denom = np.multiply(root, m2, out=out[1])
        denom += spec.eps_norm
        yield p / 2, root, denom


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


def _pooled(t: Tensor, pool: PoolSpec, spec: MomentSpec,
            bn_state: BatchNormState | None, training: bool, held=None,
            save: bool = True):
    """(output, entry): moment channels m1..mn, the orders >= 3 divided by
    sigma^p + eps when `spec.standardize_pre_norm` is set and then normalized
    in place in their groups, or divided by the `held` max-norm peaks (of
    `check_forward`), tiled over stacked copies; the read-only entry is what
    `_saved` returns for `t`, or None unless `save`."""
    walk = window_walk(t.nchw.shape, pool)
    kept = spec.n if spec.standardize_pre_norm else max(2, spec.n - 1)
    stats, out = _walk_stats(t.nchw, walk, spec.n)
    # the kept raw orders >= 3 are copied once the walk has freed its scratch
    stats[2:] = [m.copy() for m in stats[2:kept if save else 2]]
    block = divisor = None
    if spec.n >= 3:
        block = out[:, 2 * stats[0].shape[1]:]
        if spec.standardize_pre_norm:
            for order, (_, _, denom) in zip(
                    _by_order(block, stats[1].shape),
                    _standardize_terms(stats[1], spec, np.empty((2, *stats[1].shape)))):
                order /= denom
        if spec.norm != "none":
            x, axis = _grouped(block, spec)
            if held is None:
                divisor = normalize._normalized(spec.norm, x, spec.eps_norm, axis,
                                                bn_state, training, out=x)[1]
            else:
                divisor = np.concatenate([held] * (len(x) // len(held)))
                x /= divisor
    if not save:
        return out, None
    for a in (*stats, block, divisor):
        if a is not None:
            a.setflags(write=False)
    return out, (walk, stats, block, divisor)


def smp_forward(t: Tensor, pool: PoolSpec, spec: MomentSpec,
                bn_state: BatchNormState | None = None,
                training: bool = True, *, save: bool = True) -> Tensor:
    """Pool `t` to (N, n*C, H', W') moment channels.

    With `spec.norm != "none"`, channels of orders >= 3 are normalized.
    Training-mode batch norm uses the batch statistics and folds them into
    `bn_state` when one is given; eval mode divides by `bn_state`, which it
    requires. `save=False` is for a forward that no `smp_backward` follows:
    it keeps no entry and leaves the saved forward as it was.
    """
    global _cached
    if save:  # the stale entry's maps are not held while the next is built
        _cached = None
    out, entry = _pooled(t, pool, spec, bn_state, training, save=save)
    if save:
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

    walk, stats, y, divisor = _saved(t, pool, spec, bn_state, training)
    shape, n = stats[0].shape, spec.n
    w, norm = _by_order(upstream.nchw, shape), None  # order k + 1 at w[k]
    if spec.norm != "none" and n >= 3:
        # y and the VJP's group terms, which broadcast as views of y's shape
        block, axis = _grouped(y, spec)
        if spec.norm == "batch" and not training:  # this call's running state
            divisor = np.sqrt(normalize._running_stats(bn_state, block)[1]
                              + spec.eps_norm)
        terms = normalize._vjp_terms(spec.norm, block, divisor, _grouped(
            upstream.nchw[:, 2 * shape[1]:], spec)[0], axis, training)
        norm = [_by_order(np.broadcast_to(a, block.shape), shape)
                for a in (block, *terms)]

    # order k adds k * w_k / window count * (dev**(k-1) - m_(k-1)) to a cell,
    # m_0 = m_1 = 0, for the cell's deviation dev from the window mean;
    # poly[j] is the coefficient of dev**j in the sum over k. At every n each
    # map is worked in the contiguous pair and copied once to its slot; a
    # factor (k + 1) * inv, the walk's 1 / count rows, sits in b's first plane
    def coefs(planes, poly, pair, inv):
        v, m = ([a[planes] for a in maps] for maps in (w, stats))
        a, b = pair

        def scaled(src, k):  # src * (k + 1) / window count, into a
            return np.multiply(src, np.multiply(inv, k + 1.0, out=b[0, 0]), out=a)

        std = None  # sigma sits in b until b takes denom ** 2
        if spec.standardize_pre_norm and n >= 3:
            term, denom = np.empty((2, *a.shape))
            std = _standardize_terms(m[1], spec, (b, denom))
        for i in range(2, n):  # order i + 1's w passes through the norm's VJP
            vi = v[i] if norm is None else normalize._vjp_apply(
                v[i], *(t[i - 2][planes] for t in norm), out=a, tmp=b)
            if std:  # order p = i + 1, through m_p / denom
                half_p, root, denom = next(std)
                # v[1] + vi * (-m_p * half_p * root / (denom * denom)), summed
                # in order 2's slot, which is written last
                np.multiply(np.negative(m[i], out=term), half_p, out=term)
                term *= root
                term /= np.multiply(denom, denom, out=b)
                v[1] = np.add(v[1], np.multiply(vi, term, out=term), out=poly[1])
                vi = np.divide(vi, denom, out=a)
            poly[i][...] = scaled(vi, i)
        if n > 1:
            poly[1][...] = scaled(v[1], 1)
        p0 = scaled(v[0], 0)
        for k in range(2, n):
            p0 -= np.multiply(poly[k], m[k - 1], out=b)
        poly[0][...] = p0

    return Tensor._adopt(t.shape, _cell_grads(t.nchw, walk, stats[0], (n, coefs)))


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

    The forwards are pure: they neither read nor write the saved forward,
    and only fetching max norm's peaks at `x` goes through it.

    Training-mode batch statistics couple the samples. Every other
    forward is separable by sample and carries `sample(b)` for
    `grad.numeric_gradient`: a forward over copies of sample b, the
    forward itself except that fixed-peak max norm divides by sample b's
    own peaks.
    """
    state = None if training else bn_state
    held = (_saved(x, pool, spec, bn_state, training)[3]
            if spec.norm == "max" and spec.n >= 3 else None)

    def over(peaks) -> Callable[[Tensor], Tensor]:
        def forward(t: Tensor) -> Tensor:
            out, _ = _pooled(t, pool, spec, state, training, peaks, save=False)
            return Tensor._adopt(out.shape, out)
        return forward

    forward = over(held)
    if spec.norm != "batch" or not training:
        forward.sample = lambda b: forward if held is None else over(held[b:b + 1])
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
