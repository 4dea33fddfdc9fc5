"""Pooling-window geometry, and the one place that decides how the
windows are laid out and walked.

Window placement follows the standard convolution rule: with input extent
`in`, padding `p`, dilation `d`, kernel `k` and stride `s`, the output
extent is floor((in + 2p - d*(k-1) - 1) / s) + 1. Geometry that would yield
a non-positive output extent is rejected rather than producing empty
tensors.

A walk (`Walk`) visits every in-bounds (window, kernel cell) pair exactly
once, in a fixed order, for the forward statistics and the backward's cell
gradients alike. `frames` hands each chunk of planes to that arithmetic in
the layout its steps index, in five roles: the input, the maps it reads,
the maps it builds, and the sums and the gradient it adds into; staged
sums and gradients are copied out once the chunk is done. `deviation` and
`cell_sum` read a step's block. `window_walk` builds one of two walks:

- `window_steps` reads the planes in place: strided blocks of the unpadded
  input that never touch a padding cell and hold no input cell twice, so
  the backward adds a block of cell gradients into the input gradient with
  a plain `+=`. At stride 1 each block is one kernel cell, and numpy's
  per-row overhead dominates it: neither the input block nor the output
  slice can merge rows, so a block of eight 63x63 planes runs 504 inner
  loops of 63 elements. Its frames hand over the arrays' own planes, and
  stage only the built maps and, in a chunk of several samples, whose
  planes of one output channel are strided, the sums.
- `flat_walk`, for overlapping stride-1 windows, stages every role in a
  chunk's zero-padded scratch, with the outputs in the scratch's own row
  layout, so each kernel cell is one contiguous run and each elementwise
  operation one ufunc call. It also computes junk outputs past the last
  output row and column. A step's `bad` mask marks its invalid pairs, junk
  or padding. A padding pair adds an exact +0.0: its cell is 0, `deviation`
  zeroes its deviation and its cell gradient is dropped; so every real
  output sees the strided walk's additions in its order, bit for bit. A
  junk output's sums start at NaN and scale by a 1 / count of NaN, so
  nothing done there warns or reaches a result; the maps read and built
  hold 0 there, and with its zeroed deviations its cell gradients add +0.0.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, fields
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .tensor import _is_int


class GeometryError(ValueError):
    """Raised when a pooling geometry is invalid for a given input size."""


@dataclass(frozen=True)
class PoolSpec:
    """Window geometry shared by pooling and convolution."""

    kernel_h: int
    kernel_w: int
    stride_h: int = 1
    stride_w: int = 1
    pad_h: int = 0
    pad_w: int = 0
    dilation_h: int = 1
    dilation_w: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            low = 0 if f.name.startswith("pad") else 1
            if not _is_int(value) or value < low:
                raise GeometryError(f"{f.name} must be an int >= {low}, got {value!r}")
        # pad < effective kernel guarantees every window touches the input;
        # otherwise boundary windows would consist of padding alone and
        # exclusive-padding statistics would divide by zero
        if self.pad_h >= self.eff_kernel_h or self.pad_w >= self.eff_kernel_w:
            raise GeometryError(
                f"padding ({self.pad_h},{self.pad_w}) must be smaller than the "
                f"effective kernel ({self.eff_kernel_h},{self.eff_kernel_w})"
            )

    @classmethod
    def square(cls, kernel: int, stride: int = 1, pad: int = 0,
               dilation: int = 1) -> "PoolSpec":
        return cls(kernel, kernel, stride, stride, pad, pad, dilation, dilation)

    @property
    def eff_kernel_h(self) -> int:
        """Kernel footprint including dilation gaps."""
        return self.dilation_h * (self.kernel_h - 1) + 1

    @property
    def eff_kernel_w(self) -> int:
        return self.dilation_w * (self.kernel_w - 1) + 1

    @property
    def window_size(self) -> int:
        return self.kernel_h * self.kernel_w


def output_dims(h: int, w: int, spec: PoolSpec) -> tuple[int, int]:
    """Output spatial extents for the given input extents, or GeometryError."""
    h_out = (h + 2 * spec.pad_h - spec.eff_kernel_h) // spec.stride_h + 1
    w_out = (w + 2 * spec.pad_w - spec.eff_kernel_w) // spec.stride_w + 1
    if h_out < 1 or w_out < 1:
        raise GeometryError(
            f"kernel {spec.eff_kernel_h}x{spec.eff_kernel_w} (effective) does not "
            f"fit input {h}x{w} with padding {spec.pad_h},{spec.pad_w}"
        )
    return h_out, w_out


# a step's block holds at most this many bytes wherever whole planes or
# kernel rows can be cut off: its temporaries then stay in L2 and below
# glibc's mmap threshold, so the allocator recycles heap blocks instead of
# page-faulting fresh mappings on every call
_STEP_BYTES = 1 << 18


class WindowStep(NamedTuple):
    """One block of a walk, laid over the buffer of a C-contiguous array.

    A strided step's block is (S, C', H'', W'', kr, kc) cells of S samples
    and C' channels of a chunk's planes, or (S, C', H'', W'') for one kernel
    cell; `out` indexes the slice of the chunk's output maps that it feeds
    and `win` the same slice broadcast against the block. A flat step
    is one kernel cell's run over a chunk's flattened padded scratch, and
    `out` and `win` take the whole of the chunk's equally long output run.
    `bad` marks the block's invalid (output, cell) pairs, or is None where
    it has none."""

    out: tuple
    win: tuple
    offset: int
    shape: tuple
    strides: tuple
    bad: np.ndarray | None = None

    def block(self, arr: np.ndarray) -> np.ndarray:
        """The block as a view of `arr`, which must have the walked shape."""
        return np.ndarray(self.shape, np.float64, arr, self.offset, self.strides)


class Walk(NamedTuple):
    """A window walk, cached per shape and geometry by `window_walk`.

    `chunks` holds (planes, steps) pairs: the (samples, channels) index of
    a run of planes, inside one sample or of whole samples, and the steps
    that complete every window of those planes. `inv` is 1 / cell count in
    the layout the steps feed, read-only. `counts` is a read-only pair: the
    in-bounds kernel rows per output row and columns per output column,
    whose product is a window's cell count. `pad` is None on the strided
    walk, else the flat walk's (pad_h, pad_w) scratch padding, and `inv`
    spans the flattened outputs of the largest chunk with NaN at junk.
    """

    chunks: tuple
    inv: np.ndarray
    counts: tuple
    pad: tuple | None = None


def _runs(size: int, out: int, k: int, s: int, d: int, p: int):
    """[output slice, first input index, cells] per run of kernel indices.

    Consecutive indices share a run while they share one in-bounds output
    range and their cells cannot collide: the range is one position, or the
    run's span (len-1)*d stays below the stride s.
    """
    runs, prev = [], None
    for i in range(k):
        lo = max(0, -((i * d - p) // s))  # first output with o*s + i*d >= p
        hi = min(out, (size - 1 + p - i * d) // s + 1)
        if lo >= hi:
            prev = None
        elif prev and prev[0] == slice(lo, hi) and (hi - lo == 1 or prev[2] * d < s):
            prev[2] += 1
        else:
            prev = [slice(lo, hi), lo * s + i * d - p, 1]
            runs.append(prev)
    return runs


def _runs_and_counts(h: int, w: int, spec: PoolSpec):
    """Row runs, column runs and the per-axis in-bounds counts: kernel rows
    per output row and columns per output column, read-only, whose product
    is a window's cell count. A window with no input cell, which a dilated
    kernel can step over, is a GeometryError."""
    h_out, w_out = output_dims(h, w, spec)
    rows = _runs(h, h_out, spec.kernel_h, spec.stride_h, spec.dilation_h, spec.pad_h)
    cols = _runs(w, w_out, spec.kernel_w, spec.stride_w, spec.dilation_w, spec.pad_w)
    counts = np.zeros(h_out), np.zeros(w_out)
    for count, runs in zip(counts, (rows, cols)):
        for out_slice, _, cells in runs:
            count[out_slice] += cells
        if not count.all():
            raise GeometryError(f"{spec} leaves windows with no input cell on "
                                f"input {h}x{w}")
        count.setflags(write=False)
    return rows, cols, counts


def _plane_chunks(samples: int, channels: int, per: int) -> list:
    """(samples, channels) indices of at most `per` planes, `per` >= 1, each
    inside one sample or of whole samples, spread evenly."""
    if per >= channels:
        k = min(samples, per // channels)
        k = -(-samples // -(-samples // k))
        return [(slice(b, min(samples, b + k)), slice(0, channels))
                for b in range(0, samples, k)]
    per = -(-channels // -(-channels // per))
    return [(slice(b, b + 1), slice(c, min(channels, c + per)))
            for b in range(samples) for c in range(0, channels, per)]


def _planes(index: tuple) -> int:
    """The number of planes in a (samples, channels) index."""
    return math.prod(s.stop - s.start for s in index)


def window_steps(shape: tuple, spec: PoolSpec) -> Walk:
    """The strided walk for an (N, C, H, W) `shape`.

    A chunk holds as many planes as keep its output map within
    `_STEP_BYTES`, at least one; a step as many of its planes and of one
    run's kernel rows as fit in `_STEP_BYTES`, at least one of each.
    """
    n, c, h, w = shape
    rows, cols, counts = _runs_and_counts(h, w, spec)

    @lru_cache(maxsize=None)
    def chunk_steps(n: int, c: int) -> tuple:
        """The steps of an (n, c, h, w) chunk, laid over its own buffer."""
        strides = tuple(8 * s for s in (c * h * w, h * w, spec.stride_h * w,
                                        spec.stride_w, spec.dilation_h * w,
                                        spec.dilation_w))
        steps = []
        for (out_h, y0, kr), (out_w, x0, kc) in itertools.product(rows, cols):
            hw = (out_h.stop - out_h.start, out_w.stop - out_w.start)
            row = hw[0] * hw[1] * kc * 8  # one plane's kernel row
            per_r = max(1, _STEP_BYTES // row)
            blocks = _plane_chunks(n, c, max(1, _STEP_BYTES // (row * kr)))
            for (bs, cs), r0 in itertools.product(blocks, range(0, kr, per_r)):
                out = (bs, cs, out_h, out_w)
                cells = (min(per_r, kr - r0), kc)
                rank = 4 if cells == (1, 1) else 6
                offset = ((bs.start * c + cs.start) * h * w
                          + (y0 + r0 * spec.dilation_h) * w + x0) * 8
                planes = (bs.stop - bs.start, cs.stop - cs.start)
                steps.append(WindowStep(out, out + (None,) * (rank - 4), offset,
                                        (planes + hw + cells)[:rank], strides[:rank]))
        return tuple(steps)

    inv = 1.0 / np.multiply.outer(*counts)
    inv.setflags(write=False)
    chunks = _plane_chunks(n, c, max(1, _STEP_BYTES // inv.nbytes))
    return Walk(tuple((ch, chunk_steps(*(s.stop - s.start for s in ch)))
                      for ch in chunks), inv, counts)


def flat_walk(shape: tuple, spec: PoolSpec) -> Walk:
    """The flat walk for an (N, C, H, W) `shape` at stride 1.

    A chunk holds as many padded planes as fit in `_STEP_BYTES`, at least
    one. Copied into a zero-padded (planes, Hp, Wp) scratch, output o of
    the chunk sits at o = (plane * Hp + row) * Wp + col, the scratch's own
    row layout, and reads kernel cell k at o + offset(k); outputs at
    row >= H' or col >= W' are junk. A chunk has one step per kernel cell,
    a run over its outputs up to the last real one, and the step's `bad`
    marks the outputs for which the cell is junk or padding.
    """
    n, c, h, w = shape
    _, _, counts = _runs_and_counts(h, w, spec)
    ph, pw, (h_out, w_out) = spec.pad_h, spec.pad_w, (a.size for a in counts)
    hp, wp = h + 2 * ph, w + 2 * pw
    chunks = _plane_chunks(n, c, max(1, _STEP_BYTES // (hp * wp * 8)))
    per = max(_planes(ch) for ch in chunks)

    def outputs(planes: int) -> int:
        """Flat outputs of a chunk, up to its last real one."""
        return ((planes - 1) * hp + h_out - 1) * wp + w_out

    row, col = np.arange(hp)[:, None], np.arange(wp)
    junk = (row >= h_out) | (col >= w_out)
    cells = [(i * spec.dilation_h, j * spec.dilation_w)
             for i in range(spec.kernel_h) for j in range(spec.kernel_w)]
    invalid = np.empty((len(cells), per, hp, wp), dtype=bool)
    for bad, (di, dj) in zip(invalid, cells):
        bad[:] = junk | ~(((ph <= row + di) & (row + di < ph + h))
                          & ((pw <= col + dj) & (col + dj < pw + w)))
    inv = np.full((per, hp, wp), np.nan)
    inv[:, :h_out, :w_out] = 1.0 / np.multiply.outer(*counts)
    invalid = invalid.reshape(len(cells), -1)[:, :outputs(per)]
    inv = inv.reshape(-1)[:outputs(per)]
    for a in (invalid, inv):
        a.setflags(write=False)

    def steps(size: int) -> tuple:
        return tuple(WindowStep((slice(None),), (slice(None),), 8 * (di * wp + dj),
                                (size,), (8,), bad[:size])
                     for (di, dj), bad in zip(cells, invalid))

    return Walk(tuple((ch, steps(outputs(_planes(ch)))) for ch in chunks),
                inv, counts, (ph, pw))


@lru_cache(maxsize=64)
def window_walk(shape: tuple, spec: PoolSpec) -> Walk:
    """The walk that the forward and the backward take for `shape`, cached:
    `flat_walk` at stride 1 when one padded plane fits `_STEP_BYTES` and at
    most a quarter of the outputs are junk, else `window_steps`.

    The size bound keeps the scratch, the per-chunk maps and the cached
    masks within the step budget, as on the strided walk. The junk bound
    lies between the timed geometries: the flat statistics pass was faster
    at 2-11% junk and slower at 44%.
    """
    h, w = shape[2:]
    hp, wp = h + 2 * spec.pad_h, w + 2 * spec.pad_w
    if (spec.stride_h, spec.stride_w) == (1, 1) and hp * wp * 8 <= _STEP_BYTES:
        h_out, w_out = output_dims(h, w, spec)
        if 4 * h_out * w_out >= 3 * hp * wp:
            return flat_walk(shape, spec)
    return window_steps(shape, spec)


def cell_sum(a: np.ndarray) -> np.ndarray:
    """Sum over a block's kernel axes; a one-cell block or a run has none."""
    return a if a.ndim <= 4 else a.sum(axis=(4, 5))


def deviation(step: WindowStep, x: np.ndarray, mean: np.ndarray, out) -> np.ndarray:
    """The step's cells less their window means, into `out`, or into a fresh
    array in the block's own layout when `out` is None (the kernel-axis sums
    then run in that layout's order). Each invalid pair's deviation is
    zeroed, so it adds an exact +0.0 when raised and never overflows."""
    dev = np.subtract(step.block(x), mean[step.win], out=out)
    if step.bad is not None:
        np.copyto(dev, 0.0, where=step.bad)
    return dev


def frames(walk: Walk, x4: np.ndarray, maps=(), fill=None, sums=(), grad=None):
    """Each chunk of `walk` as (steps, x, maps, grad, inv, work), staged as
    the module docstring says: the chunk's input, its planes of the `maps`,
    the k maps that `fill` = (k, f) builds by f(planes, out) into `out`,
    its zeroed planes of the `sums` and of the gradient to add into, 1 /
    cell count, and two buffers for a step's deviation and its powers, or
    None."""
    k_fill, build = fill or (0, lambda planes, out: None)
    per = max(_planes(planes) for planes, _ in walk.chunks)
    if walk.pad is None:
        # an output channel's planes of several samples are strided, which
        # slows every step's add: such chunks, which the first chunk (from
        # sample 0) shows, add their sums in buffers
        spill = len(sums) if walk.chunks[0][0][0].stop > 1 else 0
        bufs = [np.empty((per,) + walk.inv.shape) for _ in range(k_fill + spill)]
        for planes, steps in walk.chunks:
            x, g = x4[planes], None if grad is None else grad[planes]
            chunk = [b[:_planes(planes)].reshape(x.shape[:2] + walk.inv.shape)
                     for b in bufs]
            build(planes, chunk[:k_fill])
            acc = chunk[k_fill:] if spill else [a[planes] for a in sums]
            for a in acc if g is None else (*acc, g):
                a.fill(0.0)
            yield steps, x, [*(m[planes] for m in maps), *chunk[:k_fill], *acc], g, \
                walk.inv, (None, None)
            for a, src in zip(sums, chunk[k_fill:]):
                a[planes] = src
        return
    (ph, pw), (h, w) = walk.pad, x4.shape[2:]
    h_out, w_out = (sums or maps)[0].shape[2:]
    k_read = len(maps) + k_fill
    k = k_read + len(sums)
    # maps, built maps, sums, then the input and the gradient
    layers = np.zeros((k + 1 + (grad is not None), per, h + 2 * ph, w + 2 * pw))
    flat = layers.reshape(len(layers), -1)
    work = np.empty((2, walk.inv.size))
    for planes, steps in walk.chunks:
        x = x4[planes]
        q, size = _planes(planes), steps[0].shape[0]
        cells = layers[k:, :q, ph:ph + h, pw:pw + w].reshape((-1,) + x.shape)
        outs = layers[:k, :q, :h_out, :w_out].reshape((k, *x.shape[:2], h_out, w_out))
        cells[0] = x
        for dst, m in zip(outs, maps):
            dst[...] = m[planes]
        build(planes, outs[len(maps):k_read])
        np.multiply(walk.inv[:size], 0.0, out=flat[k_read:k, :size])
        flat[k + 1:].fill(0.0)
        g = flat[k + 1] if grad is not None else None
        yield steps, flat[k], list(flat[:k, :size]), g, walk.inv[:size], work[:, :size]
        for a, src in zip(sums, outs[k_read:]):
            a[planes] = src
        if grad is not None:
            grad[planes] = cells[1]
