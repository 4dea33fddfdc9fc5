"""Pooling-window geometry and the two window walks shared by forward and backward.

Window placement follows the standard convolution rule: with input extent
`in`, padding `p`, dilation `d`, kernel `k` and stride `s`, the output
extent is floor((in + 2p - d*(k-1) - 1) / s) + 1. Geometry that would yield
a non-positive output extent is rejected rather than producing empty
tensors.

A walk visits every in-bounds (window, kernel cell) pair exactly once, in
a fixed order, for the forward statistics and the backward's cell
gradients alike. `window_walk` picks one of two from the geometry alone:

- `window_steps`, the strided walk: a fixed sequence of strided blocks of
  the unpadded input that never touch a padding cell and hold no input cell
  twice, so the backward adds a block of cell gradients into the input
  gradient with a plain `+=`. At stride 1 each block is one kernel cell,
  and numpy's per-row overhead dominates it: neither the input block nor
  the output slice can merge rows, so an (8, 63, 63) block runs 504 inner
  loops of 63 elements.
- `flat_walk`, the flat walk, for overlapping stride-1 windows: one chunk
  of planes at a time is copied into a zero-padded scratch, and the
  outputs are laid out in the scratch's own row layout, so each kernel cell
  is one contiguous slice and each elementwise operation one ufunc call. It
  also computes junk outputs past the last output row and column. Every
  invalid pair, junk or padding, is made to add an exact +0.0, so each
  output sees the same additions in the same order as on the strided walk
  and the bits do not move.

The flat walk is taken at stride 1 on both axes when one padded plane
fits `_STEP_BYTES` and at most a quarter of its outputs are junk (junk =
1 - H'W' / (Hp Wp) on a padded Hp x Wp plane). The size bound keeps the
scratch, the per-chunk maps and the cached masks within the step budget, as
on the strided walk; a larger plane keeps the strided walk even where the
flat one is faster (the 256x256 row below, a 520 KiB padded plane), and
cutting such planes into row bands is left open. The junk bound fits these
medians of the statistics pass, n = 4, each walk timed in turn in one
process on a 2-vCPU Xeon guest:

    geometry                          junk   strided    flat
    8x16x64x64, 3x3 s1 p1              6%    64.1 ms   30.3 ms
    1x3x256x256, 3x3 s1 p1             2%    18.0 ms   13.7 ms
    2x16x128x128, 5x5 s1 p2           11%   134.0 ms   59.8 ms
    52x3x8x8, 3x3 s1 p0 (probes)      44%    0.51 ms   0.66 ms

Strided and global pooling, and small planes such as the gradient check's
stacked 8x8 probes, keep the strided walk.
"""

from __future__ import annotations

import itertools
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
    """One block of the walk: (P'', H'', W'', kr, kc) cells of a range of P''
    planes, or (P'', H'', W'') for one kernel cell, laid over the buffer of
    a C-contiguous array of the walked shape; a plane is one channel of one
    sample. `out` indexes the slice of a (planes, H', W') output that the
    block feeds and `win` the same slice broadcast against the block."""

    out: tuple
    win: tuple
    offset: int
    shape: tuple
    strides: tuple

    def block(self, arr: np.ndarray) -> np.ndarray:
        """The block as a view of `arr`, which must have the walked shape."""
        return np.ndarray(self.shape, np.float64, arr, self.offset, self.strides)


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
    is a window's cell count."""
    h_out, w_out = output_dims(h, w, spec)
    rows = _runs(h, h_out, spec.kernel_h, spec.stride_h, spec.dilation_h, spec.pad_h)
    cols = _runs(w, w_out, spec.kernel_w, spec.stride_w, spec.dilation_w, spec.pad_w)
    counts = np.zeros(h_out), np.zeros(w_out)
    for count, runs in zip(counts, (rows, cols)):
        for out_slice, _, cells in runs:
            count[out_slice] += cells
        count.setflags(write=False)
    return rows, cols, counts


def _plane_chunks(samples: int, channels: int, per: int) -> list:
    """Slices of at most `per` flat planes, `per` >= 1, each inside one
    sample or a run of whole samples, spread evenly."""
    if per >= channels:
        k = min(samples, per // channels)
        k = -(-samples // -(-samples // k))
        return [slice(b * channels, min(samples, b + k) * channels)
                for b in range(0, samples, k)]
    per = -(-channels // -(-channels // per))
    return [slice(b * channels + c, b * channels + min(channels, c + per))
            for b in range(samples) for c in range(0, channels, per)]


@lru_cache(maxsize=64)
def window_steps(shape: tuple, spec: PoolSpec):
    """The strided walk for an (N, C, H, W) `shape`, cached: (steps, counts).

    Each step holds as many whole planes and kernel rows of one run as fit
    in `_STEP_BYTES`, at least one of each; its planes lie inside one sample
    or are whole samples. `counts` is a read-only pair: the in-bounds kernel
    rows per output row and columns per output column, whose product is a
    window's cell count; kept per axis for a small cache.
    """
    n, c, h, w = shape
    rows, cols, counts = _runs_and_counts(h, w, spec)
    item = np.dtype(np.float64).itemsize
    strides = tuple(item * s for s in (h * w, spec.stride_h * w, spec.stride_w,
                                       spec.dilation_h * w, spec.dilation_w))
    steps = []
    for (out_h, y0, kr), (out_w, x0, kc) in itertools.product(rows, cols):
        hw = (out_h.stop - out_h.start, out_w.stop - out_w.start)
        row = hw[0] * hw[1] * kc * item  # one plane's kernel row
        per_p = max(1, _STEP_BYTES // (row * kr))
        per_r = kr if per_p > 1 else max(1, _STEP_BYTES // row)
        chunks = _plane_chunks(n, c, per_p)
        for chunk, r0 in itertools.product(chunks, range(0, kr, per_r)):
            out = (chunk, out_h, out_w)
            cells = (min(per_r, kr - r0), kc)
            rank = 3 if cells == (1, 1) else 5
            offset = (chunk.start * strides[0]
                      + ((y0 + r0 * spec.dilation_h) * w + x0) * item)
            steps.append(WindowStep(out, out + (None,) * (rank - 3), offset,
                                    ((chunk.stop - chunk.start,) + hw + cells)[:rank],
                                    strides[:rank]))
    return tuple(steps), counts


class FlatWalk(NamedTuple):
    """The flat walk of stride-1 windows, one chunk of planes at a time.

    A chunk is copied into a zero-padded (planes, Hp, Wp) scratch. Output o
    of the chunk sits at o = (plane * Hp + row) * Wp + col, the scratch's
    own row layout, and reads kernel cell k at o + offsets[k], so each cell
    is one contiguous slice of the flattened scratch. Outputs at row >= H'
    or col >= W' are junk. `chunks` holds each chunk's plane slice and its
    count of outputs o, up to the last real one; `per` is the most planes in
    a chunk. `invalid[k]` marks the outputs for which cell k is junk or
    padding, and `inv` holds 1 / cell count at every real output and 0 at
    junk; both are read-only and span the largest chunk, and a smaller
    chunk uses their prefix.
    """

    pad: tuple
    padded: tuple
    out: tuple
    per: int
    chunks: tuple
    offsets: tuple
    invalid: np.ndarray
    inv: np.ndarray


@lru_cache(maxsize=64)
def flat_walk(shape: tuple, spec: PoolSpec):
    """The flat walk for an (N, C, H, W) `shape` at stride 1, cached:
    (walk, counts), with `counts` as in `window_steps`.

    A chunk holds as many whole planes as fit in `_STEP_BYTES`, at least
    one, inside one sample or as whole samples, like a strided step.
    """
    n, c, h, w = shape
    _, _, counts = _runs_and_counts(h, w, spec)
    ph, pw, (h_out, w_out) = spec.pad_h, spec.pad_w, (a.size for a in counts)
    hp, wp = h + 2 * ph, w + 2 * pw
    chunks = _plane_chunks(n, c, max(1, _STEP_BYTES // (hp * wp * 8)))
    per = max(ch.stop - ch.start for ch in chunks)

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
    inv = np.zeros((per, hp, wp))
    inv[:, :h_out, :w_out] = 1.0 / np.multiply.outer(*counts)
    invalid = invalid.reshape(len(cells), -1)[:, :outputs(per)]
    inv = inv.reshape(-1)[:outputs(per)]
    for a in (invalid, inv):
        a.setflags(write=False)
    walk = FlatWalk((ph, pw), (hp, wp), (h_out, w_out), per,
                    tuple((ch, outputs(ch.stop - ch.start)) for ch in chunks),
                    tuple(di * wp + dj for di, dj in cells), invalid, inv)
    return walk, counts


def window_walk(shape: tuple, spec: PoolSpec):
    """The walk that the forward and the backward take for `shape`:
    `flat_walk` at stride 1 when one padded plane fits `_STEP_BYTES` and at
    most a quarter of the outputs are junk, else `window_steps`. Both
    return (walk, counts)."""
    h, w = shape[2:]
    hp, wp = h + 2 * spec.pad_h, w + 2 * spec.pad_w
    if (spec.stride_h, spec.stride_w) == (1, 1) and hp * wp * 8 <= _STEP_BYTES:
        h_out, w_out = output_dims(h, w, spec)
        if 4 * h_out * w_out >= 3 * hp * wp:
            return flat_walk(shape, spec)
    return window_steps(shape, spec)
