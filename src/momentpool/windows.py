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
- `flat_walk`, for overlapping windows, stages every role in a chunk's
  zero-padded scratch, with the outputs in the scratch's own row layout,
  so each kernel cell is one contiguous block and each elementwise
  operation one ufunc call.
  - *Phases.* At stride (s_h, s_w) the polyphase decomposition splits the
    padded plane into s_h * s_w phases: phase (a, b) holds padded cell
    (t * s_h + a, u * s_w + b) at (t, u), in rows of W_q = W' + (eff_kw - 1)
    div s_w. The input and the gradient are staged phase-major, (s_h, s_w,
    planes, rows, W_q), and the maps and sums in one phase's (planes, rows,
    W_q). Output (r, c) sits at o = (plane * rows + r) * W_q + c and reads
    kernel cell (i, j) in phase ((i * d_h) mod s_h, (j * d_w) mod s_w) at
    o + ((i * d_h) div s_h) * W_q + (j * d_w) div s_w. At stride 1 there is
    one phase: the zero-padded planes themselves.
  - *Groups.* A group adds the sum of the cells of one `window_steps`
    step, a run's kernel rows as cut there, into the outputs. Its at most
    two cells per axis lie in distinct phases, and each is a step of its
    own, one kernel cell's block, as at stride 1. `add_sum` sums a group's
    blocks in pairs, (a + b) + (c + d), in work buffers shaped as a block,
    as numpy sums the strided block each kernel row first; the backward
    adds each cell's gradient alone, into a cell of its own. `flat_walk` is
    None where `_flat_groups` names a geometry it cannot match.
  - *Bands.* Where one plane's phases exceed `_STEP_BYTES`, a chunk is a
    band of one plane's output rows; it stages their phase rows and a halo
    of (eff_kh - 1) div s_h phase rows below them, the next band's first
    rows. A plane's bands run last to first. In the backward a halo row
    takes terms from both bands, the lower band's from earlier kernel
    cells: so a band starts its halo rows from the lower band's partial
    sums there, adds its own terms and copies out all its rows, its first
    rows again once the band above has completed them.
  - *Junk and padding.* A flat step's block covers its chunk's grid: every
    output row at all W_q columns and, between planes, their halo rows.
    Outputs in halo rows or past the last output column are junk, and a
    block may read past its phase, into the next one or the scratch's tail
    of (halo + 1) * W_q. A step's `span` holds the group's valid output
    rows and columns, those `_runs` gives it, cut to the chunk's rows;
    every other pair is junk or padding. A padding pair adds an exact +0.0:
    its cell is 0, `deviation` zeroes its deviation and its cell gradient
    is dropped; so every real output sees the strided walk's additions in
    its order, bit for bit. A junk output's sums start at NaN, and
    `add_sum` sums a group's pair of cells from the first less that start,
    so nothing done there warns or reaches a result; the maps read and built
    hold 0 there, and with its zeroed deviations its cell gradients add
    +0.0.
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
    and `win` the same slice broadcast against the block. A flat step's
    block is one kernel cell's contiguous (planes, rows, W_q) grid over a
    chunk's padded scratch, `out` and `win` take the whole of the chunk's
    equally shaped outputs, and `span` = (lo, hi, c0, c1) holds the output
    rows [lo, hi) and columns [c0, c1) whose pairs are valid; it is None on
    the strided walk, whose pairs all are."""

    out: tuple
    win: tuple
    offset: int
    shape: tuple
    strides: tuple
    span: tuple | None = None

    def block(self, arr: np.ndarray) -> np.ndarray:
        """The block as a view of `arr`, which must have the walked shape."""
        return np.ndarray(self.shape, np.float64, arr, self.offset, self.strides)


class Walk(NamedTuple):
    """A window walk, cached per shape and geometry by `window_walk`.

    `chunks` holds (planes, groups) pairs: the (samples, channels) index of
    a run of planes, inside one sample or of whole samples, or a flat
    walk's band, which adds its output rows; and the steps that complete
    every window there, as a tuple per group whose blocks the forward sums
    in pairs, (a + b) + (c + d): a strided step alone, a flat group's one,
    two or four one-cell steps in kernel-row order. `inv` is 1 / cell count
    in the layout the steps feed, read-only, formed here alone: `frames`
    hands its rows to the statistics and to the coefficient builders.
    `counts` is a read-only pair: the in-bounds kernel rows per output row
    and columns per output column, whose product is a window's cell count.
    `pad` is None on the strided walk. A flat walk, laid out as the module
    docstring says, has its (pad_h, pad_w), its scratch (s_h, s_w, planes,
    rows, W_q), its band halo in phase rows, and an `inv` over the largest
    chunk's grid, or a plane's where chunks are bands, with NaN at junk.
    """

    chunks: tuple
    inv: np.ndarray
    counts: tuple
    pad: tuple | None = None
    scratch: tuple = ()
    halo: int = 0


def _runs(size: int, out: int, k: int, s: int, d: int, p: int):
    """[output slice, first input index, first kernel index, cells] per run
    of kernel indices, in kernel order.

    Consecutive indices share a run while they share one in-bounds output
    range and their cells cannot collide: the range is one position, or the
    run's span (len-1)*d stays below the stride s. An index that no output
    holds in bounds is a run of its own, over an empty output slice.
    """
    runs, prev = [], None
    for i in range(k):
        lo, hi, cells = _span(size, p, s, i * d, 0, out)
        if lo == hi:
            prev = None
            runs.append([slice(0, 0), None, i, 1])
        elif prev and prev[0] == slice(lo, hi) and (hi - lo == 1 or prev[3] * d < s):
            prev[3] += 1
        else:
            prev = [slice(lo, hi), cells.start, i, 1]
            runs.append(prev)
    return runs


def _span(size: int, pad: int, s: int, a: int, start: int, stop: int):
    """(lo, hi, cells): the indices t in [start, stop) whose cell t*s + a -
    pad of a padded axis (phase a, or kernel index i at a = i*d) lies in the
    input, [lo, hi), and the slice of the input that holds those cells."""
    lo = max(start, -((a - pad) // s))
    hi = max(lo, min(stop, (size - 1 + pad - a) // s + 1))
    return lo, hi, slice(lo * s + a - pad, hi * s + a - pad, s)


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
        for out_slice, _, _, cells in runs:
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


def _cuts(rows: list, cols: list):
    """Each row run x column run pair of `_runs`, in order, with the cuts of
    its kernel rows that the walks' steps take: (first kernel row, rows) of
    as many rows as fit one plane's block in `_STEP_BYTES`, at least one."""
    for row, col in itertools.product(rows, cols):
        outputs = (row[0].stop - row[0].start) * (col[0].stop - col[0].start)
        step = max(1, _STEP_BYTES // max(1, outputs * col[3] * 8))
        yield row, col, [(r, min(step, row[3] - r)) for r in range(0, row[3], step)]


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
        """The steps of an (n, c, h, w) chunk, laid over its own buffer, each
        a group of its own."""
        strides = tuple(8 * s for s in (c * h * w, h * w, spec.stride_h * w,
                                        spec.stride_w, spec.dilation_h * w,
                                        spec.dilation_w))
        steps = []
        for (out_h, y0, _, kr), (out_w, x0, _, kc), cuts in _cuts(rows, cols):
            hw = (out_h.stop - out_h.start, out_w.stop - out_w.start)
            if not all(hw):
                continue  # kernel cells that no output holds in bounds
            run = hw[0] * hw[1] * kr * kc * 8  # one plane's block of the whole run
            blocks = _plane_chunks(n, c, max(1, _STEP_BYTES // run))
            for (bs, cs), (r0, n_r) in itertools.product(blocks, cuts):
                out = (bs, cs, out_h, out_w)
                cells = (n_r, kc)
                rank = 4 if cells == (1, 1) else 6
                offset = ((bs.start * c + cs.start) * h * w
                          + (y0 + r0 * spec.dilation_h) * w + x0) * 8
                planes = (bs.stop - bs.start, cs.stop - cs.start)
                steps.append((WindowStep(out, out + (None,) * (rank - 4), offset,
                                         (planes + hw + cells)[:rank], strides[:rank]),))
        return tuple(steps)

    inv = np.multiply.outer(*counts)
    np.divide(1.0, inv, out=inv)
    inv.setflags(write=False)
    chunks = tuple((ch, chunk_steps(*(s.stop - s.start for s in ch)))
                   for ch in _plane_chunks(n, c, max(1, _STEP_BYTES // inv.nbytes)))
    return Walk(chunks, inv, counts)


def _halo(spec: PoolSpec) -> tuple:
    """The phase rows and columns that a window reads past its output's own
    in the flat walk's layout."""
    return (spec.eff_kernel_h - 1) // spec.stride_h, (spec.eff_kernel_w - 1) // spec.stride_w


def _flat_groups(h: int, w: int, spec: PoolSpec) -> list | None:
    """The kernel cells that each flat step sums, in walk order, as (first
    kernel row, rows, first kernel column, columns, output rows, output
    columns): the cells of each `window_steps` step, and each kernel row or
    column that no output holds in bounds on its own, with the slices of
    outputs that hold them in bounds. None where the flat walk cannot give
    the strided walk's sums: a run of more than two cells on an axis; two
    cells of one phase (a run over one output, whose dilation is a multiple
    of the stride), whose block would hold a cell twice; or a 2x2 step over
    one output column, whose four cells numpy adds in sequence, not each
    kernel row first, as it does where output columns lie between them."""
    rows, cols, _ = _runs_and_counts(h, w, spec)
    one_phase = spec.dilation_h % spec.stride_h == 0, spec.dilation_w % spec.stride_w == 0
    groups = []
    for (out_h, _, i, _), (out_w, _, j, kc), cuts in _cuts(rows, cols):
        for r, n_r in cuts:
            if (max(n_r, kc) > 2 or (n_r == 2 and one_phase[0]) or (kc == 2 and one_phase[1])
                    or (n_r, kc, out_w.stop - out_w.start) == (2, 2, 1)):
                return None
            groups.append((i + r, n_r, j, kc, out_h, out_w))
    return groups


def flat_walk(shape: tuple, spec: PoolSpec) -> Walk | None:
    """The flat walk for an (N, C, H, W) `shape`, laid out as the module
    docstring says; None where `_flat_groups` refuses the geometry.

    A chunk holds as many planes as fit their phases in `_STEP_BYTES`, at
    least one, or where one plane does not fit, a band of as many output
    rows as fit with their halo, at least one. It has a step per cell of
    each group, in kernel-row order, whose block is the chunk's grid; its
    group's steps share one `span`, the group's output slices cut to the
    chunk's rows.
    """
    n, c, h, w = shape
    _, _, counts = _runs_and_counts(h, w, spec)
    groups = _flat_groups(h, w, spec)
    if groups is None:
        return None
    h_out, w_out = (a.size for a in counts)
    sh, sw, dh, dw = spec.stride_h, spec.stride_w, spec.dilation_h, spec.dilation_w
    halo, halo_w = _halo(spec)
    hq, wq = h_out + halo, w_out + halo_w
    row_bytes = sh * sw * wq * 8  # one phase row of every phase
    if hq * row_bytes <= _STEP_BYTES:
        chunks, rows = _plane_chunks(n, c, _STEP_BYTES // (hq * row_bytes)), h_out
    else:
        rows = max(1, _STEP_BYTES // row_bytes - halo)
        rows = -(-h_out // -(-h_out // rows))
        bands = [slice(r, min(h_out, r + rows)) for r in range(0, h_out, rows)]
        chunks = [(*planes, band) for planes in _plane_chunks(n, c, 1)
                  for band in bands[::-1]]
    per = max(_planes(ch[:2]) for ch in chunks)
    hb = rows + halo
    phase = per * hb * wq

    def offset(i: int, j: int) -> int:
        (qi, a), (qj, b) = divmod(i * dh, sh), divmod(j * dw, sw)
        return 8 * ((a * sw + b) * phase + qi * wq + qj)

    inv = np.full((per, hq, wq), np.nan)
    np.multiply(counts[0][:, None], counts[1], out=inv[:, :h_out, :w_out])
    np.divide(1.0, inv, out=inv)
    inv.setflags(write=False)
    whole, strides = (slice(None),), (8 * hb * wq, 8 * wq, 8)

    @lru_cache(maxsize=None)
    def steps(planes: int, start: int, rows: int) -> tuple:
        """The chunk's one-cell steps, a tuple per group."""
        grid = (planes, rows + halo if planes > 1 else rows, wq)

        def cut(out: slice) -> tuple:  # a group's output rows in the band
            return tuple(min(max(0, t - start), rows) for t in (out.start, out.stop))
        return tuple(tuple(WindowStep(whole, whole, offset(i + r, j + q), grid, strides,
                                      cut(out_h) + (out_w.start, out_w.stop))
                           for r in range(kr) for q in range(kc))
                     for i, kr, j, kc, out_h, out_w in groups)

    return Walk(tuple((ch, steps(_planes(ch[:2]), *(
        (ch[2].start, ch[2].stop - ch[2].start) if len(ch) > 2 else (0, h_out))))
        for ch in chunks), inv, counts, (spec.pad_h, spec.pad_w), (sh, sw, per, hb, wq),
        halo)


@lru_cache(maxsize=64)
def window_walk(shape: tuple, spec: PoolSpec) -> Walk:
    """The walk that the forward and the backward take for `shape`, cached:
    `flat_walk` where windows overlap on some axis, at most a quarter of a
    phase plane's outputs are junk and it accepts the geometry; else
    `window_steps`."""
    h_out, w_out = output_dims(*shape[2:], spec)
    halo_h, halo_w = _halo(spec)
    flat = ((spec.eff_kernel_h > spec.stride_h or spec.eff_kernel_w > spec.stride_w)
            and 4 * h_out * w_out >= 3 * (h_out + halo_h) * (w_out + halo_w))
    return flat and flat_walk(shape, spec) or window_steps(shape, spec)


def cell_sum(a: np.ndarray) -> np.ndarray:
    """Sum over a strided block's two kernel axes; a one-cell block or a
    flat block has none. Two cells, or 2x2 over several output columns, are
    added in pairs each kernel row first, as numpy sums them and as the
    flat walk adds its blocks, so an invalid sum warns in `add` on both
    walks; numpy's `sum` would warn in `reduce`."""
    if a.ndim == 6 and a.shape[4] * a.shape[5] == 2:
        return np.add(a[..., 0, 0], a[..., -1, -1])
    if a.ndim == 6 and a.shape[3:] != (1, 2, 2) and a.shape[4:] == (2, 2):
        return np.add(a[..., 0, 0], a[..., 0, 1]) + np.add(a[..., 1, 0], a[..., 1, 1])
    return a.sum(axis=(4, 5)) if a.ndim == 6 else a


def add_sum(acc: np.ndarray, blocks: list, work, start=None) -> None:
    """Add the sum of a group's 1, 2 or 4 blocks into `acc` in pairs, (a +
    b) + (c + d), as `cell_sum` adds a 2x2 block, the pairs' sums into the
    `work` buffers, which may be the blocks'; given the sums' `start`, each
    pair from its first block less it (*Junk* in the module docstring)."""
    if start is not None:
        blocks[:-1:2] = [np.subtract(b, start, out=e) for b, e in zip(blocks[:-1:2], work)]
    while len(blocks) > 1:
        blocks = [np.add(a, b, out=w) for a, b, w in zip(blocks[::2], blocks[1::2], work)]
    acc += cell_sum(blocks[0])


def deviation(step: WindowStep, x: np.ndarray, mean: np.ndarray, out) -> np.ndarray:
    """The step's cells less their window means, into `out`, or into a fresh
    array in the block's own layout when `out` is None (the kernel-axis sums
    then run in that layout's order). Each invalid pair's deviation is
    zeroed, outside a flat step's span, so it adds an exact +0.0 when raised
    and never overflows."""
    dev = np.subtract(step.block(x), mean[step.win], out=out)
    if step.span is not None:
        lo, hi, c0, c1 = step.span
        dev[:, :lo] = dev[:, hi:] = dev[:, lo:hi, :c0] = dev[:, lo:hi, c1:] = 0.0
    return dev


def frames(walk: Walk, x4: np.ndarray, maps=(), fill=None, sums=(), grad=None,
           work: int = 2):
    """Each chunk of `walk` as (groups, x, maps, grad, inv, work), staged as
    the module docstring says: the chunk's input, its planes of the `maps`,
    the k maps that `fill` = (k, f) builds by f(planes, out, pair, inv)
    into `out`, its zeroed planes of the `sums` and of the gradient to add
    into, 1 / cell count, and `work` buffers shaped as its flat steps'
    blocks, or Nones on the strided walk. f reads `inv`, the walk's 1 / cell
    count over the built maps' rows and columns, and works in `pair`, two
    contiguous buffers of a built map's shape: on a flat walk the first two
    work buffers, idle while f runs (so `work` >= 2 where `fill` is given),
    else a fresh pair that is freed before the chunk's steps run."""
    k_fill, build = fill or (0, None)
    if walk.pad is None:
        per = max(_planes(planes) for planes, _ in walk.chunks)
        # an output channel's planes of several samples are strided, which
        # slows every step's add: such chunks, which the first chunk (from
        # sample 0) shows, add their sums in buffers
        spill = len(sums) if walk.chunks[0][0][0].stop > 1 else 0
        bufs = [np.empty((per,) + walk.inv.shape) for _ in range(k_fill + spill)]
        for planes, groups in walk.chunks:
            x, g = x4[planes], None if grad is None else grad[planes]
            shape = x.shape[:2] + walk.inv.shape
            chunk = [b[:_planes(planes)].reshape(shape) for b in bufs]
            if k_fill:
                build(planes, chunk[:k_fill], np.empty((2, *shape)), walk.inv)
            acc = chunk[k_fill:] if spill else [a[planes] for a in sums]
            for a in acc if g is None else (*acc, g):
                a.fill(0.0)
            yield groups, x, [*(m[planes] for m in maps), *chunk[:k_fill], *acc], g, \
                walk.inv, (None,) * work
            for a, src in zip(sums, chunk[k_fill:]):
                a[planes] = src
        return
    (ph, pw), (sh, sw, per, hb, wq), halo = walk.pad, walk.scratch, walk.halo
    h, w = x4.shape[2:]
    h_out, w_out = (sums or maps)[0].shape[2:]
    k_read = len(maps) + k_fill
    k = k_read + len(sums)
    layers = np.zeros((k, per, hb, wq))  # maps, built maps, then sums
    # x and the gradient, with the tail that a block reads past the last phase
    tail = (halo + 1) * wq
    cells_flat = np.zeros((1 + (grad is not None), sh * sw * per * hb * wq + tail))
    cells = cells_flat[:, :-tail].reshape(len(cells_flat), sh, sw, per, hb, wq)
    g_flat = None if grad is None else cells_flat[1]
    runs = np.empty((work, per * hb * wq))
    phases = list(itertools.product(range(sh), range(sw)))
    cols = [_span(w, pw, sw, b, 0, wq) for b in range(sw)]
    for planes, groups in walk.chunks:
        x = x4[planes[:2]]
        band = planes[2] if len(planes) > 2 else slice(0, h_out)
        q, r0, r = _planes(planes[:2]), band.start, band.stop - band.start
        rows = [_span(h, ph, sh, a, r0, r0 + r + halo) for a in range(sh)]
        for a, b in phases:
            (lo, hi, ys), (c0, c1, xs), dst = rows[a], cols[b], cells[0, a, b, :q]
            dst[:, :lo - r0] = 0.0
            dst[:, hi - r0:r + halo] = 0.0
            dst[:, lo - r0:hi - r0, c0:c1] = x.reshape(q, h, w)[:, ys, xs]
        shape = (*x.shape[:2], r, w_out)
        inv = walk.inv[:q, r0:r0 + groups[0][0].shape[1]]  # over the steps' grid
        outs = layers[:, :q, :r, :w_out].reshape((k, *shape))
        for dst, m in zip(outs, maps):
            dst[...] = m[planes]
        if k_fill:
            build(planes, outs[len(maps):k_read],
                  runs[:2, :math.prod(shape)].reshape((2, *shape)), inv[0, :r, :w_out])
        np.multiply(inv.reshape(-1), 0.0, out=layers.reshape(k, -1)[k_read:, :inv.size])
        if grad is not None:
            if band.stop < h_out:  # carry the halo rows of the band below
                cells[1, :, :, :q, r:r + halo] = cells[1, :, :, :q, :halo]
                cells[1, :, :, :q, :r] = 0.0
            else:
                cells[1].fill(0.0)
        yield groups, cells_flat[0], list(layers[:, :q, :inv.shape[1]]), g_flat, inv, \
            runs[:, :inv.size].reshape(work, *inv.shape)
        for a, src in zip(sums, outs[k_read:]):
            a[planes] = src
        if grad is not None:
            g = grad[planes[:2]].reshape(q, h, w)
            # no window reads the cells past the last phase row or column
            g[:, (h_out + halo) * sh - ph:] = 0.0
            g[:, :, wq * sw - pw:] = 0.0
            for a, b in phases:  # the band above, which runs next, completes the halo
                (lo, hi, ys), (c0, c1, xs) = rows[a], cols[b]
                g[:, ys, xs] = cells[1, a, b, :q, lo - r0:hi - r0, c0:c1]
