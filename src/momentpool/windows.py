"""Pooling-window geometry and the window walk shared by forward and backward.

Window placement follows the standard convolution rule: with input extent
`in`, padding `p`, dilation `d`, kernel `k` and stride `s`, the output
extent is floor((in + 2p - d*(k-1) - 1) / s) + 1. Geometry that would yield
a non-positive output extent is rejected rather than producing empty
tensors.

`window_steps` is the one window walk, shared by forward and backward: a
fixed sequence of strided blocks of the unpadded input that visit every
in-bounds (window, kernel cell) pair exactly once, never a padding cell,
and no input cell twice within one block, so the backward can add a block
of cell gradients into the input gradient with a plain `+=`.
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


@lru_cache(maxsize=64)
def window_steps(shape: tuple, spec: PoolSpec):
    """The walk for an (N, C, H, W) `shape`, cached: (steps, counts).

    Each step holds as many whole planes and kernel rows of one run as fit
    in `_STEP_BYTES`, at least one of each. `counts` is a read-only pair: the
    in-bounds kernel rows per output row and columns per output column,
    whose product is a window's cell count; kept per axis for a small cache.
    """
    n, c, h, w = shape
    planes = n * c
    h_out, w_out = output_dims(h, w, spec)
    rows = _runs(h, h_out, spec.kernel_h, spec.stride_h, spec.dilation_h, spec.pad_h)
    cols = _runs(w, w_out, spec.kernel_w, spec.stride_w, spec.dilation_w, spec.pad_w)
    counts = np.zeros(h_out), np.zeros(w_out)
    for count, runs in zip(counts, (rows, cols)):
        for out_slice, _, cells in runs:
            count[out_slice] += cells
        count.setflags(write=False)
    item = np.dtype(np.float64).itemsize
    strides = tuple(item * s for s in (h * w, spec.stride_h * w, spec.stride_w,
                                       spec.dilation_h * w, spec.dilation_w))
    steps = []
    for (out_h, y0, kr), (out_w, x0, kc) in itertools.product(rows, cols):
        hw = (out_h.stop - out_h.start, out_w.stop - out_w.start)
        row = hw[0] * hw[1] * kc * item  # one plane's kernel row
        per_p = max(1, min(planes, _STEP_BYTES // (row * kr)))
        per_r = kr if per_p > 1 else max(1, _STEP_BYTES // row)
        for p0, r0 in itertools.product(range(0, planes, per_p), range(0, kr, per_r)):
            out = (slice(p0, min(planes, p0 + per_p)), out_h, out_w)
            cells = (min(per_r, kr - r0), kc)
            rank = 3 if cells == (1, 1) else 5
            offset = p0 * strides[0] + ((y0 + r0 * spec.dilation_h) * w + x0) * item
            steps.append(WindowStep(out, out + (None,) * (rank - 3), offset,
                                    ((out[0].stop - p0,) + hw + cells)[:rank],
                                    strides[:rank]))
    return tuple(steps), counts
