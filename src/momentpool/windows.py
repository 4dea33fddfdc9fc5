"""Pooling-window geometry, the strided window view and its scatter adjoint.

Window placement follows the standard convolution rule: with input extent
`in`, padding `p`, dilation `d`, kernel `k` and stride `s`, the output
extent is floor((in + 2p - d*(k-1) - 1) / s) + 1. Geometry that would yield
a non-positive output extent is rejected rather than producing empty
tensors.

`window_view` exposes every window as a strided (N, C, H', W', kh, kw)
view; `scatter_windows` is its adjoint and scatter-adds per-window values
back onto the input grid, discarding contributions that fall on padding.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


class GeometryError(ValueError):
    """Raised when a pooling geometry is invalid for a given input size."""


def _is_int(value) -> bool:
    """True for Python and numpy integers; bools are rejected."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


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


def window_view(x4: np.ndarray, spec: PoolSpec, pad_value: float = 0.0):
    """Strided window view of a rank-4 array.

    Returns (view, valid, counts):
      view   (N, C, H', W', kh, kw) window values, padding filled with
             `pad_value`; a view into a padded copy, do not write to it.
      valid  (H', W', kh, kw) bool, False where the window cell lies on
             padding, or None when there is no padding.
      counts (H', W') number of in-bounds cells per window (float64).
    """
    n, c, h, w = x4.shape
    h_out, w_out = output_dims(h, w, spec)
    ph, pw = spec.pad_h, spec.pad_w
    if ph or pw:
        xp = np.pad(x4, ((0, 0), (0, 0), (ph, ph), (pw, pw)),
                    constant_values=pad_value)
    else:
        xp = x4
    sw = sliding_window_view(xp, (spec.eff_kernel_h, spec.eff_kernel_w),
                             axis=(2, 3))
    view = sw[
        :, :,
        : (h_out - 1) * spec.stride_h + 1 : spec.stride_h,
        : (w_out - 1) * spec.stride_w + 1 : spec.stride_w,
        :: spec.dilation_h,
        :: spec.dilation_w,
    ]
    if ph == 0 and pw == 0:
        counts = np.full((h_out, w_out), float(spec.window_size))
        return view, None, counts
    # padded coordinate of window cell (i, j) at output position (oh, ow)
    rows = (np.arange(h_out) * spec.stride_h)[:, None] + \
        (np.arange(spec.kernel_h) * spec.dilation_h)[None, :]
    cols = (np.arange(w_out) * spec.stride_w)[:, None] + \
        (np.arange(spec.kernel_w) * spec.dilation_w)[None, :]
    valid_h = (rows >= ph) & (rows < h + ph)
    valid_w = (cols >= pw) & (cols < w + pw)
    valid = valid_h[:, None, :, None] & valid_w[None, :, None, :]
    counts = valid.sum(axis=(2, 3)).astype(np.float64)
    return view, valid, counts


def scatter_windows(gwin: np.ndarray, spec: PoolSpec, h: int, w: int) -> np.ndarray:
    """Scatter-add a (N, C, H', W', kh, kw) gradient block onto (N, C, H, W).

    For a fixed kernel offset the target slices never overlap, so each
    offset is one vectorized add; accumulation order over offsets is fixed
    (raster), keeping results bit-identical run to run.
    """
    n, c, h_out, w_out = gwin.shape[:4]
    ph, pw = spec.pad_h, spec.pad_w
    buf = np.zeros((n, c, h + 2 * ph, w + 2 * pw))
    h_stop = (h_out - 1) * spec.stride_h + 1
    w_stop = (w_out - 1) * spec.stride_w + 1
    for i in range(spec.kernel_h):
        oi = i * spec.dilation_h
        for j in range(spec.kernel_w):
            oj = j * spec.dilation_w
            buf[:, :,
                oi : oi + h_stop : spec.stride_h,
                oj : oj + w_stop : spec.stride_w] += gwin[:, :, :, :, i, j]
    if ph or pw:
        return buf[:, :, ph : ph + h, pw : pw + w]
    return buf
