"""Normalization strategies for high-order moment channels.

Three interchangeable rescalings keep third and fourth moment channels in a
trainable range; all share a single epsilon guard so no division ever sees
a denominator below eps.

layer:  y = (x - mean(x)) / sqrt(var(x) + eps), statistics over the group
max:    y = x / (max|x| + eps), outputs bounded to [-1, 1]
batch:  the layer standardization per channel, over batch and spatial
        axes, with running state updated at momentum 0.1 during training;
        eval mode standardizes by the running state instead

All three forwards run through one kernel, `_normalized(kind, ...)`, which
returns the output y and its per-group divisor (peak + eps for max norm,
sqrt(var + eps) otherwise). `smp` normalizes its output in place and saves
both for its backward; the public functions return fresh arrays.

The one vector-Jacobian product is taken from y and the divisor alone
(Ioffe & Szegedy 2015): u / divisor for max norm and eval-mode batch norm,
and (u - mean(u) - y * mean(u * y)) / divisor per group for layer norm and
training-mode batch norm: `_vjp_terms` then `_vjp_apply`, which `smp` runs
per chunk. `norm_backward` is the kernel then both. Max norm deliberately
treats the divisor as a constant: the true derivative is discontinuous at
the argmax, so the gradient flows through the numerator only
(straight-through subgradient), and that surrogate is what the gradient
checks verify.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import windows
from .tensor import _is_real

DEFAULT_EPS = 1e-5


@dataclass
class BatchNormState:
    """Running per-channel statistics; owned by a single training loop.

    `mean` and `var` are stored as float64 1-D arrays of one length, finite,
    with `var` >= 0; `momentum` is a real number in [0, 1].
    """

    mean: np.ndarray
    var: np.ndarray
    momentum: float = 0.1

    def __post_init__(self):
        mean, var = (np.asarray(a, dtype=np.float64) for a in (self.mean, self.var))
        if not (mean.ndim == 1 and mean.shape == var.shape
                and np.isfinite([mean, var]).all() and (var >= 0).all()):
            raise ValueError(f"BatchNormState needs finite 1-D mean and var of "
                             f"one length, var >= 0; got {mean!r} and {var!r}")
        if not (_is_real(self.momentum) and 0 <= self.momentum <= 1):
            raise ValueError(f"BatchNormState momentum must be a real number "
                             f"in [0, 1], got {self.momentum!r}")
        self.mean, self.var = mean, var

    @classmethod
    def fresh(cls, channels: int, momentum: float = 0.1) -> "BatchNormState":
        return cls(mean=np.zeros(channels), var=np.ones(channels),
                   momentum=momentum)


def _by_groups(reduce, x: np.ndarray, axis, *more):
    """reduce(x, *more), a reduction over `axis` that keeps it, over chunks
    of whole groups where each group lies inside one sample, an int `axis`
    > 0; `more` are arrays of x's shape. The chunks are
    `windows._plane_chunks` over x's first two axes: whole samples, or runs
    of one sample along axis 1, each of at most `windows._STEP_BYTES` of x
    and at least one index of axis 1, and whole samples where `axis` is 1.
    A group is reduced whole, along the same axis in the same order, so the
    bits equal reduce(x, *more)'s."""
    if not (isinstance(axis, int) and axis > 0):
        return reduce(x, *more)
    per = max(1, windows._STEP_BYTES // max(1, x[:1, :1].nbytes))
    chunks = windows._plane_chunks(len(x), x.shape[1],
                                   max(per, x.shape[1]) if axis == 1 else per)
    if len(chunks) == 1:
        return reduce(x, *more)
    out = np.empty(x.shape[:axis] + (1,) + x.shape[axis + 1:])
    for part in chunks:
        out[part] = reduce(*(a[part] for a in (x, *more)))
    return out


def _group_stats(x: np.ndarray, axis, out=None):
    """(x - mean, mean, var): x less its group means, written into `out` when
    given, and the group mean and population variance, kept broadcastable
    against x. The variance is the mean square of those deviations, over
    chunks of whole groups (`_by_groups`), so its squares are chunk-sized
    where the groups lie inside one sample; it has x.var's bits, as x.var's
    own mean has x.mean's."""
    mean = x.mean(axis=axis, keepdims=True)
    out = np.subtract(x, mean, out=out)

    def mean_square(d):
        total = np.multiply(d, d).sum(axis=axis, keepdims=True)
        return np.divide(total, d.size // max(1, total.size), out=total)
    return out, mean, _by_groups(mean_square, out, axis)


def _batch_axes(x: np.ndarray) -> tuple[int, ...]:
    """Batch and spatial axes of a (N, C, ...) block, for training mode."""
    if x.shape[0] < 2:
        raise ValueError("batch normalization in training mode needs batch size >= 2")
    return (0,) + tuple(range(2, x.ndim))


def _running_stats(state: BatchNormState | None, x: np.ndarray):
    """The state's (mean, var), shaped to broadcast over x's channel axis."""
    if state is None:
        raise ValueError("eval-mode batch normalization needs running state")
    if state.mean.shape != x.shape[1:2]:  # mean and var share one shape
        raise ValueError(f"BatchNormState must hold {x.shape[1]} channels to "
                         f"match the input, got shape {state.mean.shape}")
    shape = (1, -1) + (1,) * (x.ndim - 2)
    return state.mean.reshape(shape), state.var.reshape(shape)


def _normalized(kind: str, x: np.ndarray, eps: float, axis=None,
                state: BatchNormState | None = None, training: bool = True,
                out=None):
    """(y, divisor): the `kind` normalization of float64 `x`, written into
    `out` when given, and the per-group divisor, broadcastable against x.

    `out` may be `x` itself: the means are read before it is written, and
    the variances from the deviations written there.
    """
    if kind == "max":
        divisor = _by_groups(lambda part: np.abs(part).max(axis=axis, keepdims=True),
                             x, axis) + eps
        return np.divide(x, divisor, out=out), divisor
    if kind == "layer":
        out, _, var = _group_stats(x, axis, out)
    elif kind != "batch":
        raise ValueError(f"unknown normalization kind {kind!r}")
    elif not training:
        mean, var = _running_stats(state, x)
        out = np.subtract(x, mean, out=out)
    else:
        old = None if state is None else _running_stats(state, x)  # checked first
        out, mean, var = _group_stats(x, _batch_axes(x), out)
        if old is not None:
            m = state.momentum
            state.mean = ((1.0 - m) * old[0] + m * mean).reshape(-1)
            state.var = ((1.0 - m) * old[1] + m * var).reshape(-1)
    divisor = np.sqrt(var + eps)
    out /= divisor
    return out, divisor


def _vjp_terms(kind: str, y: np.ndarray, divisor, upstream: np.ndarray,
               axis=None, training: bool = True) -> tuple:
    """The VJP's group terms at output `y` and divisor `divisor` for upstream
    weights of y's shape: (divisor,) where it is u / divisor, else (divisor,
    mean(u), mean(u * y)), u * y formed over chunks of whole groups
    (`_by_groups`)."""
    if kind == "max" or (kind == "batch" and not training):
        return (divisor,)
    if kind == "batch":
        axis = _batch_axes(y)
    return divisor, upstream.mean(axis, keepdims=True), _by_groups(
        lambda u, v: (u * v).mean(axis, keepdims=True), upstream, axis, y)


def _vjp_apply(upstream: np.ndarray, y: np.ndarray, divisor, mean_u=None,
               mean_uy=None, out=None, tmp=None) -> np.ndarray:
    """The VJP's elementwise rest, on any block with `_vjp_terms` broadcast,
    written into `out` with y * mean(u * y) in `tmp`, each a fresh array
    where None."""
    if mean_u is not None:
        upstream = out = np.subtract(upstream, mean_u, out=out)
        upstream -= np.multiply(y, mean_uy, out=tmp)
    return np.divide(upstream, divisor, out=out)


def layer_norm(x: np.ndarray, eps: float = DEFAULT_EPS, axis=None) -> np.ndarray:
    """Standardize over the group axes (all elements when axis is None)."""
    return _normalized("layer", np.asarray(x, dtype=np.float64), eps, axis)[0]


def max_norm(x: np.ndarray, eps: float = DEFAULT_EPS, axis=None) -> np.ndarray:
    """Scale the group by its peak magnitude; outputs lie in [-1, 1]."""
    return _normalized("max", np.asarray(x, dtype=np.float64), eps, axis)[0]


def batch_norm(x: np.ndarray, state: BatchNormState | None = None,
               training: bool = True, eps: float = DEFAULT_EPS) -> np.ndarray:
    """Per-channel normalization of a (N, C, ...) block.

    Training mode is the `layer_norm` standardization over the batch and
    spatial axes (population variance) and, when a state is supplied, folds
    the batch statistics into the running estimates. Eval mode normalizes by
    the running state and requires one.
    """
    return _normalized("batch", np.asarray(x, dtype=np.float64), eps,
                       state=state, training=training)[0]


def norm_backward(kind: str, x: np.ndarray, upstream: np.ndarray,
                  eps: float = DEFAULT_EPS, axis=None,
                  state: BatchNormState | None = None,
                  training: bool = True) -> np.ndarray:
    """VJP of the `kind` normalization at `x` for the given upstream weights.

    `axis` selects the groups of layer and max norm; batch norm always
    reduces over the batch and spatial axes, and in eval mode reads `state`.
    """
    y, divisor = _normalized(kind, np.asarray(x, dtype=np.float64), eps, axis,
                             None if training else state, training)
    u = np.asarray(upstream, dtype=np.float64)
    return _vjp_apply(u, y, *_vjp_terms(kind, y, divisor, u, axis, training))
