"""Deterministic synthetic test tensors.

Patterns:
    checkerboard  alternates a, b over (h + w) parity, a at (0, 0),
                  identical in every sample and channel
    solid         constant fill a
    ramp          element at flat index j has value j
    uniform-noise uniform [a, b) draws from the pinned generator (rng.py),
                  filled in row-major order
"""

from __future__ import annotations

import numpy as np

from .rng import Xoshiro256pp
from .tensor import Tensor, nchw_shape

PATTERNS = ("checkerboard", "solid", "ramp", "uniform-noise")


def checkerboard(shape, a: float = 1.0, b: float = 0.0) -> Tensor:
    full = nchw_shape(shape)
    h_idx = np.arange(full[2])[:, None]
    w_idx = np.arange(full[3])[None, :]
    plane = np.where((h_idx + w_idx) % 2 == 0, float(a), float(b))
    return Tensor(shape, np.broadcast_to(plane, full))


def solid(shape, a: float) -> Tensor:
    return Tensor(shape, np.full(int(np.prod(shape)), float(a)))


def ramp(shape) -> Tensor:
    return Tensor(shape, np.arange(int(np.prod(shape)), dtype=np.float64))


def uniform_noise(shape, a: float, b: float, seed: int,
                  stream: int = 0) -> Tensor:
    gen = Xoshiro256pp(seed, stream=stream)
    return Tensor(shape, gen.fill_uniform(int(np.prod(shape)), a, b))


def make_pattern(name: str, shape, a: float = 1.0, b: float = 0.0,
                 seed: int | None = None) -> Tensor:
    if name == "checkerboard":
        return checkerboard(shape, a, b)
    if name == "solid":
        return solid(shape, a)
    if name == "ramp":
        return ramp(shape)
    if name == "uniform-noise":
        if seed is None:
            raise ValueError("uniform-noise requires a seed")
        return uniform_noise(shape, a, b, seed)
    raise ValueError(f"unknown pattern {name!r}; choose from {PATTERNS}")
