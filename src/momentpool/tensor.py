"""Dense float64 tensors and their bit-exact on-disk format.

Tensors are immutable, row-major, and at most rank 4. Shapes are read as
(N, C, H, W) with absent leading dimensions treated as 1, so shape (3, 8, 8)
means one sample with 3 channels.

File format (the only wire format in this project):

    header:  one UTF-8 line, compact JSON: {"dtype":"f64","shape":[...]}\\n
    payload: raw little-endian IEEE-754 binary64 values, row-major,
             exactly 8 * prod(shape) bytes, starting right after the newline

The format round-trips bit-exactly, including NaN and infinity payloads;
non-finite values are legal tensor contents (they are diagnostic outputs of
the training-stability experiment) and are detected with `has_nonfinite`,
never rejected at construction.
"""

from __future__ import annotations

import json
import math
import numbers
import os

import numpy as np

_HEADER_DTYPE = "f64"


class TensorFileError(ValueError):
    """Raised for malformed tensor files."""


def _is_int(value) -> bool:
    """True for Python and numpy integers; bools are rejected."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _is_real(value) -> bool:
    """True for Python and numpy real numbers; bools are rejected."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def nchw_shape(shape) -> tuple[int, int, int, int]:
    """`shape` padded to rank 4 after the tensor rule: 1..4 int extents >= 1."""
    dims = tuple(shape)
    if not 1 <= len(dims) <= 4:
        raise ValueError(f"shape must have 1..4 extents, got {dims}")
    if not all(_is_int(s) and s >= 1 for s in dims):
        raise ValueError(f"shape extents must be ints >= 1, got {dims}")
    return (1,) * (4 - len(dims)) + tuple(int(s) for s in dims)


class Tensor:
    """Immutable dense float64 array with explicit shape bookkeeping."""

    __slots__ = ("shape", "data", "__weakref__")

    def __init__(self, shape, data):
        self._hold(shape, np.array(data, dtype=np.float64, copy=True))

    @classmethod
    def _adopt(cls, shape, arr: np.ndarray) -> "Tensor":
        """Wrap an array the caller has just allocated, without copying it.

        Only a non-float64 or non-contiguous array is converted. The array
        is marked read-only, so the caller's own reference cannot write
        into the tensor either.
        """
        arr = np.ascontiguousarray(arr, dtype=np.float64)
        arr.setflags(write=False)
        t = cls.__new__(cls)
        t._hold(shape, arr)
        return t

    def _hold(self, shape, arr: np.ndarray) -> None:
        full = nchw_shape(shape)
        shape = full[4 - len(shape):]
        arr = arr.reshape(-1)
        size = math.prod(full)
        if arr.size != size:
            raise ValueError(
                f"shape {shape} implies {size} elements, data has {arr.size}"
            )
        arr.setflags(write=False)
        object.__setattr__(self, "shape", shape)
        object.__setattr__(self, "data", arr)

    def __setattr__(self, name, value):
        raise AttributeError("Tensor is immutable")

    def __reduce__(self):
        """Copy and pickle through the public constructor, not slot state."""
        return Tensor, (self.shape, self.data)

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def nchw(self) -> np.ndarray:
        """Read-only rank-4 view with leading dimensions padded to 1."""
        return self.data.reshape(nchw_shape(self.shape))

    @property
    def array(self) -> np.ndarray:
        """Read-only view with the shape as stored."""
        return self.data.reshape(self.shape)

    def __eq__(self, other):
        if not isinstance(other, Tensor):
            return NotImplemented
        return self.shape == other.shape and self.data.tobytes() == other.data.tobytes()

    def __hash__(self):
        return hash((self.shape, self.data.tobytes()))

    def __repr__(self):
        return f"Tensor(shape={list(self.shape)}, size={self.size})"


def has_nonfinite(t: Tensor) -> bool:
    """True iff any element is NaN or +/-infinity."""
    return not bool(np.isfinite(t.data).all())


def header_bytes(shape) -> bytes:
    """Canonical header line for a shape, newline included."""
    doc = {"dtype": _HEADER_DTYPE, "shape": [int(s) for s in shape]}
    return (json.dumps(doc, separators=(",", ":")) + "\n").encode("utf-8")


def tensor_write(t: Tensor, path: str | os.PathLike) -> None:
    """Write `t` so that `tensor_read` recovers it bit-exactly."""
    payload = t.data.astype("<f8", copy=False)  # written from its buffer
    with open(path, "wb") as fh:
        fh.write(header_bytes(t.shape))
        fh.write(payload)


def tensor_read(path: str | os.PathLike) -> Tensor:
    """Read a tensor file, validating header and payload length."""
    with open(path, "rb") as fh:
        raw = fh.read()
    newline = raw.find(b"\n")
    if newline < 0:
        raise TensorFileError("missing header newline")
    try:
        header = json.loads(raw[:newline].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise TensorFileError(f"malformed header JSON: {exc}") from exc
    if not isinstance(header, dict):
        raise TensorFileError("header must be a JSON object")
    dtype = header.get("dtype")
    if dtype != _HEADER_DTYPE:
        raise TensorFileError(f"unsupported dtype {dtype!r}, expected 'f64'")
    shape = header.get("shape")
    try:
        nchw_shape(shape if isinstance(shape, list) else ())  # else: rank 0
    except ValueError as exc:
        raise TensorFileError(f"invalid shape in header: {shape!r}") from exc
    size = math.prod(shape)
    payload = memoryview(raw)[newline + 1 :]  # no copy of the payload bytes
    if len(payload) != 8 * size:
        raise TensorFileError(
            f"payload length mismatch: expected {8 * size} bytes, got {len(payload)}"
        )
    # `raw` is immutable and owned here, so the tensor can rest on it
    return Tensor._adopt(shape, np.frombuffer(payload, dtype="<f8"))
