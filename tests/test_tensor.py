"""Tensor construction, queries and the bit-exact file format."""

import json
import math

import numpy as np
import pytest

from momentpool.tensor import (
    Tensor,
    TensorFileError,
    has_nonfinite,
    header_bytes,
    tensor_read,
    tensor_write,
)


def test_minimal_wellformed_file(tmp_path):
    p = tmp_path / "zero.tensor"
    p.write_bytes(b'{"dtype":"f64","shape":[1]}\n' + bytes(8))
    t = tensor_read(p)
    assert t.shape == (1,)
    assert t.data[0] == 0.0


def test_payload_length_mismatch(tmp_path):
    p = tmp_path / "short.tensor"
    p.write_bytes(b'{"dtype":"f64","shape":[1]}\n' + bytes(7))
    with pytest.raises(TensorFileError, match="payload length mismatch"):
        tensor_read(p)


def test_roundtrip_100_random_tensors_bit_exact(tmp_path):
    """write(read(write(t))) is byte-identical for random tensors."""
    rng = np.random.default_rng(42)
    for i in range(100):
        rank = int(rng.integers(1, 5))
        shape = tuple(int(rng.integers(1, 6)) for _ in range(rank))
        t = Tensor(shape, rng.standard_normal(int(np.prod(shape))))
        p1 = tmp_path / f"a{i}.tensor"
        p2 = tmp_path / f"b{i}.tensor"
        tensor_write(t, p1)
        back = tensor_read(p1)
        tensor_write(back, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert back == t


def test_header_byte_count_shape2(tmp_path):
    # canonical header is compact JSON plus newline; for shape [2] that is
    # len('{"dtype":"f64","shape":[2]}\n') = 28 bytes, then 16 payload bytes
    assert header_bytes((2,)) == b'{"dtype":"f64","shape":[2]}\n'
    assert len(header_bytes((2,))) == 28
    p = tmp_path / "two.tensor"
    tensor_write(Tensor((2,), [1.0, -1.0]), p)
    assert len(p.read_bytes()) == 28 + 16


def test_roundtrip_scalar_identity(tmp_path):
    p = tmp_path / "one.tensor"
    t = Tensor((1, 1, 1, 1), [5.0])
    tensor_write(t, p)
    assert tensor_read(p) == t


def test_nan_payload_preserved(tmp_path):
    p = tmp_path / "nan.tensor"
    t = Tensor((2,), [1.0, float("nan")])
    tensor_write(t, p)
    back = tensor_read(p)
    assert math.isnan(back.data[1])
    assert back.data.tobytes() == t.data.tobytes()


def test_row_major_indexing_via_ramp(tmp_path):
    """Element (n,c,h,w) lives at flat index ((n*C+c)*H+h)*W+w."""
    n_, c_, h_, w_ = 2, 3, 4, 5
    t = Tensor((n_, c_, h_, w_), np.arange(n_ * c_ * h_ * w_, dtype=float))
    p = tmp_path / "ramp.tensor"
    tensor_write(t, p)
    got = tensor_read(p).nchw
    for n in range(n_):
        for c in range(c_):
            for h in range(h_):
                for w in range(w_):
                    assert got[n, c, h, w] == ((n * c_ + c) * h_ + h) * w_ + w


@pytest.mark.parametrize("data,expect", [
    ([1, 2, 3], False),
    ([1, float("nan")], True),
    ([1, float("inf")], True),
    ([1, float("-inf")], True),
])
def test_has_nonfinite(data, expect):
    assert has_nonfinite(Tensor((len(data),), data)) is expect


@pytest.mark.parametrize("raw", [
    b"not json\n" + bytes(8),
    b'{"dtype":"f32","shape":[1]}\n' + bytes(8),
    b'{"dtype":"f64","shape":[0]}\n',
    b'{"dtype":"f64","shape":[1,1,1,1,1]}\n' + bytes(8),
    b'{"dtype":"f64"}\n' + bytes(8),
    b'[1,2]\n' + bytes(8),
    b'{"dtype":"f64","shape":[1]}',  # no newline at all
    b'{"dtype":"f64","shape":[true,2]}\n' + bytes(16),  # bool read as extent 1
    b'{"dtype":"f64","shape":[2.0]}\n' + bytes(16),
    b'{"dtype":"f64","shape":"11"}\n' + bytes(8),
])
def test_malformed_files_rejected(tmp_path, raw):
    p = tmp_path / "bad.tensor"
    p.write_bytes(raw)
    with pytest.raises(TensorFileError):
        tensor_read(p)


def test_construction_validation():
    with pytest.raises(ValueError):
        Tensor((), [])
    with pytest.raises(ValueError):
        Tensor((1, 1, 1, 1, 1), [0.0])
    with pytest.raises(ValueError):
        Tensor((2, 0), [])
    with pytest.raises(ValueError):
        Tensor((3,), [1.0, 2.0])
    for bad in ((2.5, 2), (2.0, 2), (True, 2)):  # extents are ints, not bools
        with pytest.raises(ValueError, match="ints >= 1"):
            Tensor(bad, [0.0] * 4)


def test_tensor_is_immutable():
    t = Tensor((2,), [1.0, 2.0])
    with pytest.raises(ValueError):
        t.data[0] = 9.0
    with pytest.raises(AttributeError):
        t.shape = (1,)


def test_header_shape_preserved_as_given(tmp_path):
    # rank is part of the wire format, not normalized to 4
    p = tmp_path / "r2.tensor"
    tensor_write(Tensor((3, 2), np.arange(6.0)), p)
    header = json.loads(p.read_bytes().split(b"\n", 1)[0])
    assert header["shape"] == [3, 2]
    assert tensor_read(p).shape == (3, 2)
