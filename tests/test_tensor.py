"""Tensor construction, queries and the bit-exact file format."""

import copy
import json
import math
import pickle
from unittest import mock

import numpy as np
import pytest

from momentpool import smp
from momentpool.smp import MomentSpec, smp_backward, smp_forward
from momentpool.tensor import (
    Tensor,
    TensorFileError,
    has_nonfinite,
    header_bytes,
    tensor_read,
    tensor_write,
)
from momentpool.windows import PoolSpec


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


def test_equal_bytes_hash_equal_and_one_element_breaks_equality():
    a, b = (Tensor((2, 3), [0.0, 1.0, np.nan, 3.0, 4.0, 5.0]) for _ in "ab")
    assert a is not b and a == b and hash(a) == hash(b)  # NaN bytes match
    assert {a: "found"}[b] == "found"
    moved = a.data.copy()
    moved[4] = np.nextafter(4.0, 5.0)
    c = Tensor((2, 3), moved)
    assert c != a and c not in {a: "found"}


def test_header_shape_preserved_as_given(tmp_path):
    # rank is part of the wire format, not normalized to 4
    p = tmp_path / "r2.tensor"
    tensor_write(Tensor((3, 2), np.arange(6.0)), p)
    header = json.loads(p.read_bytes().split(b"\n", 1)[0])
    assert header["shape"] == [3, 2]
    assert tensor_read(p).shape == (3, 2)


def test_public_constructor_copies_its_input():
    arr = np.arange(4.0)
    t = Tensor((4,), arr)
    arr[0] = 9.0
    assert t.data.tolist() == [0.0, 1.0, 2.0, 3.0]
    assert not np.shares_memory(t.data, arr)
    assert not t.data.flags.writeable


def test_adopt_takes_the_array_without_a_copy_and_freezes_it():
    arr = np.zeros(6)
    t = Tensor._adopt((2, 3), arr)
    assert t.shape == (2, 3) and np.shares_memory(t.data, arr)
    with pytest.raises(ValueError):
        arr[0] = 1.0  # the caller's own reference is read-only too
    ints = np.arange(6)
    converted = Tensor._adopt((6,), ints)  # not float64: converted, unshared
    ints[0] = 9
    assert converted.data[0] == 0.0 and not np.shares_memory(converted.data, ints)
    with pytest.raises(ValueError, match="implies 5 elements"):
        Tensor._adopt((5,), np.zeros(6))


def test_adopted_outputs_are_read_only_and_unaliased(tmp_path):
    """Every adopting site hands out frozen arrays that share no memory."""
    from momentpool.smp import MomentSpec, smp_backward, smp_forward
    from momentpool.synth import uniform_noise
    from momentpool.windows import PoolSpec

    pool = PoolSpec.square(3, stride=2, pad=1)
    spec = MomentSpec(n=4, norm="layer")
    x = uniform_noise((2, 3, 5, 5), -1.0, 1.0, seed=4)
    y = smp_forward(x, pool, spec)
    g = smp_backward(x, pool, spec, y)
    p = tmp_path / "x.tensor"
    tensor_write(x, p)
    back, again = tensor_read(p), tensor_read(p)
    assert back == x and again == x
    tensors = [x, y, g, back, again]
    for i, t in enumerate(tensors):
        assert not t.data.flags.writeable
        for other in tensors[i + 1:]:
            assert not np.shares_memory(t.data, other.data)
    with pytest.raises(ValueError):
        back.data.setflags(write=True)  # rests on the immutable file bytes


_SPECIAL = np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324, 1.5, -7.25])
_COPIES = {
    "copy": copy.copy,
    "deepcopy": copy.deepcopy,
    "pickle": lambda t: pickle.loads(pickle.dumps(t)),
}


@pytest.mark.parametrize("how", list(_COPIES))
def test_copy_and_pickle_keep_every_payload_bit(how):
    quiet_nan_with_payload = np.uint64(0x7FF8_0000_DEAD_BEEF).view(np.float64)
    payload = np.append(_SPECIAL, quiet_nan_with_payload)
    t = Tensor((2, 1, 4), payload)
    assert t.data.view(np.uint64)[-1] == 0x7FF8_0000_DEAD_BEEF
    c = _COPIES[how](t)
    assert type(c) is Tensor and c.shape == (2, 1, 4)
    assert c.data.tobytes() == t.data.tobytes()
    assert not c.data.flags.writeable
    with pytest.raises(AttributeError, match="immutable"):
        c.shape = (8,)


@pytest.mark.parametrize("how", list(_COPIES))
def test_a_copy_is_a_new_input_to_the_statistics_cache(how):
    pool, spec = PoolSpec.square(2, stride=2), MomentSpec(n=4, norm="layer")
    t = Tensor((1, 2, 4, 4), np.random.default_rng(3).uniform(-1, 1, 32))
    out = smp_forward(t, pool, spec)
    c = _COPIES[how](t)
    assert c == t and c is not t
    up = Tensor(out.shape, np.ones(out.size))
    with mock.patch.object(smp, "_walk_stats",
                           wraps=smp._walk_stats) as stats:
        smp_backward(c, pool, spec, up)
    assert stats.call_count == 1
