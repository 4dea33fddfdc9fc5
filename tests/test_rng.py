"""Pinned generator: reproducibility, stream splitting, frozen sequences."""

import hashlib
import itertools
import re

import numpy as np
import pytest

from momentpool.rng import Xoshiro256pp, _splitmix64_stream
from oracle import scalar_fill_uniform, scalar_next_u64, scalar_random

# splitmix64(0) reference prefix; 0xe220a8397b1dcdaf is the widely used
# first-output check value for the published mixer
SPLITMIX64_SEED0 = [
    0xE220A8397B1DCDAF,
    0x6E789E6AA1B965F4,
    0x06C45D188009454F,
    0xF88BB8A8724C81EC,
]

# frozen outputs of this implementation; any drift breaks seeded experiments
XOSHIRO_SEED0_U64 = [
    0x53175D61490B23DF,
    0x61DA6F3DC380D507,
    0x5C0FDF91EC9A7BFC,
    0x02EEBF8C3BBE5E1A,
]
XOSHIRO_SEED42_DOUBLES = [
    0.8143051451229099,
    0.3188210400616611,
    0.9838941681774888,
]
# sha256 of Xoshiro256pp(0).fill_uniform(196608, -1.0, 1.0).tobytes(), taken
# from the draw-by-draw loop before fills were drawn in lanes; 196608 draws
# are 3072 lanes of 64 steps
XOSHIRO_SEED0_FILL_SHA256 = (
    "4e89489948dd6261a10350f90deb52e0011e87f1979e0cfd5ab49b6bdba3be7e")

_GOLDEN = 0x9E3779B97F4A7C15


def test_splitmix64_reference_prefix():
    got = list(itertools.islice(_splitmix64_stream(0), 4))
    assert got == SPLITMIX64_SEED0


def test_frozen_u64_sequence():
    g = Xoshiro256pp(0)
    assert [scalar_next_u64(g) for _ in range(4)] == XOSHIRO_SEED0_U64
    words = np.array(XOSHIRO_SEED0_U64, dtype=np.uint64) >> np.uint64(11)
    assert Xoshiro256pp(0).fill_uniform(4).tolist() == (words * 2.0 ** -53).tolist()


def test_frozen_double_sequence():
    g = Xoshiro256pp(42)
    assert [scalar_random(g) for _ in range(3)] == XOSHIRO_SEED42_DOUBLES
    assert Xoshiro256pp(42).fill_uniform(3).tolist() == XOSHIRO_SEED42_DOUBLES


def test_same_seed_same_sequence():
    a = Xoshiro256pp(7, stream=3)
    b = Xoshiro256pp(7, stream=3)
    assert a.fill_uniform(64).tobytes() == b.fill_uniform(64).tobytes()
    assert a._s == b._s


def test_streams_are_splitmix_offsets():
    """Stream k seeds from splitmix64 outputs 4k..4k+3 of the master seed."""
    words = list(itertools.islice(_splitmix64_stream(99), 12))
    for stream in range(3):
        g = Xoshiro256pp(99, stream=stream)
        assert g._s == words[4 * stream : 4 * stream + 4]
    with pytest.raises(ValueError, match="stream"):
        Xoshiro256pp(1, stream=-1)


def test_distinct_seeds_and_streams_differ():
    base = Xoshiro256pp(1, 0).fill_uniform(8).tolist()
    assert base != Xoshiro256pp(2, 0).fill_uniform(8).tolist()
    assert base != Xoshiro256pp(1, 1).fill_uniform(8).tolist()


def test_uniform_range_and_coverage():
    g = Xoshiro256pp(5)
    xs = g.fill_uniform(20000, -2.0, 3.0)
    assert xs.min() >= -2.0 and xs.max() < 3.0
    # loose sanity on the distribution, not a statistical test
    assert abs(xs.mean() - 0.5) < 0.05
    assert np.unique(xs).size > 19990


def test_fill_matches_scalar_draws():
    a = Xoshiro256pp(11).fill_uniform(10, 0.0, 1.0)
    g = Xoshiro256pp(11)
    b = np.array([scalar_random(g) for _ in range(10)])
    assert np.array_equal(a, b)


def test_frozen_fill_digest():
    xs = Xoshiro256pp(0).fill_uniform(196608, -1.0, 1.0)
    assert hashlib.sha256(xs.tobytes()).hexdigest() == XOSHIRO_SEED0_FILL_SHA256


def test_huge_stream_index_seeds_at_once():
    stream = 10**12
    state = (7 + 4 * stream * _GOLDEN) & ((1 << 64) - 1)
    want = list(itertools.islice(_splitmix64_stream(state), 4))
    assert Xoshiro256pp(7, stream=stream)._s == want


@pytest.mark.parametrize("seed", [1.5, "3", True, None])
def test_non_int_seed_is_rejected(seed):
    with pytest.raises(ValueError, match="seed must be an int"):
        Xoshiro256pp(seed)


@pytest.mark.parametrize("stream", [1.5, "3", False, -1])
def test_bad_stream_is_rejected(stream):
    with pytest.raises(ValueError, match="stream must be an int >= 0"):
        Xoshiro256pp(1, stream=stream)


def test_numpy_int_arguments_equal_python_ints():
    a = Xoshiro256pp(np.int64(5), stream=np.uint8(2))
    b = Xoshiro256pp(5, stream=2)
    assert a._s == b._s
    assert np.array_equal(a.fill_uniform(np.int32(9)), b.fill_uniform(9))


@pytest.mark.parametrize("count", [-1, 2.0, "3", True, None])
def test_bad_count_is_rejected(count):
    g = Xoshiro256pp(1)
    with pytest.raises(ValueError, match="count must be an int >= 0"):
        g.fill_uniform(count)
    assert g._s == Xoshiro256pp(1)._s


@pytest.mark.parametrize("lo, hi, message", [
    (np.nan, 1.0, "lo must be finite and real, got nan"),
    (-np.inf, 0.0, "lo must be finite and real, got -inf"),
    (0.0, np.inf, "hi must be finite and real, got inf"),
    (0.0, np.float64(np.nan), "hi must be finite and real, got np.float64(nan)"),
    ("a", 1.0, "lo must be finite and real, got 'a'"),
    (0.0, None, "hi must be finite and real, got None"),
    (True, 1.0, "lo must be finite and real, got True"),
    (1j, 1.0, "lo must be finite and real, got 1j"),
    (-1e308, 1e308, "hi - lo must be finite and real, got inf"),
])
def test_bad_bounds_are_rejected_and_draw_nothing(lo, hi, message):
    g = Xoshiro256pp(1)
    for count in (0, 3):
        with pytest.raises(ValueError, match=re.escape(message)):
            g.fill_uniform(count, lo, hi)
    assert g._s == Xoshiro256pp(1)._s


def test_zero_count_is_empty_and_draws_nothing():
    g = Xoshiro256pp(4)
    xs = g.fill_uniform(0)
    assert xs.shape == (0,) and xs.dtype == np.float64
    assert g._s == Xoshiro256pp(4)._s


# A fill of `count` draws steps L = ceil(count / B) lanes B = 2**k times,
# with k = min(6, count.bit_length() // 2). 0..65 covers every lane shape
# for B = 1, 2, 4 and 8: whole lanes (L*B), one draw into a new lane
# (L*B + 1) and one short of a whole lane (L*B - 1). 255, 256 and 257 do the
# same at B = 16, 1021 is a prime at B = 32, and 196608 = 3072 * 64 is the
# generate workload.
LANE_COUNTS = [*range(66), 255, 256, 257, 1021, 196608]


@pytest.mark.parametrize("lo, hi", [(-2.0, 3.0), (0.0, 1e-300), (3.0, -2.0)])
def test_fill_matches_scalar_oracle_bitwise(lo, hi):
    for count in LANE_COUNTS:
        got = Xoshiro256pp(13, stream=2).fill_uniform(count, lo, hi)
        want = scalar_fill_uniform(Xoshiro256pp(13, stream=2), count, lo, hi)
        assert got.tobytes() == want.tobytes(), count


def test_fill_leaves_generator_count_draws_ahead():
    for count in LANE_COUNTS[:-1]:
        ref = Xoshiro256pp(21)
        for _ in range(count):
            scalar_next_u64(ref)
        g = Xoshiro256pp(21)
        g.fill_uniform(count, -1.0, 1.0)
        assert g._s == ref._s, count
        assert scalar_next_u64(g) == scalar_next_u64(ref), count


def test_chained_fills_equal_one_fill():
    for a, b in [(0, 7), (1, 1), (17, 64), (255, 257), (1021, 2)]:
        g = Xoshiro256pp(8)
        chained = np.concatenate([g.fill_uniform(a, -2.0, 3.0),
                                  g.fill_uniform(b, -2.0, 3.0)])
        whole = Xoshiro256pp(8).fill_uniform(a + b, -2.0, 3.0)
        assert chained.tobytes() == whole.tobytes(), (a, b)
