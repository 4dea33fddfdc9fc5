"""Pinned generator: reproducibility, stream splitting, frozen sequences."""

import itertools

import numpy as np
import pytest

from momentpool.rng import Xoshiro256pp, _splitmix64_stream

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


def test_splitmix64_reference_prefix():
    got = list(itertools.islice(_splitmix64_stream(0), 4))
    assert got == SPLITMIX64_SEED0


def test_frozen_u64_sequence():
    g = Xoshiro256pp(0)
    assert [g.next_u64() for _ in range(4)] == XOSHIRO_SEED0_U64


def test_frozen_double_sequence():
    g = Xoshiro256pp(42)
    assert [g.random() for _ in range(3)] == XOSHIRO_SEED42_DOUBLES


def test_same_seed_same_sequence():
    a = Xoshiro256pp(7, stream=3)
    b = Xoshiro256pp(7, stream=3)
    assert [a.next_u64() for _ in range(64)] == [b.next_u64() for _ in range(64)]


def test_streams_are_splitmix_offsets():
    """Stream k seeds from splitmix64 outputs 4k..4k+3 of the master seed."""
    words = list(itertools.islice(_splitmix64_stream(99), 12))
    for stream in range(3):
        g = Xoshiro256pp(99, stream=stream)
        assert g._s == words[4 * stream : 4 * stream + 4]
    with pytest.raises(ValueError, match="stream"):
        Xoshiro256pp(1, stream=-1)


def test_distinct_seeds_and_streams_differ():
    base = [Xoshiro256pp(1, 0).next_u64() for _ in range(8)]
    assert base != [Xoshiro256pp(2, 0).next_u64() for _ in range(8)]
    assert base != [Xoshiro256pp(1, 1).next_u64() for _ in range(8)]


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
    b = np.array([g.random() for _ in range(10)])
    assert np.array_equal(a, b)
