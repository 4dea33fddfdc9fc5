"""Deterministic random numbers for synthetic data and seeded experiments.

The generator is xoshiro256++ (Blackman/Vigna), a 64-bit shift/rotate/xor
generator with a 256-bit state. State initialization expands the user seed
with the splitmix64 mixer, which is also how independent streams are split
off a single master seed: stream ``k`` consumes splitmix64 outputs
``4k .. 4k+3`` as its four state words.

The exact update rules, so the sequence can be reproduced anywhere:

    splitmix64:  state += 0x9E3779B97F4A7C15
                 z = state
                 z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
                 z = (z ^ (z >> 27)) * 0x94D049BB133111EB
                 output = z ^ (z >> 31)

    xoshiro256++: output = rotl64(s0 + s3, 23) + s0
                  t = s1 << 17
                  s2 ^= s0;  s3 ^= s1;  s1 ^= s2;  s0 ^= s3
                  s2 ^= t
                  s3 = rotl64(s3, 45)

All arithmetic is modulo 2**64. Uniform doubles in [0, 1) take the top 53
bits of an output word: (x >> 11) * 2**-53.
"""

from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_SCALE = 2.0 ** -53


def _splitmix64_stream(seed: int):
    """Yield the splitmix64 output sequence for the given seed."""
    state = seed & _MASK64
    while True:
        state = (state + _GOLDEN) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256pp:
    """xoshiro256++ generator seeded via splitmix64 expansion.

    ``stream`` selects a decorrelated substream of the same master seed;
    identical (seed, stream) pairs always reproduce the same sequence.
    """

    def __init__(self, seed: int, stream: int = 0):
        if stream < 0:
            raise ValueError("stream index must be non-negative")
        sm = _splitmix64_stream(seed)
        for _ in range(4 * stream):
            next(sm)
        self._s = [next(sm) for _ in range(4)]
        if not any(self._s):
            # the all-zero state is the one fixed point xoshiro cannot leave
            self._s[0] = 1

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s0 + s3) & _MASK64, 23) + s0) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def random(self) -> float:
        """Uniform double in [0, 1), 53-bit resolution."""
        return (self.next_u64() >> 11) * _DOUBLE_SCALE

    def fill_uniform(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Flat float64 array of ``count`` uniform draws in [lo, hi)."""
        span = hi - lo
        out = np.empty(count, dtype=np.float64)
        nxt = self.next_u64
        for i in range(count):
            out[i] = lo + span * ((nxt() >> 11) * _DOUBLE_SCALE)
        return out
