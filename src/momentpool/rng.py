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
bits of an output word: (x >> 11) * 2**-53, and a draw in [lo, hi) is
lo + (hi - lo) * that double.

Because splitmix64's state only ever grows by the golden constant, stream
``k`` starts its mixer at seed + 4k * 0x9E3779B97F4A7C15 instead of
skipping 4k outputs, so any stream index seeds in constant time.

Bulk draws in lockstep lanes
----------------------------
The xoshiro256++ state update is linear over GF(2): one step is a fixed
256x256 bit matrix T applied to the state's 256 bits (bit b of word w is
bit 64w + b). `fill_uniform` uses this to draw in lanes: lane l of B steps
starts at T**(l*B) applied to the current state, with T**(2**i) taken
from a ladder of repeated squares built once per process, and all lanes
step together in numpy uint64 arithmetic. Each draw goes through the same
float expression as above (numpy does not fuse the multiply and the add).

Each ladder matrix is kept as a byte table (the "method of Four Russians"):
for each of the state's 32 bytes, the images of all 256 values that byte
can take. Applying the matrix to a state XORs 32 table entries, so the
jumps are exact integer arithmetic that no BLAS or thread count can touch.
The sequence is the same, draw for draw, as applying the scalar update
rule once per draw.
"""

from __future__ import annotations

import functools

import numpy as np

from .tensor import _check_finite, _is_int

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_DOUBLE_SCALE = 2.0 ** -53
_BYTE = np.arange(32)[:, None]


def _splitmix64_stream(seed: int):
    """Yield the splitmix64 output sequence for the given seed."""
    state = seed & _MASK64
    while True:
        state = (state + _GOLDEN) & _MASK64
        z = state
        z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
        z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
        yield z ^ (z >> 31)


def _step_lanes(s: np.ndarray, word: np.ndarray, tmp: np.ndarray) -> None:
    """One xoshiro256++ step of every lane of ``s`` (4, L) uint64, in place.

    The lanes' output words go to ``word``; ``tmp`` is scratch. uint64 array
    arithmetic wraps modulo 2**64, as the update rule above requires.
    """
    s0, s1, s2, s3 = s
    np.add(s0, s3, out=tmp)
    np.left_shift(tmp, 23, out=word)
    np.right_shift(tmp, 41, out=tmp)
    np.bitwise_or(word, tmp, out=word)
    np.add(word, s0, out=word)
    np.left_shift(s1, 17, out=tmp)
    s[2:] ^= s[:2]  # s2 ^= s0; s3 ^= s1
    s[:2] ^= s[3:1:-1]  # s1 ^= s2; s0 ^= s3
    s2 ^= tmp
    np.left_shift(s3, 45, out=tmp)
    np.right_shift(s3, 19, out=s3)
    s3 |= tmp


def _byte_table(cols: np.ndarray) -> np.ndarray:
    """Byte table of the GF(2) map that sends unit state j to ``cols[j]``.

    ``cols`` is (256, 4) uint64. Entry [g, v] of the (32, 256, 4) result is
    the image of a state whose only set bits are byte value v at byte g,
    i.e. at bits 8g..8g+7; a state's image is the XOR of its 32 entries.
    """
    tab = np.zeros((32, 256, 4), dtype=np.uint64)
    rows = cols.reshape(32, 8, 4)
    for t in range(8):
        tab[:, 1 << t:2 << t] = tab[:, :1 << t] ^ rows[:, t, None]
    return tab


def _apply(tab: np.ndarray, states: np.ndarray) -> np.ndarray:
    """The map held in byte table ``tab`` applied to (m, 4) uint64 states."""
    digits = states.astype("<u8").view(np.uint8)  # byte g = bits 8g..8g+7
    return np.bitwise_xor.reduce(tab[_BYTE, digits.T], axis=0)


@functools.lru_cache(maxsize=None)
def _jump(level: int) -> np.ndarray:
    """Read-only byte table of T**(2**level), which moves a state 2**level
    draws ahead. Level 0 is T itself; its image of bit j is unit state j
    pushed one step through the lane rule."""
    if level == 0:
        j = np.arange(256)
        units = np.zeros((4, 256), dtype=np.uint64)
        units[j // 64, j] = np.uint64(1) << (j % 64).astype(np.uint64)
        _step_lanes(units, np.empty(256, np.uint64), np.empty(256, np.uint64))
        cols = units.T
    else:
        half = _jump(level - 1)
        cols = _apply(half, half[:, 1 << np.arange(8)].reshape(256, 4))
    tab = _byte_table(cols)
    tab.flags.writeable = False
    return tab


class Xoshiro256pp:
    """xoshiro256++ generator seeded via splitmix64 expansion.

    ``stream`` selects a decorrelated substream of the same master seed;
    identical (seed, stream) pairs always reproduce the same sequence.
    """

    def __init__(self, seed: int, stream: int = 0):
        if not _is_int(seed):
            raise ValueError(f"seed must be an int, got {seed!r}")
        if not _is_int(stream) or stream < 0:
            raise ValueError(f"stream must be an int >= 0, got {stream!r}")
        # skipping 4*stream splitmix64 outputs adds 4*stream golden steps
        sm = _splitmix64_stream(int(seed) + 4 * int(stream) * _GOLDEN)
        self._s = [next(sm) for _ in range(4)]
        if not any(self._s):
            # the all-zero state is the one fixed point xoshiro cannot leave
            self._s[0] = 1

    def fill_uniform(self, count: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """Flat float64 array of the next ``count`` uniform draws in [lo, hi).

        ``lo`` and ``hi`` are finite reals, and so is ``hi - lo``; else
        nothing is drawn and a ValueError names the bound. ``lo > hi`` is
        allowed, as numpy's ``uniform`` allows it: the same expression, lo
        + (hi - lo) * u, then draws from (hi, lo]. Drawn in lockstep lanes
        (see the module docstring); the values and the state left behind
        equal ``count`` scalar draws.
        """
        if not _is_int(count) or count < 0:
            raise ValueError(f"count must be an int >= 0, got {count!r}")
        _check_finite("lo", lo)
        _check_finite("hi", hi)
        span = hi - lo
        _check_finite("hi - lo", span)
        count = int(count)
        if count == 0:
            return np.empty(0, dtype=np.float64)
        k = min(6, count.bit_length() // 2)
        steps = 1 << k
        lanes = -(-count // steps)
        starts = np.empty((lanes, 4), dtype=np.uint64)
        starts[0] = self._s
        m, level = 1, k
        while m < lanes:
            n = min(m, lanes - m)
            starts[m:m + n] = _apply(_jump(level), starts[:n])
            m, level = 2 * m, level + 1
        s = np.ascontiguousarray(starts.T)

        last = count - (lanes - 1) * steps  # draws taken from the last lane
        out = np.empty((lanes, steps), dtype=np.float64)
        word = np.empty(lanes, dtype=np.uint64)
        tmp = np.empty(lanes, dtype=np.uint64)
        unit = np.empty(lanes, dtype=np.float64)
        for j in range(steps):
            _step_lanes(s, word, tmp)
            if j + 1 == last:
                self._s = [int(w) for w in s[:, -1]]
            np.right_shift(word, 11, out=word)
            np.multiply(word, _DOUBLE_SCALE, out=unit)
            np.multiply(span, unit, out=unit)
            np.add(lo, unit, out=out[:, j])
        return out.reshape(-1)[:count]
