"""Deterministic 64-bit counter-based random generator (SplitMix64).

Every seeded computation in grplab draws from this generator so that runs
are reproducible bit-for-bit and portable across machines and languages.
The stream for seed ``s`` is ``mix64(s + GOLDEN), mix64(s + 2*GOLDEN), ...``
with the SplitMix64 finalizer; substreams are derived with :func:`derive`.
Because word i depends only on the seed and i (Steele, Lea & Flood, OOPSLA
2014), the ``*_array`` methods draw a block of words in one numpy expression
and return exactly what the scalar methods would return one call at a time.
"""

from __future__ import annotations

import math
from typing import Iterator, List

import numpy as np

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15
_BLOCK = 1 << 16  # words per block draw: temporaries stay near 3 MB


def mix64(z: int) -> int:
    """SplitMix64 finalizer: a bijective scramble of a 64-bit word."""
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def derive(seed: int, *path: int) -> int:
    """Derive a substream seed from (seed, task ids); order-sensitive."""
    h = mix64(seed)
    for part in path:
        h = mix64(h ^ ((part + GOLDEN) & _MASK64))
    return h


class SplitMix64:
    """Sequential SplitMix64 stream with the usual convenience draws."""

    __slots__ = ("_state",)

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + GOLDEN) & _MASK64
        return mix64(self._state)

    def uniform(self) -> float:
        """Uniform float in [0, 1) with 53 random mantissa bits."""
        return (self.next_u64() >> 11) * (1.0 / (1 << 53))

    def randrange(self, n: int) -> int:
        """Uniform integer in [0, n), unbiased via rejection."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        limit = ((1 << 64) // n) * n
        while True:
            u = self.next_u64()
            if u < limit:
                return u % n

    def _block(self, m: int) -> np.ndarray:
        """The next m <= _BLOCK words as uint64 (numpy wraps mod 2^64)."""
        z = np.arange(1, m + 1, dtype=np.uint64)
        z *= np.uint64(GOLDEN)
        z += np.uint64(self._state)
        self._state = (self._state + m * GOLDEN) & _MASK64
        z ^= z >> 30
        z *= np.uint64(0xBF58476D1CE4E5B9)
        z ^= z >> 27
        z *= np.uint64(0x94D049BB133111EB)
        z ^= z >> 31
        return z

    def _blocks(self, m: int) -> Iterator[tuple]:
        for lo in range(0, m, _BLOCK):
            hi = min(m, lo + _BLOCK)
            yield lo, hi, self._block(hi - lo)

    def next_u64_array(self, m: int) -> np.ndarray:
        """The next m words; equals m calls of :meth:`next_u64`."""
        out = np.empty(m, dtype=np.uint64)
        for lo, hi, words in self._blocks(m):
            out[lo:hi] = words
        return out

    def uniform_array(self, m: int) -> np.ndarray:
        """m floats; equals m calls of :meth:`uniform`."""
        out = np.empty(m, dtype=np.float64)
        for lo, hi, words in self._blocks(m):
            out[lo:hi] = (words >> 11).astype(np.float64) * (1.0 / (1 << 53))
        return out

    def bernoulli_array(self, m: int, p: float) -> np.ndarray:
        """m bools, each ``uniform() < p`` for 0 <= p <= 1; equals m such
        checks.  A draw is k / 2^53 exactly, k the word's top 53 bits, so it
        is below p just when k < ceil(p * 2^53), exact for a float p: each
        block of words is compared as integers, and no float array is made."""
        limit = np.uint64(math.ceil(p * (1 << 53)))
        out = np.empty(m, dtype=bool)
        for lo, hi, words in self._blocks(m):
            words >>= np.uint64(11)
            np.less(words, limit, out=out[lo:hi])
        return out

    def randrange_array(self, n: int, m: int) -> np.ndarray:
        """m int64 draws from [0, n), 1 <= n <= 2^63; equals m calls of
        :meth:`randrange`.  Each round draws only the words still needed, so
        no word past the m-th accepted one is consumed."""
        if not 1 <= n <= 1 << 63:
            raise ValueError("randrange_array needs 1 <= n <= 2^63")
        limit = ((1 << 64) // n) * n  # 2^64 exactly when n is a power of two
        out = np.empty(m, dtype=np.int64)
        done = 0
        while done < m:
            words = self._block(min(m - done, _BLOCK))
            if limit <= _MASK64:
                words = words[words < np.uint64(limit)]
            out[done : done + len(words)] = words % np.uint64(n)
            done += len(words)
        return out

    def sample_indices(self, n: int, k: int) -> List[int]:
        """k distinct indices drawn from range(n), in draw order."""
        if not 0 <= k <= n:
            raise ValueError("sample size out of range")
        pool = list(range(n))
        out: List[int] = []
        for i in range(k):
            j = i + self.randrange(n - i)
            pool[i], pool[j] = pool[j], pool[i]
            out.append(pool[i])
        return out


def stream(seed: int, *path: int) -> SplitMix64:
    """Stream for a derived substream seed; see :func:`derive`."""
    return SplitMix64(derive(seed, *path))
