"""Deterministic 64-bit counter-based random generator (SplitMix64).

Every seeded computation in grplab draws from this generator so that runs
are reproducible bit-for-bit and portable across machines and languages.
The stream for seed ``s`` is ``mix64(s + GOLDEN), mix64(s + 2*GOLDEN), ...``
with the SplitMix64 finalizer; substreams are derived with :func:`derive`.
"""

from __future__ import annotations

from typing import List

_MASK64 = (1 << 64) - 1
GOLDEN = 0x9E3779B97F4A7C15


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
