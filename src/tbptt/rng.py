"""Deterministic 64-bit PRNG (splitmix64) used for every random draw in the toolkit.

Platform-independent by construction: all state updates are integer arithmetic
modulo 2^64, Gaussians come from Box-Muller on 53-bit uniforms.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z: int) -> int:
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential splitmix64 stream seeded by a 64-bit integer."""

    def __init__(self, seed: int):
        self._state = seed & _MASK
        self._spare_normal: float | None = None

    def next_u64(self) -> int:
        self._state = (self._state + _GAMMA) & _MASK
        return _mix(self._state)

    def spawn(self, tag: int) -> "SplitMix64":
        """Independent child stream; deterministic in (seed, tag)."""
        return SplitMix64(_mix(self._state ^ _mix(tag & _MASK)))

    def uniform(self, lo: float = 0.0, hi: float = 1.0) -> float:
        # 53-bit mantissa, u in [0, 1)
        u = (self.next_u64() >> 11) * 2.0**-53
        return lo + (hi - lo) * u

    def normal(self, sigma: float = 1.0) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return sigma * z
        # u1 in (0, 1] so log() is finite
        u1 = ((self.next_u64() >> 11) + 1) * 2.0**-53
        u2 = (self.next_u64() >> 11) * 2.0**-53
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return sigma * r * math.cos(2.0 * math.pi * u2)

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        return np.array([self.uniform(lo, hi) for _ in range(n)], dtype=np.float64)

    def normals(self, n: int, sigma: float = 1.0) -> np.ndarray:
        return np.array([self.normal(sigma) for _ in range(n)], dtype=np.float64)

    def randrange(self, n: int) -> int:
        """Integer in [0, n) via Lemire multiply-shift (unbiased enough at 64 bits)."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates."""
        for i in range(len(items) - 1, 0, -1):
            j = self.randrange(i + 1)
            items[i], items[j] = items[j], items[i]
