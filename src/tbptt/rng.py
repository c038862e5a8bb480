"""Deterministic 64-bit PRNG (splitmix64) used for every random draw in the toolkit.

Platform-independent by construction: all state updates are integer arithmetic
modulo 2^64, Gaussians come from Box-Muller on 53-bit uniforms.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix(z):
    """The splitmix64 finalizer of a Python int, or of every value of a
    uint64 array, whose products wrap modulo 2^64 by themselves."""
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
        """In-place Fisher-Yates: item i, from the last down to the second,
        swaps with item ``randrange(i + 1)``, for up to 2^32 items.

        The n - 1 draws are the stream's next values mix(state + k·gamma),
        k = 1 … n - 1, made in one uint64 pass, and the state advances by
        (n - 1)·gamma. Lemire's high word (u·m) >> 64 of u = 2^32·hi + lo
        and m = i + 1 <= 2^32 is (hi·m + (lo·m >> 32)) >> 32, whose terms
        all fit 64 bits."""
        n = len(items)
        if n < 2:
            return
        z = _mix(np.arange(1, n, dtype=np.uint64) * np.uint64(_GAMMA) + np.uint64(self._state))
        self._state = (self._state + (n - 1) * _GAMMA) & _MASK
        m = np.arange(n, 1, -1, dtype=np.uint64)
        js = ((z >> 32) * m + (((z & 0xFFFFFFFF) * m) >> 32)) >> 32
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]
