"""Deterministic 64-bit PRNG (splitmix64) used for every random draw in the toolkit.

Platform-independent by construction: all state updates are integer arithmetic
modulo 2^64, Gaussians come from Box-Muller on 53-bit uniforms. The array
draws (``uniforms``, ``normals``, ``shuffle``) take their stream values in
one uint64 pass (``_draws``), with the bits of one value at a time, and a
small ``normals`` draw one value at a time; the Box-Muller transcendentals
stay ``math``'s, one pair at a time.
"""

from __future__ import annotations

import math

import numpy as np

_MASK = (1 << 64) - 1
_GAMMA = 0x9E3779B97F4A7C15

# stream values from which ``normals`` takes them in ``_draws``' one uint64
# pass rather than one ``next_u64`` at a time: the pass costs about ten
# numpy calls, a value one Python mix, and timed both ways ``normals(n)``
# crossed between 16 and 20 values
_ARRAY_DRAWS = 18


def _mix(z):
    """The splitmix64 finalizer of a Python int, or of every value of a
    uint64 array, in place, whose products wrap modulo 2^64 by themselves."""
    z ^= z >> 30
    z *= 0xBF58476D1CE4E5B9
    z &= _MASK
    z ^= z >> 27
    z *= 0x94D049BB133111EB
    z &= _MASK
    z ^= z >> 31
    return z


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

    def _draws(self, n: int) -> np.ndarray:
        """The stream's next n values, mix(state + k·gamma) for k = 1 … n, as
        one uint64 array made in one pass; the state advances by n·gamma."""
        z = np.arange(1, n + 1, dtype=np.uint64)
        z *= _GAMMA
        z += self._state
        self._state = (self._state + n * _GAMMA) & _MASK
        return _mix(z)

    def uniforms(self, n: int, lo: float = 0.0, hi: float = 1.0) -> np.ndarray:
        """n draws of ``uniform(lo, hi)``, bit for bit, from one uint64 pass."""
        return lo + (hi - lo) * ((self._draws(n) >> 11) * 2.0**-53)

    def normals(self, n: int, sigma: float = 1.0) -> np.ndarray:
        """n Gaussians of standard deviation ``sigma`` by Box-Muller, in pairs.

        Each pair takes two stream values, u1 in (0, 1] so log() is finite
        and u2 in [0, 1): with r = sqrt(-2 log u1), it gives sigma·r·cos(2π
        u2) and then the spare r·sin(2π u2), scaled by the sigma of the call
        that takes it. A call that ends on a pair's first value keeps its
        spare for the next call, which starts with it. The stream values
        come from one uint64 pass (``_draws``), or one at a time for fewer
        than ``_ARRAY_DRAWS`` of them, with the same bits; the
        transcendentals are ``math``'s, one pair at a time, so no value
        depends on numpy's vector kernels."""
        values = []
        if n and self._spare_normal is not None:
            values.append(sigma * self._spare_normal)
            self._spare_normal = None
        k = 2 * ((n - len(values) + 1) // 2)
        if k < _ARRAY_DRAWS:
            z = [self.next_u64() >> 11 for _ in range(k)]
        else:
            z = (self._draws(k) >> 11).tolist()
        for a, b in zip(z[0::2], z[1::2]):
            u1 = (a + 1) * 2.0**-53
            u2 = b * 2.0**-53
            r = math.sqrt(-2.0 * math.log(u1))
            values.append(sigma * r * math.cos(2.0 * math.pi * u2))
            spare = r * math.sin(2.0 * math.pi * u2)
            values.append(sigma * spare)
        if len(values) > n:
            values.pop()
            self._spare_normal = spare
        return np.array(values, dtype=np.float64)

    def randrange(self, n: int) -> int:
        """Integer in [0, n) via Lemire multiply-shift (unbiased enough at 64 bits)."""
        if n <= 0:
            raise ValueError("randrange needs n >= 1")
        return (self.next_u64() * n) >> 64

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates: item i, from the last down to the second,
        swaps with item ``randrange(i + 1)``, for up to 2^32 items.

        The n - 1 draws are the stream's next values (``_draws``). Lemire's
        high word (u·m) >> 64 of u = 2^32·hi + lo and m = i + 1 <= 2^32 is
        (hi·m + (lo·m >> 32)) >> 32, whose terms all fit 64 bits."""
        n = len(items)
        if n < 2:
            return
        z = self._draws(n - 1)
        m = np.arange(n, 1, -1, dtype=np.uint64)
        js = ((z >> 32) * m + (((z & 0xFFFFFFFF) * m) >> 32)) >> 32
        for i, j in zip(range(n - 1, 0, -1), js.tolist()):
            items[i], items[j] = items[j], items[i]
