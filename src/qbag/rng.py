"""Deterministic pseudo-random numbers for fuzzing and sampling.

The generator is SplitMix64 (Steele, Lea & Flood), chosen because the whole
algorithm fits in a dozen lines, is trivially portable, and produces the same
stream on every platform and Python version.  State update per draw:

    state = (state + 0x9E3779B97F4A7C15) mod 2^64
    z = state
    z = (z XOR (z >> 30)) * 0xBF58476D1CE4E5B9   mod 2^64
    z = (z XOR (z >> 27)) * 0x94D049BB133111EB   mod 2^64
    output = z XOR (z >> 31)

Per-trial streams are split by hashing (seed, trial) through the same
finalizer, so trial k of a fuzz run can be regenerated in isolation.
"""

from __future__ import annotations

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


def _mix64(z: int) -> int:
    z &= _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Sequential SplitMix64 generator over a 64-bit state."""

    __slots__ = ("_state",)

    def __init__(self, seed: int):
        self._state = seed & _MASK64

    @classmethod
    def for_trial(cls, seed: int, trial: int) -> "SplitMix64":
        """Independent stream for one trial of a seeded run."""
        return cls(_mix64(seed & _MASK64) ^ _mix64((trial + 1) * _GOLDEN))

    def next_u64(self) -> int:
        self._state = (self._state + _GOLDEN) & _MASK64
        return _mix64(self._state)

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * (2.0 ** -53)

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound) by rejection sampling, for
        0 < bound <= 2**64: one 64-bit draw cannot cover a larger bound."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        if bound > 1 << 64:
            raise ValueError("bound must be at most 2**64")
        limit = ((1 << 64) // bound) * bound
        while True:
            r = self.next_u64()
            if r < limit:
                return r % bound

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle."""
        for i in range(len(items) - 1, 0, -1):
            j = self.below(i + 1)
            items[i], items[j] = items[j], items[i]
