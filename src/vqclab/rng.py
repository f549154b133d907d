"""Deterministic PRNG used everywhere randomness is needed.

The generator is splitmix64: state advances by the 64-bit golden-ratio
increment and the output is the finalizer mix of the new state. Angle
draws map the top 53 bits to [0, 2*pi). The scalar and vectorized paths
produce bit-identical values, which keeps parallel and serial sweeps in
exact agreement.
"""

from __future__ import annotations

import numpy as np

from .circuit import TWO_PI

GOLDEN = 0x9E3779B97F4A7C15
MASK64 = (1 << 64) - 1


def mix64(x: int) -> int:
    z = x & MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return z ^ (z >> 31)


class SplitMix64:
    """Scalar splitmix64 stream."""

    def __init__(self, seed: int) -> None:
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (self.state + GOLDEN) & MASK64
        return mix64(self.state)

    def next_angle(self) -> float:
        return float(self.next_u64() >> 11) * 2.0**-53 * TWO_PI

    def shuffle(self, items: list) -> None:
        """In-place Fisher-Yates shuffle driven by this stream."""
        for i in range(len(items) - 1, 0, -1):
            j = self.next_u64() % (i + 1)
            items[i], items[j] = items[j], items[i]


def mix64_array(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer over uint64 values (wrapping arithmetic)."""
    z = x.astype(np.uint64, copy=True)
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def angles_from_u64(z: np.ndarray) -> np.ndarray:
    return (z >> np.uint64(11)).astype(np.float64) * 2.0**-53 * TWO_PI
