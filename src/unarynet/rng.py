"""Deterministic 64-bit linear congruential generator for property grids.

The recurrence is fixed so independent implementations reproduce identical
training sets from the same seed:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2**64

Each step yields one state; a random bit is the new state's top bit
(state' >> 63), and a word of width w is w successive bits, first bit
leftmost. Bounded draws use state' mod n.
"""

from __future__ import annotations

from .bitvec import BitWord
from .cc4 import TrainingSample

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407
MASK64 = (1 << 64) - 1


class Lcg64:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def next_u64(self) -> int:
        self.state = (MULTIPLIER * self.state + INCREMENT) & MASK64
        return self.state

    def next_bit(self) -> int:
        return self.next_u64() >> 63

    def next_below(self, n: int) -> int:
        if n < 1:
            raise ValueError("n must be >= 1")
        return self.next_u64() % n

    def next_word(self, width: int) -> BitWord:
        value = 0
        for _ in range(width):
            value = value << 1 | self.next_bit()
        return BitWord(value, width)

    def next_training_set(
        self, max_samples: int, in_width: int, out_width: int
    ) -> list[TrainingSample]:
        """1 + (draw mod max_samples) samples; per sample: input word, output word."""
        count = 1 + self.next_below(max_samples)
        return [
            TrainingSample(self.next_word(in_width), self.next_word(out_width))
            for _ in range(count)
        ]
