"""Unary code families: basic (terminated), fixed-length thermometer, one-hot,
and the k-repetition generalization, plus the exhaustive minimum-distance
oracle over a list of codewords.

Orientation note: the fixed-length encoder fills 1s from the RIGHT
(0000000111 for 3 of 10) while the one-hot thermometer transform fills from
the LEFT (1110 for 3 of 4). The two conventions are related by BitWord.reverse
and have identical Hamming geometry.
"""

from __future__ import annotations

from collections.abc import Sequence
from itertools import combinations

from .bitvec import BitWord, hamming_distance

MAX_LENGTH = 1024  # most bits a codeword holds, so most bins in a feature's segment


class DecodeError(ValueError):
    """A word does not have the shape the family requires.

    position is the index of the offending bit (or the word length when the
    required terminator is missing altogether).
    """

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def encode_basic(n: int) -> BitWord:
    """n ones followed by a single terminating 0; length n + 1. This is the
    generalized code with k = 1 and max value n."""
    return encode_generalized(n, 1, n)


def decode_basic(w: BitWord) -> int:
    """Count of leading ones; rejects any word that is not ones-then-zeros."""
    return decode_generalized(w, 1)


def encode_fixed(n: int, length: int) -> BitWord:
    """Thermometer word of the given length: (length - n) zeros then n ones."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > length:
        raise ValueError(f"n={n} exceeds code length {length}")
    return BitWord((1 << n) - 1, length)


def decode_fixed(w: BitWord) -> int:
    """Weight of a thermometer word; rejects words where a 1 precedes a 0."""
    if zeros := ((1 << w.value.bit_length()) - 1) ^ w.value:  # the 0s right of the first 1
        raise DecodeError("0 after first 1 in thermometer word", w.width - zeros.bit_length())
    return w.value.bit_length()  # a thermometer's weight is its bit length


def encode_one_hot(v: int, length: int) -> BitWord:
    """Single 1 at position v - 1; values run 1..length, leftmost = 1."""
    if length < 1:
        raise ValueError("length must be >= 1")
    if not 1 <= v <= length:
        raise ValueError(f"value {v} outside 1..{length}")
    return BitWord(1 << (length - v), length)


def decode_one_hot(w: BitWord) -> int:
    """Position (1-based) of the single 1."""
    if not w.value:
        raise DecodeError("no 1 in one-hot word", w.width)
    if rest := w.value ^ 1 << w.value.bit_length() - 1:  # every 1 after the first
        raise DecodeError("more than one 1 in one-hot word", w.width - rest.bit_length())
    return w.width - w.value.bit_length() + 1


def one_hot_to_thermometer(w: BitWord) -> BitWord:
    """Fill every position at or left of the single 1 with 1s."""
    ones = w.value.bit_count()
    if ones != 1:
        raise ValueError(f"expected exactly one 1, found {ones}")
    # the 1 and every bit above it: all ones, minus the ones below the pivot
    return BitWord(((1 << w.width) - 1) ^ (w.value - 1), w.width)


def encode_generalized(n: int, k: int, max_value: int) -> BitWord:
    """k*n ones then zeros, padded to the fixed length k*max_value + 1.

    The length keeps every codeword's terminating 0 in-band; k = 1 reduces to
    the basic code padded to max_value + 1.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n > max_value:
        raise ValueError(f"n={n} exceeds max value {max_value}")
    length, ones = k * max_value + 1, k * n
    return BitWord(((1 << ones) - 1) << (length - ones), length)


def decode_generalized(w: BitWord, k: int) -> int:
    """Count of leading ones divided by k; validates shape and multiplicity."""
    if k < 1:
        raise ValueError("k must be >= 1")
    ones = w.width - (w.value ^ ((1 << w.width) - 1)).bit_length()  # the leading 1s
    if ones == w.width:
        raise DecodeError("no terminating 0", w.width)
    if late := w.value & ((1 << w.width - ones) - 1):  # any 1 after the first 0
        raise DecodeError("1 after terminating 0", w.width - late.bit_length())
    if ones % k != 0:
        raise DecodeError(f"run of {ones} ones is not a multiple of k={k}", ones)
    return ones // k


def min_pairwise_distance(words: Sequence[BitWord]) -> int:
    """Exact minimum Hamming distance over all unordered pairs of codewords."""
    if len(words) < 2:
        raise ValueError("minimum distance needs at least 2 codewords")
    return min(hamming_distance(a, b) for a, b in combinations(words, 2))
