"""Fixed-length bit words, Hamming metrics, and binary/Gray reference encoders.

Bits are most-significant-first: index 0 is the leftmost character of the
textual form. All values are immutable and all functions are pure, so
everything here is safe to share across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

# A Hamming distance or weight is just a nonnegative int.
HammingCount = int

# bit values 0/1 -> ASCII '0'/'1', so int(..., 2) can read a word
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


@dataclass(frozen=True)
class BitWord:
    """An ordered, fixed-length sequence of 0/1 bits, leftmost bit first."""

    bits: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.bits) == 0:
            raise ValueError("BitWord must contain at least one bit")
        for i, b in enumerate(self.bits):
            if b not in (0, 1):
                raise ValueError(f"bit at position {i} is {b!r}, expected 0 or 1")

    @classmethod
    def from_string(cls, text: str) -> "BitWord":
        """Parse a string of ASCII '0'/'1' characters (the CLI wire format)."""
        if not text:
            raise ValueError("empty bit string")
        for i, ch in enumerate(text):
            if ch not in "01":
                raise ValueError(f"invalid character {ch!r} at position {i}")
        return cls(tuple(1 if ch == "1" else 0 for ch in text))

    @classmethod
    def zeros(cls, length: int) -> "BitWord":
        if length < 1:
            raise ValueError("length must be >= 1")
        return cls((0,) * length)

    def reverse(self) -> "BitWord":
        return BitWord(self.bits[::-1])

    def to_int(self) -> int:
        """Value of the word read as plain binary, leftmost bit most significant."""
        return int(bytes(self.bits).translate(_ASCII_BITS), 2)

    def __len__(self) -> int:
        return len(self.bits)

    def __getitem__(self, index: int) -> int:
        return self.bits[index]

    def __iter__(self):
        return iter(self.bits)

    def __str__(self) -> str:
        return "".join("1" if b else "0" for b in self.bits)


def hamming_distance(a: BitWord, b: BitWord) -> HammingCount:
    """Number of positions where a and b differ.

    Words of unequal length are not comparable; padding is the caller's
    explicit act via the fixed-length encoders.
    """
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    return sum(x ^ y for x, y in zip(a.bits, b.bits))


def hamming_weight(a: BitWord) -> HammingCount:
    """Number of 1-bits in a."""
    return sum(a.bits)


def binary_encode(n: int, width: int) -> BitWord:
    """Standard positional binary of n, zero-padded on the left to width bits."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= (1 << width):
        raise ValueError(f"{n} does not fit in {width} bits")
    return BitWord(tuple((n >> (width - 1 - i)) & 1 for i in range(width)))


def gray_encode(n: int, width: int) -> BitWord:
    """Binary-reflected Gray code of n at the given width.

    Consecutive integers map to words at Hamming distance exactly 1.
    """
    if width < 1:
        raise ValueError("width must be >= 1")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= (1 << width):
        raise ValueError(f"{n} does not fit in {width} bits")
    return binary_encode(n ^ (n >> 1), width)


def gray_decode(w: BitWord) -> int:
    """Inverse of gray_encode at any width."""
    g = w.to_int()
    n = g
    g >>= 1
    while g:
        n ^= g
        g >>= 1
    return n
