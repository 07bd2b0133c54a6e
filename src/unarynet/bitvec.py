"""Fixed-length bit words, Hamming metrics, and binary/Gray reference encoders.

Bits are most-significant-first: index 0 is the leftmost character of the
textual form, and a word's value is that text read as plain binary. All
values are immutable and all functions are pure, so everything here is safe
to share across threads.
"""

from __future__ import annotations

from collections.abc import Sequence

# ASCII '0'/'1' -> bit values 0/1
_BIT_VALUES = bytes.maketrans(b"01", b"\x00\x01")


class Record:
    """The base of the package's immutable values. A subclass names its fields
    in __match_args__ and sets them in its own __init__, which validates them,
    through slot setters or vars(self). Record refuses any other assignment or
    deletion, and ==, hash, repr, copy and pickle see the fields only."""

    __slots__ = ()

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _fields(self) -> dict:
        return {name: getattr(self, name) for name in self.__match_args__}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._fields() == other._fields()

    def __hash__(self) -> int:
        return hash(tuple(self._fields().values()))

    def __repr__(self) -> str:
        return f"{self.__class__.__name__}(" + ", ".join(
            f"{name}={value!r}" for name, value in self._fields().items()) + ")"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild the value through __init__, by
        # keyword, as CheckGrid takes only keywords
        return _rebuild, (self.__class__, self._fields())


def _rebuild(cls, fields: dict) -> Record:
    return cls(**fields)


class BitWord(Record):
    """A word of `width` bits; `value` is the word read as plain binary,
    leftmost bit most significant. Immutable, and equal to (and hashed as)
    exactly the BitWords of the same value and width."""

    __slots__ = __match_args__ = ("value", "width")

    def __init__(self, value: int, width: int) -> None:
        if width < 1:
            raise ValueError("BitWord must contain at least one bit")
        if not 0 <= value < 1 << width:
            raise ValueError(f"value {value} does not fit in {width} bits")
        _set_value(self, value)
        _set_width(self, width)

    @classmethod
    def from_string(cls, text: str) -> "BitWord":
        """Parse a string of ASCII '0'/'1' characters (the CLI wire format)."""
        if not text:
            raise ValueError("empty bit string")
        rest = text.lstrip("01")
        if rest:
            raise ValueError(
                f"invalid character {rest[0]!r} at position {len(text) - len(rest)}")
        return cls(int(text, 2), len(text))

    @classmethod
    def from_bits(cls, bits: Sequence[int]) -> "BitWord":
        """The word whose bits, leftmost first, are the given 0/1 ints."""
        value = 0
        for i, b in enumerate(bits):
            if b not in (0, 1):
                raise ValueError(f"bit at position {i} is {b!r}, expected 0 or 1")
            value = value << 1 | b
        return cls(value, len(bits))

    @classmethod
    def zeros(cls, length: int) -> "BitWord":
        if length < 1:
            raise ValueError("length must be >= 1")
        return cls(0, length)

    @property
    def bits(self) -> tuple[int, ...]:
        """The bits as a tuple of 0/1 ints, leftmost first."""
        return tuple(str(self).encode("ascii").translate(_BIT_VALUES))

    def reverse(self) -> "BitWord":
        return BitWord(int(str(self)[::-1], 2), self.width)

    def __len__(self) -> int:
        return self.width

    def __getitem__(self, index: int) -> int:
        return self.bits[index]

    def __iter__(self):
        return iter(self.bits)

    def __str__(self) -> str:
        return format(self.value, f"0{self.width}b")


# the slot setters, which Record.__setattr__ refuses everyone else
_set_value = BitWord.value.__set__
_set_width = BitWord.width.__set__


def hamming_distance(a: BitWord, b: BitWord) -> int:
    """Number of positions where a and b differ.

    Words of unequal length are not comparable; padding is the caller's
    explicit act via the fixed-length encoders.
    """
    if a.width != b.width:
        raise ValueError(f"length mismatch: {a.width} vs {b.width}")
    return (a.value ^ b.value).bit_count()


def hamming_weight(a: BitWord) -> int:
    """Number of 1-bits in a."""
    return a.value.bit_count()


def binary_encode(n: int, width: int) -> BitWord:
    """Standard positional binary of n, zero-padded on the left to width bits."""
    if width < 1:
        raise ValueError("width must be >= 1")
    if n < 0:
        raise ValueError(f"n must be nonnegative, got {n}")
    if n >= (1 << width):
        raise ValueError(f"{n} does not fit in {width} bits")
    return BitWord(n, width)


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
    g = w.value
    n = g
    g >>= 1
    while g:
        n ^= g
        g >>= 1
    return n
