"""Reference code tables in the tab-separated codebook dump format."""

from __future__ import annotations

from .bitvec import binary_encode, gray_encode
from .codes import encode_basic, encode_fixed

TABLE2_LENGTH = 10


def render_table1() -> str:
    """Values 1..7: plain unary (no terminator), binary, and Gray columns.

    Binary and Gray are written at their minimal widths (leading zeros
    stripped), which for Gray equals the binary width of the value.
    """
    lines = []
    for n in range(1, 8):
        width = n.bit_length()
        lines.append(
            f"{n}\t{'1' * n}\t{binary_encode(n, width)}\t{gray_encode(n, width)}"
        )
    return "\n".join(lines) + "\n"


def render_table2() -> str:
    """Values 0..10: terminated unary and fixed-length (10-bit) unary columns."""
    lines = []
    for n in range(0, 11):
        lines.append(f"{n}\t{encode_basic(n)}\t{encode_fixed(n, TABLE2_LENGTH)}")
    return "\n".join(lines) + "\n"
