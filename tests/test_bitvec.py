import copy
import pickle
from itertools import product

import pytest
from hypothesis import given, strategies as st

from unarynet.bitvec import (
    BitWord,
    binary_encode,
    gray_decode,
    gray_encode,
    hamming_distance,
    hamming_weight,
)


def bw(text: str) -> BitWord:
    return BitWord.from_string(text)


words_of = lambda w: [binary_encode(v, w) for v in range(1 << w)]


class TestBitWord:
    def test_roundtrip_text(self):
        assert str(bw("010011")) == "010011"

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BitWord.from_bits(())
        with pytest.raises(ValueError):
            BitWord.from_string("")

    # int(text, 2) accepts all but the first of these; the parser must not
    @pytest.mark.parametrize(
        "text, position",
        [("01x0", 2), ("0b101", 1), (" 101", 0), ("101 ", 3), ("1_0", 1),
         ("+1", 0), ("\u0661\u0660", 0)],
        ids=["letter", "0b-prefix", "leading-space", "trailing-space",
             "underscore", "plus-sign", "arabic-indic-digits"],
    )
    def test_rejects_non_bits(self, text, position):
        with pytest.raises(ValueError, match=f"at position {position}$"):
            BitWord.from_string(text)

    def test_from_bits_rejects_non_bits(self):
        with pytest.raises(ValueError, match="position 1"):
            BitWord.from_bits((0, 2, 1))

    def test_rejects_value_wider_than_width(self):
        with pytest.raises(ValueError, match="does not fit"):
            BitWord(4, 2)
        with pytest.raises(ValueError, match="does not fit"):
            BitWord(-1, 2)

    def test_reverse(self):
        assert bw("0111").reverse() == bw("1110")
        assert bw("0110").reverse().reverse() == bw("0110")

    def test_hashable(self):
        assert len({bw("01"), bw("01"), bw("10")}) == 2


class TestValueSemantics:
    """A BitWord is an immutable value: it is its (value, width) pair."""

    def test_fields_cannot_be_assigned_or_deleted(self):
        word = BitWord(5, 4)
        for name in ("value", "width"):
            with pytest.raises(AttributeError):
                setattr(word, name, 3)
            with pytest.raises(AttributeError):
                delattr(word, name)
        with pytest.raises(AttributeError):
            word.extra = 1
        assert (word.value, word.width) == (5, 4)

    def test_has_no_instance_dict(self):
        assert not hasattr(BitWord(5, 4), "__dict__")

    def test_equality_and_hash_follow_value_and_width(self):
        assert BitWord(5, 4) == BitWord(5, 4)
        assert hash(BitWord(5, 4)) == hash(BitWord(5, 4)) == hash((5, 4))
        assert BitWord(5, 4) != BitWord(5, 5)
        assert BitWord(5, 4) != BitWord(4, 4)
        assert BitWord(1, 1) != (1, 1) and (1, 1) != BitWord(1, 1)
        assert BitWord(1, 1) != 1 and BitWord(0, 1) != "0"

    def test_repr(self):
        assert repr(BitWord(5, 4)) == "BitWord(value=5, width=4)"

    @pytest.mark.parametrize("clone", [
        copy.copy, copy.deepcopy, lambda word: pickle.loads(pickle.dumps(word))],
        ids=["copy", "deepcopy", "pickle"])
    def test_copies_are_equal_words(self, clone):
        for word in (BitWord(5, 4), BitWord(0, 1), BitWord(2**300 - 1, 300)):
            twin = clone(word)
            assert type(twin) is BitWord
            assert twin == word and hash(twin) == hash(word) and str(twin) == str(word)


bit_tuples = st.lists(st.integers(0, 1), min_size=1, max_size=300).map(tuple)


class TestAgainstTuples:
    """The int-backed word against plain tuple arithmetic."""

    @given(bit_tuples)
    def test_bits_text_and_reverse(self, t):
        w = BitWord.from_bits(t)
        assert w.bits == t
        assert len(w) == len(t)
        assert str(w) == "".join(map(str, t))
        assert BitWord.from_string(str(w)) == w
        assert w.reverse().bits == t[::-1]

    @given(st.data())
    def test_hamming_distance(self, data):
        t = data.draw(bit_tuples)
        u = data.draw(st.lists(st.integers(0, 1), min_size=len(t), max_size=len(t)))
        assert hamming_distance(BitWord.from_bits(t), BitWord.from_bits(u)) == sum(
            a != b for a, b in zip(t, u))


class TestHamming:
    def test_distance_of_word_with_itself_is_zero(self):
        for w in ["0", "1", "010101", "1111"]:
            assert hamming_distance(bw(w), bw(w)) == 0

    @pytest.mark.parametrize(
        "a, b, d",
        [
            ("0011", "0100", 3),  # binary 3 vs 4
            ("0001", "0101", 1),  # binary 1 vs 5
            ("0010", "0110", 1),  # gray 3 vs 4
            ("0001", "0101", 1),  # gray 1 vs 6
        ],
    )
    def test_reference_distances(self, a, b, d):
        assert hamming_distance(bw(a), bw(b)) == d

    def test_length_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="length mismatch"):
            hamming_distance(bw("01"), bw("011"))

    @pytest.mark.parametrize(
        "word, weight",
        [("0000000000", 0), ("0000000111", 3), ("1111111", 7)],
    )
    def test_weights(self, word, weight):
        assert hamming_weight(bw(word)) == weight

    def test_weight_equals_distance_from_zero(self):
        for v in range(64):
            w = binary_encode(v, 6)
            assert hamming_weight(w) == hamming_distance(w, BitWord.zeros(6))

    @pytest.mark.parametrize("length", [1, 2, 3, 4, 5])
    def test_metric_axioms_exhaustive(self, length):
        words = words_of(length)
        for a, b in product(words, repeat=2):
            assert hamming_distance(a, b) == hamming_distance(b, a)
            assert (hamming_distance(a, b) == 0) == (a == b)
        for a, b, c in product(words, repeat=3):
            assert hamming_distance(a, c) <= (
                hamming_distance(a, b) + hamming_distance(b, c)
            )

    @given(st.integers(0, 2**16 - 1), st.integers(0, 2**16 - 1),
           st.integers(0, 2**16 - 1))
    def test_triangle_inequality_width16(self, x, y, z):
        a, b, c = (binary_encode(v, 16) for v in (x, y, z))
        assert hamming_distance(a, c) <= (
            hamming_distance(a, b) + hamming_distance(b, c)
        )


class TestBinary:
    @pytest.mark.parametrize(
        "n, width, expected",
        [(5, 3, "101"), (0, 4, "0000"), (6, 4, "0110"), (1, 1, "1")],
    )
    def test_encode(self, n, width, expected):
        assert str(binary_encode(n, width)) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="does not fit"):
            binary_encode(8, 3)
        with pytest.raises(ValueError, match="nonnegative"):
            binary_encode(-1, 3)

    def test_nonuniform_distances(self):
        # |3-4| < |1-5| but the binary codes are farther apart
        near = hamming_distance(binary_encode(3, 4), binary_encode(4, 4))
        far = hamming_distance(binary_encode(1, 4), binary_encode(5, 4))
        assert near == 3 and far == 1


class TestGray:
    @pytest.mark.parametrize(
        "n, width, expected",
        [(6, 3, "101"), (4, 3, "110"), (1, 4, "0001"), (0, 4, "0000")],
    )
    def test_encode(self, n, width, expected):
        assert str(gray_encode(n, width)) == expected

    def test_decode_reference(self):
        assert gray_decode(bw("100")) == 7
        assert gray_decode(bw("0000")) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            gray_encode(16, 4)

    def test_roundtrip_exhaustive_width8(self):
        for n in range(256):
            assert gray_decode(gray_encode(n, 8)) == n

    @pytest.mark.parametrize("width", range(1, 11))
    def test_adjacent_values_differ_in_one_bit(self, width):
        for n in range((1 << width) - 1):
            d = hamming_distance(gray_encode(n, width), gray_encode(n + 1, width))
            assert d == 1, f"n={n} width={width}"

    def test_nonadjacent_values_can_also_differ_in_one_bit(self):
        assert hamming_distance(gray_encode(3, 4), gray_encode(4, 4)) == 1
        assert hamming_distance(gray_encode(1, 4), gray_encode(6, 4)) == 1

    @given(st.integers(0, 2**12 - 1))
    def test_roundtrip_width12(self, n):
        assert gray_decode(gray_encode(n, 12)) == n
