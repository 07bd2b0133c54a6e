import re

import pytest
from hypothesis import given, strategies as st

from unarynet.bitvec import (
    BitWord,
    binary_encode,
    gray_encode,
    hamming_distance,
    hamming_weight,
)
from unarynet.codes import (
    DecodeError,
    decode_basic,
    decode_fixed,
    decode_generalized,
    decode_one_hot,
    encode_basic,
    encode_fixed,
    encode_generalized,
    encode_one_hot,
    min_pairwise_distance,
    one_hot_to_thermometer,
)
from unarynet.rng import Lcg64

bw = BitWord.from_string

# n -> (terminated unary, 10-bit thermometer), values 0..10
REFERENCE_ROWS = {
    0: ("0", "0000000000"),
    1: ("10", "0000000001"),
    2: ("110", "0000000011"),
    3: ("1110", "0000000111"),
    4: ("11110", "0000001111"),
    5: ("111110", "0000011111"),
    6: ("1111110", "0000111111"),
    7: ("11111110", "0001111111"),
    8: ("111111110", "0011111111"),
    9: ("1111111110", "0111111111"),
    10: ("11111111110", "1111111111"),
}


class TestBasic:
    @pytest.mark.parametrize("n", REFERENCE_ROWS)
    def test_reference_column(self, n):
        assert str(encode_basic(n)) == REFERENCE_ROWS[n][0]

    def test_length_is_n_plus_one(self):
        for n in range(40):
            assert len(encode_basic(n)) == n + 1

    def test_decode_reference(self):
        assert decode_basic(bw("1110")) == 3
        assert decode_basic(bw("0")) == 0

    def test_roundtrip(self):
        for n in range(200):
            assert decode_basic(encode_basic(n)) == n

    def test_decode_rejects_one_after_zero(self):
        with pytest.raises(DecodeError) as exc:
            decode_basic(bw("1011"))
        assert exc.value.position == 2
        assert "position 2" in str(exc.value)

    def test_decode_rejects_missing_terminator(self):
        with pytest.raises(DecodeError) as exc:
            decode_basic(bw("111"))
        assert exc.value.position == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            encode_basic(-1)

    @pytest.mark.parametrize("width", range(1, 11))
    def test_decode_matches_string_reference(self, width):
        """Every word of the width through every decoder: the same value, or
        the same DecodeError message and position, as a scan of its text."""

        def generalized(text, k):
            ones = len(text) - len(text.lstrip("1"))
            late_one = text.find("1", ones)
            if ones == width:
                return "no terminating 0", width
            if late_one != -1:
                return "1 after terminating 0", late_one
            if ones % k:
                return f"run of {ones} ones is not a multiple of k={k}", ones
            return ones // k

        def fixed(text):
            late_zero = text.find("0", text.find("1")) if "1" in text else -1
            if late_zero != -1:
                return "0 after first 1 in thermometer word", late_zero
            return text.count("1")

        def one_hot(text):
            first = text.find("1")
            if first == -1:
                return "no 1 in one-hot word", width
            if text.find("1", first + 1) != -1:
                return "more than one 1 in one-hot word", text.find("1", first + 1)
            return first + 1

        decoders = [(decode_basic, lambda text: generalized(text, 1)),
                    (decode_fixed, fixed), (decode_one_hot, one_hot)]
        decoders += [(lambda w, k=k: decode_generalized(w, k),
                      lambda text, k=k: generalized(text, k)) for k in (2, 3, 4)]
        for value in range(1 << width):
            text = format(value, f"0{width}b")
            for decode, reference in decoders:
                want = reference(text)
                if isinstance(want, int):
                    assert decode(bw(text)) == want
                    continue
                with pytest.raises(DecodeError) as exc:
                    decode(bw(text))
                assert str(exc.value) == f"{want[0]} at position {want[1]}"
                assert exc.value.position == want[1]


class TestFixed:
    @pytest.mark.parametrize("n", REFERENCE_ROWS)
    def test_reference_column(self, n):
        assert str(encode_fixed(n, 10)) == REFERENCE_ROWS[n][1]

    def test_weight_equals_value(self):
        for n in range(11):
            assert hamming_weight(encode_fixed(n, 10)) == n

    def test_range_error(self):
        with pytest.raises(ValueError, match="exceeds"):
            encode_fixed(11, 10)

    def test_decode_reference(self):
        assert decode_fixed(bw("0000011111")) == 5
        assert decode_fixed(bw("0000000000")) == 0

    def test_decode_rejects_non_thermometer(self):
        with pytest.raises(DecodeError) as exc:
            decode_fixed(bw("0101010101"))
        assert exc.value.position == 2

    @pytest.mark.parametrize("L", [1, 2, 7, 16])
    def test_roundtrip(self, L):
        for n in range(L + 1):
            assert decode_fixed(encode_fixed(n, L)) == n

    @pytest.mark.parametrize("L", [4, 8, 16, 64])
    def test_uniform_distance_law(self, L):
        """Distance between thermometer codes is exactly |x - y|."""
        words = [encode_fixed(n, L) for n in range(L + 1)]
        for x in range(L + 1):
            for y in range(L + 1):
                assert hamming_distance(words[x], words[y]) == abs(x - y)

    def test_weight_strictly_monotone(self):
        weights = [hamming_weight(encode_fixed(n, 64)) for n in range(65)]
        assert all(b > a for a, b in zip(weights, weights[1:]))


class TestOneHot:
    @pytest.mark.parametrize(
        "v, expected", [(1, "1000"), (2, "0100"), (3, "0010"), (4, "0001")]
    )
    def test_four_value_listing(self, v, expected):
        assert str(encode_one_hot(v, 4)) == expected

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            encode_one_hot(0, 4)
        with pytest.raises(ValueError):
            encode_one_hot(5, 4)

    def test_decode(self):
        for v in range(1, 9):
            assert decode_one_hot(encode_one_hot(v, 8)) == v

    def test_decode_rejects_zero_or_multiple_ones(self):
        with pytest.raises(DecodeError):
            decode_one_hot(bw("0000"))
        with pytest.raises(DecodeError) as exc:
            decode_one_hot(bw("0101"))
        assert exc.value.position == 3


class TestThermometerTransform:
    @pytest.mark.parametrize(
        "word, expected",
        [("1000", "1000"), ("0100", "1100"), ("0010", "1110"), ("0001", "1111")],
    )
    def test_left_fill_listing(self, word, expected):
        assert str(one_hot_to_thermometer(bw(word))) == expected

    def test_rejects_zero_and_multiple_ones(self):
        with pytest.raises(ValueError, match="exactly one"):
            one_hot_to_thermometer(bw("0000"))
        with pytest.raises(ValueError, match="exactly one"):
            one_hot_to_thermometer(bw("0110"))

    @pytest.mark.parametrize("L", [1, 3, 4, 10, 32])
    def test_equals_reversed_fixed_code(self, L):
        for v in range(1, L + 1):
            left = one_hot_to_thermometer(encode_one_hot(v, L))
            assert left == encode_fixed(v, L).reverse()


class TestGeneralized:
    def test_examples(self):
        assert str(encode_generalized(2, 3, 2)) == "1111110"
        assert str(encode_generalized(0, 3, 2)) == "0000000"
        assert str(encode_generalized(1, 1, 3)) == "1000"

    def test_length_is_k_n_plus_one(self):
        for k in range(1, 6):
            for N in range(1, 9):
                assert len(encode_generalized(0, k, N)) == k * N + 1

    def test_range_error(self):
        with pytest.raises(ValueError, match="exceeds"):
            encode_generalized(4, 2, 3)

    def test_k_equals_one_is_padded_basic(self):
        for n in range(6):
            padded = encode_basic(n).bits + (0,) * (5 - n)
            assert encode_generalized(n, 1, 5) == BitWord.from_bits(padded)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
    def test_distance_scales_by_k(self, k):
        N = 16
        words = [encode_generalized(n, k, N) for n in range(N + 1)]
        for x in range(N + 1):
            for y in range(N + 1):
                assert hamming_distance(words[x], words[y]) == k * abs(x - y)

    def test_decode(self):
        for k in (1, 2, 5):
            for n in range(8):
                assert decode_generalized(encode_generalized(n, k, 8), k) == n

    def test_decode_rejects_partial_run(self):
        with pytest.raises(DecodeError, match="multiple"):
            decode_generalized(bw("1110000"), 2)

    def test_decode_rejects_one_after_zero(self):
        with pytest.raises(DecodeError) as exc:
            decode_generalized(bw("1101"), 2)
        assert exc.value.position == 3


class TestCodebook:
    """A codebook here is the list of a family's codewords, in value order."""

    def test_words_pairwise_distinct(self):
        for words in (
            [encode_basic(n) for n in range(9)],
            [encode_fixed(n, 8) for n in range(9)],
            [encode_one_hot(v, 8) for v in range(1, 9)],
            [encode_generalized(n, 3, 8) for n in range(9)],
        ):
            assert len(set(words)) == len(words)

    def test_min_distance_fixed_is_one(self):
        words = [encode_fixed(n, 10) for n in range(11)]
        assert min_pairwise_distance(words) == 1

    def test_min_distance_one_hot_is_two(self):
        words = [encode_one_hot(v, 4) for v in range(1, 5)]
        assert min_pairwise_distance(words) == 2

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_min_distance_generalized_is_k(self, k):
        # adjacent values differ in exactly k positions, so the measured
        # minimum is k, not k - 1
        words = [encode_generalized(n, k, 8) for n in range(9)]
        assert min_pairwise_distance(words) == k

    def test_min_distance_needs_two_words(self):
        with pytest.raises(ValueError, match="at least 2"):
            min_pairwise_distance([encode_basic(0)])


@given(st.integers(0, 500))
def test_basic_roundtrip_property(n):
    assert decode_basic(encode_basic(n)) == n


@given(st.integers(1, 64), st.data())
def test_fixed_roundtrip_property(L, data):
    n = data.draw(st.integers(0, L))
    assert decode_fixed(encode_fixed(n, L)) == n


@pytest.mark.parametrize("call, message", [
    (lambda: BitWord.zeros(0), "length must be >= 1"),
    (lambda: binary_encode(0, 0), "width must be >= 1"),
    (lambda: gray_encode(0, 0), "width must be >= 1"),
    (lambda: gray_encode(-1, 3), "n must be nonnegative, got -1"),
    (lambda: encode_fixed(0, 0), "length must be >= 1"),
    (lambda: encode_fixed(-1, 4), "n must be nonnegative, got -1"),
    (lambda: encode_one_hot(1, 0), "length must be >= 1"),
    (lambda: encode_generalized(0, 0, 3), "k must be >= 1"),
    (lambda: decode_generalized(bw("1110"), 0), "k must be >= 1"),
    (lambda: Lcg64(1).next_below(0), "n must be >= 1"),
], ids=["zeros", "binary-width", "gray-width", "gray-negative", "fixed-length",
        "fixed-negative", "one-hot-length", "generalized-k", "decode-generalized-k",
        "next-below"])
def test_guards_raise_their_own_message(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
