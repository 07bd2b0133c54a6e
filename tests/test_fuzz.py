"""Every parser of outside text either returns a value or raises ValueError.

Arbitrary text reaches only the first checks, so each parser also gets text
built from its own alphabet, behind a prefix that passes the header checks.
"""

from hypothesis import given, settings, strategies as st

from unarynet.bitvec import BitWord
from unarynet.cc4 import load_network
from unarynet.checks import parse_grid
from unarynet.dataset import parse_dataset, read_quantizer


def _text(alphabet: str, prefix: str = "") -> st.SearchStrategy[str]:
    shaped = st.text(alphabet=alphabet, max_size=60).map(lambda t: prefix + t)
    return st.one_of(st.text(), shaped)


def _only_value_error(parse, text: str) -> None:
    try:
        parse(text)
    except ValueError:
        pass


@settings(max_examples=300)
@given(_text("C4 01-+x\n\t_2\r\x0b\x0c\x85\u2028", prefix="CC4 1 "))
def test_load_network(text):
    _only_value_error(load_network, text)


@settings(max_examples=300)
@given(st.one_of(st.binary(), st.lists(st.sampled_from(
    [b"1", b"-1", b"-", b"0", b" ", b"\n", b"\r", b"\r\n", b"2", b"\x80", b"\xff", b"\xc3\xa9"]),
    max_size=60).map(lambda parts: b"CC4 1 5 1 1 1\n" + b"".join(parts))))
def test_load_network_bytes(data):
    _only_value_error(load_network, data)


_QUANTIZER = "fixedon_h0123456789-+ \t"


@settings(max_examples=300)
@given(_text(_QUANTIZER + "\n", prefix="CC4 2 5 1 1 1 "))
def test_load_network_v2_header(text):
    _only_value_error(load_network, text)


@settings(max_examples=300)
@given(st.one_of(_text(_QUANTIZER), _text(_QUANTIZER, prefix="fixed 1 ")),
       st.integers(0, 64))
def test_read_quantizer(text, width):
    _only_value_error(lambda words: read_quantizer(words, width), text)


@settings(max_examples=300)
@given(_text("a,0123456789-x \n", prefix="a,label\n"))
def test_parse_dataset(text):
    _only_value_error(parse_dataset, text)


@settings(max_examples=300)
@given(_text("01 b_x+"))
def test_bitword_from_string(text):
    _only_value_error(BitWord.from_string, text)


@settings(max_examples=300)
@given(_text("widthsradiksetpmoub=,/-0123456789"))
def test_parse_grid(text):
    _only_value_error(parse_grid, text)
