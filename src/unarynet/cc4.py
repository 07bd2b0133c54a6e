"""CC4 corner-classification network, run by its radius law.

Training is one pass over the samples: hidden neuron i keeps its training
input x_i as an anchor and its training output as a label. Neuron i fires on
a query x exactly when the Hamming distance d(x, x_i) is at most the radius
r, and output bit o is 1 when more than half of the fired neurons' labels
have bit o set, so a tie, or a query no ball covers, gives 0.

The paper proves this law with integer weights: the hidden row of x_i is +1
where x_i has a 1 and -1 where it has a 0, with bias r - s + 1 (s = number of
1s in x_i), so the hidden sum on x is r + 1 - d and the strict step fires
exactly when d <= r. Output weights are +1/-1 copies of the label bits, so an
output sum is (fired labels with the bit) - (fired labels without it). The
weights are only the model file's form: save_network writes them, and
load_network reads them back and enforces the bias rule on every row.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from functools import cached_property, reduce
from itertools import compress, repeat

from .bitvec import BitWord, Record

MODEL_MAGIC = "CC4"

_SIGNS = {"1", "-1"}

# _read_rows' tables: a byte's 4-bit code (" " 0, "1" 1, newline a, "-" d, other f), and
# a pair's codes, first * 16 + next, as its digit, a newline, "x", or none (d1, 10)
_CODES = bytes({32: 0, 49: 1, 10: 10, 45: 13}.get(v, 15) for v in range(256))
_PAIRS = bytes({0x01: 49, 0xA1: 49, 0x0D: 48, 0xAD: 48, 0x1A: 10}.get(v, 120) for v in range(256))

# the bytes of a window of rows that _read hands _read_rows: a cold process reads a
# 3.9 MB model faster in windows this size than in one, whose buffers are fresh pages
_BLOCK = 1 << 16

# a network of at most this many anchors tests every anchor, into a fire word
# of at most 128 bits: the block filter's fixed cost is about that many exact
# tests at n = 256
_PLAIN = 128

# up to this many kept are read off the kept int's top bits, 0.2, 0.27 and 0.8 us each
# at h = 500, 2 000 and 20 000; more from its bytes by _LANE, 0.9, 2 and 16 us plus
# 0.1-0.2 us each: the two cross at 12-16, 16-20 and 24-32 kept (timeit, random kept)
_WALK = 16
_LANE = re.compile(b"\x80")

# _POPCOUNT[v]: the number of 1s in byte v
_POPCOUNT = bytes(v.bit_count() for v in range(256))

# _BYTE_SIGNS[v]: the eight weights of byte v, most significant bit first
_BYTE_SIGNS = [" ".join("1" if v >> k & 1 else "-1" for k in range(7, -1, -1))
               for v in range(256)]


class TrainingSample(Record):
    """One training pair: an input word and its output word. Immutable."""

    __slots__ = __match_args__ = ("input", "output")

    def __init__(self, input: BitWord, output: BitWord) -> None:
        _set_input(self, input)
        _set_output(self, output)


# the slot setters, which Record.__setattr__ refuses everyone else
_set_input = TrainingSample.input.__set__
_set_output = TrainingSample.output.__set__


class CC4Network(Record):
    """Immutable trained network: one anchor and one label per hidden neuron.

    anchors[i] is neuron i's training input and labels[i] its training
    output, each read as plain binary, leftmost bit most significant.
    quantizer holds the header's words after r, read by dataset; "" is
    version 1. The fields, in __match_args__ order, are all that ==, hash and
    repr see; the derived caches (_blocks, _columns) sit beside them in the
    instance __dict__.
    """

    __match_args__ = ("radius", "pattern_width", "output_count", "anchors", "labels",
                      "quantizer")

    def __init__(self, radius: int, pattern_width: int, output_count: int,
                 anchors: tuple[int, ...], labels: tuple[int, ...], quantizer: str = "") -> None:
        if radius < 0:
            raise ValueError("radius must be nonnegative")
        if not anchors:
            raise ValueError("network has no hidden neurons")
        if pattern_width < 1 or output_count < 1:
            raise ValueError("pattern width and output count must be >= 1")
        if len(labels) != len(anchors):
            raise ValueError("label count does not match hidden count")
        if min(anchors) < 0 or max(anchors) >> pattern_width:
            raise ValueError(f"anchor outside {pattern_width} bits")
        if min(labels) < 0 or max(labels) >> output_count:
            raise ValueError(f"label outside {output_count} bits")
        vars(self).update(radius=radius, pattern_width=pattern_width, output_count=output_count,
                          anchors=anchors, labels=labels, quantizer=quantizer)

    def replace(self, **changes) -> CC4Network:
        """A new network with these fields changed, validated as any other."""
        return CC4Network(**dict(self._fields(), **changes))

    @property
    def input_width(self) -> int:
        """n: pattern bits plus the bias position of the weight form."""
        return self.pattern_width + 1

    @property
    def hidden_count(self) -> int:
        return len(self.anchors)

    @cached_property
    def _blocks(self) -> tuple | None:
        """_near's index, or None where it would not pay: every anchor of one weight, as
        in one-hot codes, where the filter keeps nearly all. Only a network of more than
        _PLAIN anchors reads it; derived, not a field, so ==, hash, repr and the model text
        see none. Words are cut into blocks of size bytes (at most 8 up to 248 bytes, none
        over 31). Times spread, each byte's popcount adds into the size - 1 bytes above it
        with no carry (at most 248): byte j + size - 1 is the weight of the block at byte
        j, for every anchor's blocks in one pass, as _near weighs a query. Block k is
        (column, terms): column[i] is its weight in anchor i, terms[w] the h lanes
        min(|w - column[i]|, clip) as one int, made on the first query of weight w there.
        The clip, 255 // blocks that vary, keeps a sum in a byte; a block of one weight in
        all anchors has terms 0. top, limit: 0x80 and _near's c in each lane; below: t < 128."""
        if len({a.bit_count() for a in self.anchors}) == 1:
            return None
        nbytes = -(-self.pattern_width // 8)
        size = min(-(-nbytes // 8), 31)
        stride = -(-nbytes // size) * size
        spread = int.from_bytes(b"\1" * size, "little")
        pops = b"".join([a.to_bytes(stride, "little") for a in self.anchors]).translate(_POPCOUNT)
        sums = (int.from_bytes(pops, "little") * spread).to_bytes(len(pops) + size - 1, "little")
        columns = [sums[j::stride] for j in range(size - 1, stride, size)]
        varied = [column.count(column[0]) < len(column) for column in columns]
        clip = bytes(min(u, 255 // sum(varied)) for u in range(256))
        blocks = [(col, [None if v else 0] * (8 * size + 1)) for col, v in zip(columns, varied)]
        ones, t = int.from_bytes(b"\1" * len(self.anchors), "little"), min(self.radius, 255) + 1
        return (stride, size, spread, blocks, clip, 128 * ones,
                (t if t < 128 else t - 128) * ones, t < 128)

    @cached_property
    def _columns(self) -> list[int]:
        """Output bit o's label column, o = m - 1 first: bit h - 1 - i is bit
        o of labels[i], as in the fire word, and one stride slice of the labels'
        binary text, 8 * size characters each. The model file's output rows."""
        size, m = -(-self.output_count // 8), self.output_count
        lanes = bytes(self.labels) if m <= 8 else b"".join(
            [label.to_bytes(size, "big") for label in self.labels])
        text = format(int.from_bytes(lanes, "big"), f"0{8 * len(lanes)}b")
        return [int(text[8 * size - m + k::8 * size], 2) for k in range(m)]


def train(samples: list[TrainingSample], radius: int) -> CC4Network:
    """Build the network in one pass over the samples.

    One hidden neuron per sample, in sample order; duplicate or contradictory
    inputs each still get their own neuron.
    """
    anchors = []
    labels = []
    in_width = out_width = None
    for idx, sample in enumerate(samples):
        x, y = sample.input, sample.output
        if in_width is None:
            in_width, out_width = x.width, y.width
        elif x.width != in_width:
            raise ValueError(f"sample {idx} input length {x.width} != {in_width}")
        elif y.width != out_width:
            raise ValueError(f"sample {idx} output length {y.width} != {out_width}")
        anchors.append(x.value)
        labels.append(y.value)
    if not anchors:
        raise ValueError("no training samples")
    return CC4Network(radius, in_width, out_width, tuple(anchors), tuple(labels))


def _near(blocks, query: int) -> int:
    """Bit 8i + 7 set for each anchor i that the block weights do not place farther than
    r from the query, all else 0. A block's weight difference is at most the distance
    within it, so lane i, sum_j |w_j(x) - w_j(a_i)|, clipped or not, is at most d(x, a_i),
    and is d(x, a_i) below the clip when each block is one thermometer segment. Lane L is
    kept when L < t = min(r, 255) + 1. Each lane of total | top is 128 + (L & 0x7F), and
    limit takes c = t (t < 128) or t - 128 <= 128 from it, so no lane of D goes below 0 or
    borrows, and its top bit is L & 0x7F >= c. So L >= t is the top bit of total | D for
    t < 128, of total & D for t >= 128, and never set at t = 256, which keeps every lane."""
    stride, size, spread, columns, clip, top, limit, below = blocks
    pops = int.from_bytes(query.to_bytes(stride, "little").translate(_POPCOUNT), "little")
    weights, total = (pops * spread).to_bytes(stride + size - 1, "little")[size - 1::size], 0
    for w, (column, terms) in zip(weights, columns):
        lanes = terms[w]
        if lanes is None:
            table = (bytes(range(w, 0, -1)) + bytes(range(256 - w))).translate(clip)
            lanes = terms[w] = int.from_bytes(column.translate(table), "little")
        total += lanes
    d = (total | top) - limit
    return ((total | d) if below else (total & d)) & top ^ top


def _tops(kept: int) -> Iterator[int]:
    """Each i whose bit 8i + 7 is set in kept, highest first."""
    while kept:
        kept ^= 1 << (top := kept.bit_length() - 1)
        yield top >> 3


def hidden_activations(net: CC4Network, x: BitWord) -> BitWord:
    """Bit i is 1 iff d(x, anchor i) <= r.

    Each anchor left to test gets the exact test in one of three loops. At most _PLAIN
    anchors are all tested, each fire bit shifted into an int; past that, the block
    filter (_near) keeps the anchors to test. Up to a tenth of h kept are read off the
    kept int, by its top bits (_tops) up to _WALK of them, else from its bytes, and each
    fired one sets its bit in ceil(h / 8) bytes. More kept, or no filter, writes ASCII."""
    if x.width != net.pattern_width:
        raise ValueError(
            f"query length {x.width} != pattern width {net.pattern_width}"
        )
    query, radius, anchors = x.value, net.radius, net.anchors
    if (h := len(anchors)) <= _PLAIN:
        fired = 0
        for anchor in anchors:
            fired = fired << 1 | ((query ^ anchor).bit_count() <= radius)
        return BitWord(fired, h)
    kept = _near(blocks, query) if (blocks := net._blocks) else None
    count = h if kept is None else kept.bit_count()
    if 10 * count <= h:
        bits = bytearray(-(-h // 8))  # neuron i at bit 7 - i % 8 of byte i // 8
        for i in _tops(kept) if count <= _WALK else map(
                re.Match.start, _LANE.finditer(kept.to_bytes(h, "little"))):
            if (query ^ anchors[i]).bit_count() <= radius:
                bits[i >> 3] |= 128 >> (i & 7)
        return BitWord(int.from_bytes(bits, "big") >> -h % 8, h)
    word = bytearray(b"0") * h  # neuron i at index i
    for i in range(h) if kept is None else compress(range(h), kept.to_bytes(h, "little")):
        if (query ^ anchors[i]).bit_count() <= radius:
            word[i] = 49  # "1"
    return BitWord(int(word, 2), h)


def infer(net: CC4Network, x: BitWord) -> BitWord:
    """Output bit o is 2 * |F & C_o| > |F| for the fire word F and label
    column C_o, a strict majority: all-zero means no ball or a tied vote."""
    fired = hidden_activations(net, x).value
    count = fired.bit_count()
    value = 0
    for column in net._columns:
        value = value << 1 | (2 * (fired & column).bit_count() > count)
    return BitWord(value, net.output_count)


def _sign_row(value: int, width: int) -> str:
    """The width bits of value as space-separated weights: 1 for a 1, -1 for a 0."""
    nbytes = -(-width // 8)
    row = " ".join([_BYTE_SIGNS[b] for b in value.to_bytes(nbytes, "big")])
    return row[3 * (8 * nbytes - width):]  # the leading pad weights, "-1 " each


def _read_rows(block: bytes, width: int, radius: int | None = None) -> list[int] | None:
    """The values whose _sign_row(value, width) are exactly block's rows (no
    final newline), or None. Hidden rows (radius given) end in " " and their
    bias r - s + 1, which must be spelt as str() spells it.

    The signs S are decoded as one block, in a fixed number of passes, none
    per field, by the pairs of adjacent bytes of " " + S + " ": one multiply
    of S's codes as an int sets each pair in one byte, and one translate
    makes " 1" and newline-1 a 1 digit, " -" and newline-"-" a 0, "1"-newline
    a newline, drops "-1" and "1 ", and makes any other pair an "x". The
    block is accepted exactly when no "x" is left and every row gives width
    digits. Why that is exact: the kept pairs say that "1" or "-" follows the
    start and each separator (space or newline), "1" follows each "-", and a
    separator or the end follows each "1". So S is fields "1" or "-1", one
    separator apart, each giving one digit: each row is width of them, one
    space apart, the _sign_row of its digits. A canonical block passes."""
    if radius is None:
        signs = block
    else:
        signs, _, biases = zip(*[line.rpartition(b" ") for line in block.split(b"\n")])
        signs = b"\n".join(signs)
    pairs = int.from_bytes(signs.translate(_CODES), "big") * 0x110  # 16 * previous + own
    digits = pairs.to_bytes(len(signs) + 1, "big").translate(_PAIRS, b"\xd1\x10")
    rows = digits.split(b"\n")
    if b"x" in digits or set(map(len, rows)) != {width}:
        return None
    values = list(map(int, rows, repeat(2)))
    if radius is not None and biases != tuple(
            [b"%d" % (radius - value.bit_count() + 1) for value in values]):
        return None
    return values


def save_network(net: CC4Network) -> str:
    """The weight form as canonical text; round-trips bit-exactly."""
    width, h, m, r = net.pattern_width, net.hidden_count, net.output_count, net.radius
    q = net.quantizer  # a quantizer makes the header version 2
    lines = [f"{MODEL_MAGIC} {2 if q else 1} {net.input_width} {h} {m} {r} {q}".rstrip(" ")]
    for anchor in net.anchors:
        lines.append(f"{_sign_row(anchor, width)} {r - anchor.bit_count() + 1}")
    lines.extend([*(_sign_row(column, h) for column in net._columns), ""])  # "": final newline
    return "\n".join(lines)


def _lines(text: str | bytes) -> list[str]:
    """Only LF or CR LF ends a line, and the final newline ends the last line.
    Bytes decode as ASCII, each other byte kept as its surrogate escape."""
    if isinstance(text, bytes):
        text = text.decode("ascii", "surrogateescape")
    if "\r" in text:  # a one-character search, far cheaper than replace's own
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if lines[-1] == "":
        lines.pop()
    return lines


def _quote(line: str, right: str = "") -> str:
    """repr(line) if it is short, else of the 30 characters either side of the
    first character where line and right differ."""
    if len(line) <= 120:
        return repr(line)
    pairs = enumerate(zip(line, right))
    at = next((k for k, (a, b) in pairs if a != b), min(len(line), len(right)))
    window = line[max(at - 30, 0):at + 30]
    return f"{window!r} at column {at + 1} of {len(line)}"


def _decimal(field: str) -> str:
    """str(int(field)), also for a signed decimal past int()'s 4 300 digits."""
    body = field[1:] if field[0] in "+-" else field
    if not (body.isascii() and body.isdigit()):
        return str(int(field))
    digits = body.lstrip("0") or "0"
    return "-" + digits if field[0] == "-" and digits != "0" else digits


def _row(line: str, lineno: int, width: int, radius: int | None = None) -> None:
    """Raise the first fault of a row the exact read rejected, read field by
    field: a hidden row (radius given) ends in its bias, an output row has none."""
    what = "output" if radius is None else "hidden"
    fields = line.split()
    if len(fields) != width:
        raise ValueError(
            f"line {lineno}: {what} row has {len(fields)} fields, expected {width}")
    signs, bias = (fields, "0") if radius is None else (fields[:-1], fields[-1])
    bad = next((f for f in signs if f not in _SIGNS), None)
    try:
        shown = _decimal(bias if bad is None else bad)
    except ValueError:
        fault = [f.start() for f in re.finditer(r"\S+", line)][
            -1 if bad is None else signs.index(bad)]  # all before it is right
        raise ValueError(f"line {lineno}: non-integer weight in {what} row: "
                         f"{_quote(line, line[:fault])}") from None
    if bad is not None:
        raise ValueError(f"line {lineno}: {'output' if radius is None else 'pattern'} "
                         f"weight {_quote(bad)} is not 1 or -1")
    value = int("".join(signs).replace("-1", "0"), 2)
    if radius is None:
        raise ValueError(f"line {lineno}: output row is not in canonical form: "
                         + _quote(line, _sign_row(value, width)))
    want = str(radius - value.bit_count() + 1)
    fault = (f"bias {_quote(bias, want) if len(bias) > 120 else shown} != r - s + 1 = {want}"
             if shown != want else
             "not in canonical form: " + _quote(line, f"{_sign_row(value, width - 1)} {want}"))
    raise ValueError(f"hidden row {lineno - 1} (line {lineno}): {fault}")


def _read(model: str | bytes, data: bytes, start: int, stop: int, width: int,
          radius: int | None = None) -> list[int]:
    """_read_rows of the rows in data[start:stop], in windows of about _BLOCK
    bytes cut at a newline, CR LF folded. A window it rejects is read again a
    row at a time from model, so that _row names the first fault in file order."""
    values = []
    while start < stop:  # end: the window's newline, or stop after a last row with none
        end = data.find(b"\n", min(start + _BLOCK, stop - 1), stop) % (stop + 1)
        window = data[start:end]
        if b"\r" in window:  # a one-byte search, far cheaper than replace's own
            window = data[start:end + 1].replace(b"\r\n", b"\n").removesuffix(b"\n")
        block = _read_rows(window, width, radius)
        if block is None:
            first = data.count(b"\n", 0, start) + 1
            for lineno, line in enumerate(_lines(model[start:end + 1]), first):
                if _read_rows(line.encode("ascii", "replace"), width, radius) is None:
                    _row(line, lineno, width + (radius is not None), radius)
        values += block
        start = end + 1
    return values


def load_network(model: str | bytes) -> CC4Network:
    """Parse the weight form: exactly the text save_network writes, whose
    hidden rows are +1/-1 signs followed by the bias r - s + 1 training writes.
    model is that text, read as ASCII with "?" for any other character so
    that offsets stay, or a model file's bytes. A window of rows the exact
    read rejects is read again a row at a time, and the first row it rejects
    field by field, so the first fault in file order is the one reported.
    A form feed or a bare CR stays inside its row (see _lines)."""
    data = model.encode("ascii", "replace") if isinstance(model, str) else model
    if not data:
        raise ValueError("empty model text")
    start = data.find(b"\n") + 1 or len(data)
    line = _lines(model[:start])[0]
    header = line.split()
    if len(header) < 6 or header[0] != MODEL_MAGIC:
        raise ValueError(f"line 1: bad model header: {_quote(line)}")
    try:
        version, n, h, m, radius = (int(f) for f in header[1:6])
    except ValueError:
        raise ValueError(
            f"line 1: non-integer field in model header: {_quote(line)}") from None
    if n < 2 or h < 1 or m < 1 or radius < 0:
        raise ValueError(f"line 1: model header needs n >= 2, h >= 1, m >= 1, r >= 0: "
                         f"{_quote(line)}")
    quantizer = " ".join(header[6:])
    canonical = f"{MODEL_MAGIC} {version} {n} {h} {m} {radius} {quantizer}".rstrip(" ")
    if line != canonical:
        raise ValueError(f"line 1: model header {_quote(line, canonical)}"
                         f" is not in canonical form {_quote(canonical, line)}")
    if version != (2 if quantizer else 1):
        raise ValueError(f"line 1: version {version} with {len(header) - 6} quantizer words")
    found = data.count(b"\n") + (not data.endswith(b"\n"))
    if found != 1 + h + m:
        raise ValueError(f"expected {1 + h + m} lines, found {found}")
    out = len(data) - data.endswith(b"\n")
    for _ in range(m):  # back to the newline before the first output row
        out = data.rfind(b"\n", 0, out)
    anchors = _read(model, data, start, out + 1, n - 1, radius)
    columns = _read(model, data, out + 1, len(data), h)
    size = -(-m // 8)  # labels as _columns reversed: h lanes of size bytes, in one text
    bits = bytearray(b"0") * (8 * size * h)
    for k, column in enumerate(columns):
        bits[8 * size - m + k::8 * size] = format(column, f"0{h}b").encode()
    lanes = int(bits, 2).to_bytes(size * h, "big")
    labels = tuple([int.from_bytes(lanes[j:j + size], "big") for j in range(0, size * h, size)])
    # a version 2 label is one class: the columns cover every neuron, once
    if quantizer and (reduce(int.__or__, columns) != (1 << h) - 1
                      or sum(column.bit_count() for column in columns) != h):
        i = next(i for i, label in enumerate(labels) if label.bit_count() != 1)
        raise ValueError(f"hidden row {i + 1} (line {i + 2}): label {labels[i]:0{m}b}"
                         f" (column {i + 1} of the output rows) is not one-hot")
    return CC4Network(radius, n - 1, m, tuple(anchors), labels, quantizer)
