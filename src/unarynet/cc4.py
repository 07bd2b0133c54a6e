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
    def _blocks(self) -> tuple[int, list[tuple[int, bytes]], list[bytes], dict] | None:
        """_near's index, or None where it would not pay: every anchor of one
        weight, as in one-hot codes, where the filter keeps nearly all. Only a
        network of more than _PLAIN anchors reads it. Derived, as is _columns,
        so not a field: ==, hash, repr and the model text see none. Words are
        cut into blocks of size bytes (mask: 8 * size 1s): at most 8 up to 248
        bytes, none over 31. One bulk pass weighs the anchors' blocks: all
        their byte popcounts as one int, plus it shifted by 1 to size - 1
        bytes, at most 248, so no lane carries. columns holds (shift, col) for
        the block at bit shift, col[i] its weight in anchor i. A block with one
        weight in every anchor (as one-hot segments filling whole blocks) tells
        none apart and is left out; as the anchor weights differ, some block is
        left. tables[w][u] = min(|u - w|, 255 // len(columns)), so one anchor's
        terms add up within a byte. The dict is _near's cache: h lanes per
        (shift, query weight)."""
        weight = self.anchors[0].bit_count()
        if all(a.bit_count() == weight for a in self.anchors):
            return None
        nbytes = -(-self.pattern_width // 8)
        size = min(-(-nbytes // 8), 31)
        stride = -(-nbytes // size) * size
        pops = b"".join([a.to_bytes(stride, "little") for a in self.anchors]).translate(_POPCOUNT)
        x = int.from_bytes(pops, "little")
        lanes = sum(x >> s for s in range(0, 8 * size, 8)).to_bytes(len(pops), "little")
        columns = [(8 * j, col) for j in range(0, stride, size)
                   if (col := lanes[j::stride]).count(col[0]) < len(col)]
        clip = bytes(min(u, 255 // len(columns)) for u in range(256))
        tables = [(bytes(range(w, 0, -1)) + bytes(range(256 - w))).translate(clip)
                  for w in range(8 * size + 1)]
        return (1 << 8 * size) - 1, columns, tables, {}

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


def _near(blocks, query: int, radius: int) -> bytes:
    """flags[i] is 1 for each i that the block weights do not place farther
    than radius from the query, else 0. A block's weight difference is at
    most the distance within it, so sum_j |w_j(x) - w_j(a)| <= d(x, a),
    clipped or not; the terms add in one byte lane per anchor. The query's
    weight w in a block is the popcount of its own bits there, and the
    block's terms depend only on w, so they are cached per (shift, w)."""
    mask, columns, tables, cache = blocks
    total = 0
    for shift, column in columns:
        w = (query >> shift & mask).bit_count()
        if (shift, w) not in cache:
            cache[shift, w] = int.from_bytes(column.translate(tables[w]), "little")
        total += cache[shift, w]
    h, r = len(columns[0][1]), min(radius, 255)  # a lane holds at most 255
    return total.to_bytes(h, "little").translate(b"\1" * (r + 1) + bytes(255 - r))


def _ones(flags: bytes) -> Iterator[int]:
    """Each i where flags[i] is 1."""
    at = flags.find(1)
    while at >= 0:
        yield at
        at = flags.find(1, at + 1)


def hidden_activations(net: CC4Network, x: BitWord) -> BitWord:
    """Bit i is 1 iff d(x, anchor i) <= r.

    Each anchor left to test gets the exact test, in neuron order, in one of
    three loops, each the cheapest where it runs. A network of at most _PLAIN
    anchors tests them all, shifting each fire bit into an int. Past that,
    the weights of blocks of the words narrow which anchors are tested
    (_near): their summed differences bound d(x, a) from below, and equal it
    (below the clip) when each block is one thermometer segment, whose weight
    is the value it codes. Up to a tenth of h kept are found with bytes.find
    (_ones), so only they cost Python steps, and each fired one sets its bit
    in ceil(h / 8) bytes. A denser kept set, or all h where no filter is
    kept, is one flat pass that writes each fired neuron's character into an
    ASCII word."""
    if x.width != net.pattern_width:
        raise ValueError(
            f"query length {x.width} != pattern width {net.pattern_width}"
        )
    query, radius, anchors = x.value, net.radius, net.anchors
    h = len(anchors)
    if h <= _PLAIN:
        fired = 0
        for anchor in anchors:
            fired = fired << 1 | ((query ^ anchor).bit_count() <= radius)
        return BitWord(fired, h)
    blocks = net._blocks
    flags = _near(blocks, query, radius) if blocks else None
    if flags is not None and 10 * flags.count(1) <= h:
        bits = bytearray(-(-h // 8))  # neuron i at bit 7 - i % 8 of byte i // 8
        for i in _ones(flags):
            if (query ^ anchors[i]).bit_count() <= radius:
                bits[i >> 3] |= 128 >> (i & 7)
        return BitWord(int.from_bytes(bits, "big") >> -h % 8, h)
    word = bytearray(b"0") * h  # neuron i at index i
    for i in range(h) if flags is None else compress(range(h), flags):
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
