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
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import compress

from .bitvec import BitWord

MODEL_MAGIC = "CC4"

_SIGNS = {"1", "-1"}

# a network of at most this many anchors keeps no block filter, whose fixed
# cost is about that many exact tests at n = 256
_PLAIN = 128

# _POPCOUNT[v]: the number of 1s in byte v
_POPCOUNT = bytes(v.bit_count() for v in range(256))

# _BYTE_SIGNS[v]: the eight weights of byte v, most significant bit first
_BYTE_SIGNS = [" ".join("1" if v >> k & 1 else "-1" for k in range(7, -1, -1))
               for v in range(256)]


@dataclass(frozen=True)
class TrainingSample:
    input: BitWord
    output: BitWord


@dataclass(frozen=True)
class CC4Network:
    """Immutable trained network: one anchor and one label per hidden neuron.

    anchors[i] is neuron i's training input and labels[i] its training
    output, each read as plain binary, leftmost bit most significant.
    """

    radius: int
    pattern_width: int
    output_count: int
    anchors: tuple[int, ...]
    labels: tuple[int, ...]
    quantizer: str = ""  # the header's words after r, read by dataset; "" is version 1

    def __post_init__(self) -> None:
        if self.radius < 0:
            raise ValueError("radius must be nonnegative")
        if not self.anchors:
            raise ValueError("network has no hidden neurons")
        if self.pattern_width < 1 or self.output_count < 1:
            raise ValueError("pattern width and output count must be >= 1")
        if len(self.labels) != len(self.anchors):
            raise ValueError("label count does not match hidden count")
        if min(self.anchors) < 0 or max(self.anchors) >> self.pattern_width:
            raise ValueError(f"anchor outside {self.pattern_width} bits")
        if min(self.labels) < 0 or max(self.labels) >> self.output_count:
            raise ValueError(f"label outside {self.output_count} bits")

    @property
    def input_width(self) -> int:
        """n: pattern bits plus the bias position of the weight form."""
        return self.pattern_width + 1

    @property
    def hidden_count(self) -> int:
        return len(self.anchors)

    @cached_property
    def _blocks(self) -> tuple[int, list[tuple[int, bytes]], list[bytes], dict] | None:
        """_near's index, or None where it would not pay: h <= _PLAIN, or every
        anchor of one weight, as in one-hot codes, where the filter keeps
        nearly all. Derived, as is _columns, so not a field: ==, hash, repr
        and the model text see none. Words are cut into blocks of size bytes
        (mask: 8 * size 1s): at most 8 up to 248 bytes, none over 31. One bulk
        pass weighs the anchors' blocks: all their byte popcounts as one int,
        plus it shifted by 1 to size - 1 bytes, at most 248, so no lane carries.
        columns holds (shift, col) for the block at bit shift, col[i] its
        weight in anchor i. A block with one weight in every anchor (as one-hot
        segments filling whole blocks) tells none apart and is left out; as
        the anchor weights differ, some block is left. tables[w][u] =
        min(|u - w|, 255 // len(columns)), so one anchor's terms add up within
        a byte. The dict is _near's cache: h lanes per (shift, query weight)."""
        weight = self.anchors[0].bit_count()
        if len(self.anchors) <= _PLAIN or all(a.bit_count() == weight for a in self.anchors):
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
        lanes = b"".join([label.to_bytes(size, "big") for label in self.labels])
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


def _near(blocks, query: int, radius: int) -> Iterable[int]:
    """The i that the block weights do not place farther than radius from
    the query. A block's weight difference is at most the distance within
    it, so sum_j |w_j(x) - w_j(a)| <= d(x, a), clipped or not; the terms add
    in one byte lane per anchor. The query's weight w in a block is the
    popcount of its own bits there, and the block's terms depend only on w,
    so they are cached per (shift, w). Few kept i are found with bytes.find,
    so only they cost Python steps."""
    mask, columns, tables, cache = blocks
    total = 0
    for shift, column in columns:
        w = (query >> shift & mask).bit_count()
        if (shift, w) not in cache:
            cache[shift, w] = int.from_bytes(column.translate(tables[w]), "little")
        total += cache[shift, w]
    h, r = len(columns[0][1]), min(radius, 255)  # a lane holds at most 255
    flags = total.to_bytes(h, "little").translate(b"\1" * (r + 1) + bytes(255 - r))
    return compress(range(h), flags) if 4 * flags.count(1) > h else _ones(flags)


def _ones(flags: bytes) -> Iterator[int]:
    """Each i where flags[i] is 1."""
    at = flags.find(1)
    while at >= 0:
        yield at
        at = flags.find(1, at + 1)


def hidden_activations(net: CC4Network, x: BitWord) -> BitWord:
    """Bit i is 1 iff d(x, anchor i) <= r.

    The weights of blocks of the words narrow which anchors are tested
    (_near): their summed differences bound d(x, a) from below, and equal it
    (below the clip) when each block is one thermometer segment, whose
    weight is the value it codes. The anchors left are tested in one pass
    that writes each fired neuron's character into an ASCII word: linear in
    h however many fire."""
    if x.width != net.pattern_width:
        raise ValueError(
            f"query length {x.width} != pattern width {net.pattern_width}"
        )
    query, radius, anchors, blocks = x.value, net.radius, net.anchors, net._blocks
    word = bytearray(b"0") * len(anchors)  # neuron i at index i
    for i in _near(blocks, query, radius) if blocks else range(len(anchors)):
        if (query ^ anchors[i]).bit_count() <= radius:
            word[i] = 49  # "1"
    return BitWord(int(word, 2), len(word))


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


def _read_signs(text: str, width: int) -> int | None:
    """The value whose _sign_row is exactly text, or None (the parse is loose,
    the re-render is the check)."""
    try:
        digits = text.encode().translate(None, b" ").replace(b"-1", b"0")
        value = int(digits, 2)  # width is the header's: render only rows that long
        return value if len(digits) == width and _sign_row(value, width) == text else None
    except (ValueError, OverflowError):  # a "-0" field reads as a negative value
        return None


def save_network(net: CC4Network) -> str:
    """The weight form as canonical text; round-trips bit-exactly."""
    width, h, m, r = net.pattern_width, net.hidden_count, net.output_count, net.radius
    q = net.quantizer  # a quantizer makes the header version 2
    lines = [f"{MODEL_MAGIC} {2 if q else 1} {net.input_width} {h} {m} {r} {q}".rstrip(" ")]
    for anchor in net.anchors:
        lines.append(f"{_sign_row(anchor, width)} {r - anchor.bit_count() + 1}")
    lines.extend(_sign_row(column, h) for column in net._columns)
    return "\n".join(lines) + "\n"


def _lines(text: str) -> list[str]:
    """Only LF or CR LF ends a line, and the final newline ends the last line."""
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


def load_network(text: str) -> CC4Network:
    """Parse the weight form: exactly the text save_network writes, whose
    hidden rows are +1/-1 signs followed by the bias r - s + 1 training writes.
    A row the exact read rejects is re-read field by field to name its fault,
    so the first fault in file order is the one reported.
    A form feed or a bare CR stays inside its row (see _lines)."""
    lines = _lines(text)
    if not lines:
        raise ValueError("empty model text")
    header = lines[0].split()
    if len(header) < 6 or header[0] != MODEL_MAGIC:
        raise ValueError(f"line 1: bad model header: {_quote(lines[0])}")
    try:
        version, n, h, m, radius = (int(f) for f in header[1:6])
    except ValueError:
        raise ValueError(
            f"line 1: non-integer field in model header: {_quote(lines[0])}") from None
    if n < 2 or h < 1 or m < 1 or radius < 0:
        raise ValueError(f"line 1: model header needs n >= 2, h >= 1, m >= 1, r >= 0: "
                         f"{_quote(lines[0])}")
    quantizer = " ".join(header[6:])
    canonical = f"{MODEL_MAGIC} {version} {n} {h} {m} {radius} {quantizer}".rstrip(" ")
    if lines[0] != canonical:
        raise ValueError(f"line 1: model header {_quote(lines[0], canonical)}"
                         f" is not in canonical form {_quote(canonical, lines[0])}")
    if version != (2 if quantizer else 1):
        raise ValueError(f"line 1: version {version} with {len(header) - 6} quantizer words")
    if len(lines) != 1 + h + m:
        raise ValueError(f"expected {1 + h + m} lines, found {len(lines)}")

    anchors = []
    for lineno, line in enumerate(lines[1:1 + h], start=2):
        signs, _, bias = line.rpartition(" ")
        anchor = _read_signs(signs, n - 1)
        if anchor is None or bias != str(radius - anchor.bit_count() + 1):
            _row(line, lineno, n, radius)
        anchors.append(anchor)
    columns = []
    for lineno, line in enumerate(lines[1 + h:], start=2 + h):
        column = _read_signs(line, h)
        if column is None:
            _row(line, lineno, h)
        columns.append(column)
    labels = tuple(int("".join(bits), 2) for bits in zip(*[f"{c:0{h}b}" for c in columns]))
    # a version 2 label is one class: the columns cover every neuron, once
    if quantizer and (reduce(int.__or__, columns) != (1 << h) - 1
                      or sum(column.bit_count() for column in columns) != h):
        i = next(i for i, label in enumerate(labels) if label.bit_count() != 1)
        raise ValueError(f"hidden row {i + 1} (line {i + 2}): label {labels[i]:0{m}b}"
                         f" (column {i + 1} of the output rows) is not one-hot")
    return CC4Network(radius, n - 1, m, tuple(anchors), labels, quantizer)
