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

from dataclasses import dataclass
from itertools import combinations, compress

from .bitvec import BitWord

MODEL_MAGIC = "CC4"
MODEL_VERSION = 1

_SIGNS = {"1", "-1"}

# fire flags 0/1 -> ASCII '0'/'1', so int(..., 2) can read them as one word
_ASCII_BITS = bytes.maketrans(b"\x00\x01", b"01")


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


def train(samples: list[TrainingSample], radius: int) -> CC4Network:
    """Build the network in one pass over the samples.

    One hidden neuron per sample, in sample order; duplicate or contradictory
    inputs each still get their own neuron.
    """
    if radius < 0:
        raise ValueError("radius must be nonnegative")
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


def hidden_activations(net: CC4Network, x: BitWord) -> BitWord:
    """Bit i is 1 iff d(x, anchor i) <= r."""
    if x.width != net.pattern_width:
        raise ValueError(
            f"query length {x.width} != pattern width {net.pattern_width}"
        )
    query, radius = x.value, net.radius
    fired = bytes((query ^ anchor).bit_count() <= radius for anchor in net.anchors)
    return BitWord(int(fired.translate(_ASCII_BITS), 2), len(fired))


def infer(net: CC4Network, x: BitWord) -> BitWord:
    """Majority of the fired labels per output bit; all-zero means no region
    claimed the query or its votes tied."""
    fired = list(compress(net.labels, hidden_activations(net, x).bits))
    value = 0
    for shift in range(net.output_count - 1, -1, -1):
        votes = sum(label >> shift & 1 for label in fired)
        value = value << 1 | (2 * votes > len(fired))
    return BitWord(value, net.output_count)


def generalization_region(net: CC4Network, hidden_index: int) -> set[BitWord]:
    """Every query that makes the given hidden neuron fire: the Hamming ball
    of radius r around its anchor, enumerated by flipping at most r bits."""
    if not 0 <= hidden_index < net.hidden_count:
        raise ValueError(f"hidden index {hidden_index} outside 0..{net.hidden_count - 1}")
    width = net.pattern_width
    anchor = net.anchors[hidden_index]
    return {
        BitWord(anchor ^ sum(1 << p for p in flips), width)
        for d in range(min(net.radius, width) + 1)
        for flips in combinations(range(width), d)
    }


def _sign_row(bits) -> str:
    """'1'/'0' characters as space-separated +1/-1 weights."""
    return " ".join(bits).replace("0", "-1")


def save_network(net: CC4Network) -> str:
    """The weight form as canonical text; round-trips bit-exactly."""
    width, m, r = net.pattern_width, net.output_count, net.radius
    lines = [
        f"{MODEL_MAGIC} {MODEL_VERSION} {net.input_width} "
        f"{net.hidden_count} {m} {r}"
    ]
    for anchor in net.anchors:
        signs = _sign_row(format(anchor, f"0{width}b"))
        lines.append(f"{signs} {r - anchor.bit_count() + 1}")
    label_bits = [format(label, f"0{m}b") for label in net.labels]
    lines.extend(_sign_row(column) for column in zip(*label_bits))
    return "\n".join(lines) + "\n"


def _row_fields(line: str, width: int, what: str) -> list[str]:
    fields = line.split()
    if len(fields) != width:
        raise ValueError(f"{what} row has {len(fields)} fields, expected {width}")
    return fields


def _sign_bits(fields: list[str], line: str, what: str, weight: str) -> str:
    """Literal '1'/'-1' weight fields as a '1'/'0' string, 1 where the weight is +1."""
    if not _SIGNS.issuperset(fields):
        bad = next(f for f in fields if f not in _SIGNS)
        try:
            int(bad)
        except ValueError:
            raise ValueError(f"non-integer weight in {what} row: {line!r}") from None
        raise ValueError(f"{weight} weight {bad!r} is not 1 or -1")
    return "".join(fields).replace("-1", "0")


def load_network(text: str) -> CC4Network:
    """Parse the weight form; every hidden row must be +1/-1 signs followed
    by the bias r - s + 1 that training writes."""
    lines = text.splitlines()
    if not lines:
        raise ValueError("empty model text")
    header = lines[0].split()
    if len(header) != 6 or header[0] != MODEL_MAGIC:
        raise ValueError(f"bad model header: {lines[0]!r}")
    try:
        version, n, h, m, radius = (int(f) for f in header[1:])
    except ValueError:
        raise ValueError(f"non-integer field in model header: {lines[0]!r}") from None
    if version != MODEL_VERSION:
        raise ValueError(f"unsupported model version {version}")
    if n < 2 or h < 1 or m < 1:
        raise ValueError(f"model header needs n >= 2, h >= 1, m >= 1: {lines[0]!r}")
    if len(lines) != 1 + h + m:
        raise ValueError(f"expected {1 + h + m} lines, found {len(lines)}")

    anchors = []
    biases = []
    for line in lines[1:1 + h]:
        fields = _row_fields(line, n, "hidden")
        anchors.append(int(_sign_bits(fields[:-1], line, "hidden", "pattern"), 2))
        try:
            biases.append(int(fields[-1]))
        except ValueError:
            raise ValueError(f"non-integer weight in hidden row: {line!r}") from None
    columns = [
        _sign_bits(_row_fields(line, h, "output"), line, "output", "output")
        for line in lines[1 + h:]
    ]
    labels = tuple(int("".join(bits), 2) for bits in zip(*columns))
    net = CC4Network(radius, n - 1, m, tuple(anchors), labels)
    for i, (anchor, bias) in enumerate(zip(anchors, biases), start=1):
        want = radius - anchor.bit_count() + 1
        if bias != want:
            raise ValueError(
                f"hidden row {i} (line {i + 1}): bias {bias} != r - s + 1 = {want}")
    return net
