"""Integer-feature datasets, unary quantization into training samples, and
exact-match evaluation of trained networks.

CSV contract: a header row naming the feature columns, each with its own
non-empty name, and ending in `label`, then integer fields separated by
commas, no quoting. Parsing and encoding work a whole body or column at a
time; only a file or set they refuse is read again a row at a time, so
that the error names the first faulty line, or row and feature.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import repeat

from .bitvec import BitWord
from .cc4 import CC4Network, TrainingSample, _lines, _quote, infer
from .codes import MAX_LENGTH, encode_fixed, encode_one_hot

QUANT_FAMILIES = ("fixed", "one_hot")


@dataclass(frozen=True)
class Dataset:
    feature_names: tuple[str, ...]
    columns: tuple[tuple[int, ...], ...]  # one per feature, of its value in each row
    labels: tuple[int, ...]  # each row's label
    feature_ranges: tuple[tuple[int, int], ...]

    @property
    def num_classes(self) -> int:
        return max(self.labels) + 1

    @property
    def rows(self) -> tuple[tuple[tuple[int, ...], int], ...]:
        """(features, label) of each row; the package reads only the columns."""
        return tuple(zip(zip(*self.columns), self.labels))


@dataclass(frozen=True)
class QuantizationSpec:
    """Per-feature binning and encoding parameters.

    Every feature is linearly binned into `bins` buckets and encoded into a
    segment of `length <= MAX_LENGTH` bits; segments are concatenated in column order.
    """

    bins: int
    length: int
    family: str = "fixed"

    def __post_init__(self) -> None:
        if self.bins < 1:
            raise ValueError("bins must be >= 1")
        if self.length < self.bins:
            raise ValueError(f"length {self.length} < bins {self.bins}")
        if self.length > MAX_LENGTH:
            raise ValueError(f"length {self.length} > {MAX_LENGTH}, the most a segment holds")
        if self.family not in QUANT_FAMILIES:
            raise ValueError(f"unknown quantization family {self.family!r}")


def parse_dataset(text: str, source: str = "<data>", dense: bool = True) -> Dataset:
    """Lines as cc4._lines splits them: a form feed or a bare CR stays inside
    its line, so one malformed line never becomes two rows. dense: the labels
    must be exactly 0..C-1, as a training set's are.

    The body is read in whole passes: a comma count of every line, one split
    of all fields and one map(int) over them; each column is then a strided
    slice of the values. A body those passes refuse is read again a line at
    a time, so the error names its first faulty line, in file order."""
    lines = _lines(text)
    if not lines:
        raise ValueError(f"{source}: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1] != "label":
        raise ValueError(f"{source}: line 1: header must name feature columns then 'label'")
    names = tuple(h.strip() for h in header[:-1])
    first = {}  # each name's column, counted from 1
    for column, name in enumerate(names, start=1):
        if not name:
            raise ValueError(f"{source}: line 1: feature column {column} has no name")
        if first.setdefault(name, column) != column:
            raise ValueError(f"{source}: line 1: feature {name!r} names columns "
                             f"{first[name]} and {column}")
    arity, stride = len(names), len(names) + 1
    body = list(filter(None, lines[1:]))  # an empty line is skipped
    if not body:
        raise ValueError(f"{source}: no rows")
    fields = ",".join(body)
    try:
        # int() also reads "+3", " 7"; a data row holds only these characters
        if fields.encode("ascii", "replace").translate(None, b"0123456789,-"):
            raise ValueError
        if set(map(str.count, body, repeat(","))) != {arity}:
            raise ValueError
        values = tuple(map(int, fields.split(",")))
        labels = values[arity::stride]
        if min(labels) < 0:
            raise ValueError
    except ValueError:  # find the fault only once the body has failed
        for lineno, line in enumerate(lines[1:], start=2):
            if not line:
                continue
            row = line.split(",")
            if len(row) != stride:
                raise ValueError(f"{source}: line {lineno}: "
                                 f"expected {stride} fields, got {len(row)}") from None
            try:
                if line.strip("0123456789,-"):  # int() reads it, a row may not
                    raise ValueError
                *_, label = map(int, row)
            except ValueError:
                raise ValueError(f"{source}: line {lineno}: non-integer field") from None
            if label < 0:
                raise ValueError(f"{source}: line {lineno}: negative label {label}") from None
        raise
    present = set(labels)
    top = max(present)
    if dense and len(present) != top + 1:
        # fewer than len(present) labels lie below len(present) + 2, so the
        # first 3 gaps do: the scan never depends on how large top is
        missing = [v for v in range(min(top, len(present) + 2)) if v not in present][:3]
        raise ValueError(
            f"{source}: labels not dense in 0..{top}: "
            f"{top + 1 - len(present)} missing, first missing {missing}"
        )
    columns = tuple(values[k::stride] for k in range(arity))
    return Dataset(names, columns, labels, tuple((min(c), max(c)) for c in columns))


def quantizer_words(q: QuantizationSpec, ranges: tuple[tuple[int, int], ...]) -> str:
    """A model header's quantizer: family, bins, length, then each feature's lo hi."""
    return " ".join(map(str, (q.family, q.bins, q.length, *(b for r in ranges for b in r))))


def read_quantizer(words: str, width: int) -> tuple[QuantizationSpec, tuple]:
    """The spec and ranges of exactly the words quantizer_words writes for width bits."""
    odd, bounds = f"{_quote(words)} is not canonical for {width}-bit patterns", None
    try:
        family, *numbers = words.split(" ")
        bins, length, *bounds = map(int, numbers)
        q = QuantizationSpec(bins, length, family)
        ranges = tuple(zip(bounds[::2], bounds[1::2]))
        if words != quantizer_words(q, ranges) or len(ranges) * q.length != width:
            raise ValueError(odd)
        if any(lo > hi for lo, hi in ranges):
            raise ValueError(f"{_quote(words)} holds a range whose lo exceeds its hi")
    except ValueError as e:  # no bounds: fewer than three words, or one int() cannot read
        raise ValueError(f"line 1: bad quantizer: {odd if bounds is None else e}" if words else
                         "the model records no quantizer (model version 1)") from None
    return q, ranges


def load_dataset(path: str, dense: bool = True) -> Dataset:
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        text = data.decode("ascii")
    except UnicodeDecodeError as e:
        line = data.count(b"\n", 0, e.start) + 1  # lines as parse_dataset counts them
        raise ValueError(
            f"{path}: line {line}: non-ASCII byte 0x{data[e.start]:02x}") from None
    return parse_dataset(text, source=str(path), dense=dense)


def bin_column(values: Sequence[int], lo: int, hi: int, bins: int,
               clamp: bool = False) -> list[int]:
    """floor((value - lo) * bins / (hi - lo + 1)) of each value, always within
    0..bins-1. A value outside lo..hi is refused, or with clamp put in the
    nearest end bin; an empty range (lo > hi) holds no value, clamped or not."""
    if min(values) < lo or max(values) > hi:
        if not clamp or lo > hi:
            value = next(v for v in values if v < lo or v > hi)
            raise ValueError(f"value {value} outside declared range {lo}..{hi}")
        values = [min(max(v, lo), hi) for v in values]
    span = hi - lo + 1
    return [(v - lo) * bins // span for v in values]


def quantize_encode(
    ds: Dataset, q: QuantizationSpec, clamp: bool = False, classes: int | None = None
) -> list[TrainingSample]:
    """Bin and encode every row from per-bin segments and one-hot outputs of
    classes bits (default: the data's own class count).

    The work goes a column at a time: bin_column bins a whole feature, each
    bin takes its segment from the table, and the columns are shifted
    together into one word per row. Only once a column or a label has failed
    are the rows replayed a value at a time, to name the first faulty row and
    feature."""
    if not ds.labels:
        raise ValueError("dataset has no rows to encode")
    length, bins, fixed = q.length, q.bins, q.family == "fixed"
    classes = ds.num_classes if classes is None else classes
    count, rows = len(ds.feature_ranges), len(ds.labels)
    if len(ds.columns) != count:
        raise ValueError(f"feature count mismatch: rows have {len(ds.columns)}, "
                         f"feature_ranges has {count}")
    for k, column in enumerate(ds.columns):  # zip below would cut them to the shortest
        if len(column) != rows:
            raise ValueError(f"feature {ds.feature_names[k]!r} has {len(column)} rows, "
                             f"labels has {rows}")
    segments = [(encode_fixed(b, length) if fixed else encode_one_hot(b + 1, length)).value
                for b in range(bins)]
    outputs = {label: encode_one_hot(label + 1, classes) for label in range(classes)}
    words = [0] * rows
    try:
        for column, (lo, hi) in zip(ds.columns, ds.feature_ranges):
            words = [word << length | segments[b]
                     for word, b in zip(words, bin_column(column, lo, hi, bins, clamp))]
        targets = [outputs[label] for label in ds.labels]
    except (ValueError, KeyError):  # find the fault only once a column has failed
        for row, label in enumerate(ds.labels):
            for name, column, (lo, hi) in zip(ds.feature_names, ds.columns, ds.feature_ranges):
                try:
                    bin_column(column[row:row + 1], lo, hi, bins, clamp)
                except ValueError as e:
                    raise ValueError(f"row {row + 1}, feature {name!r}: {e}") from None
            if label not in outputs:
                encode_one_hot(label + 1, classes)  # the codec's error for this label
        raise
    width = length * count
    return [TrainingSample(BitWord(word, width), target) for word, target in zip(words, targets)]


@dataclass
class EvalReport:
    total: int
    exact_matches: int
    no_decision: int
    # expected output bitstring -> (matches, total)
    per_class: dict[str, tuple[int, int]] = field(default_factory=dict)

    @property
    def accuracy(self) -> float:
        return self.exact_matches / self.total

    def lines(self) -> list[str]:
        out = [
            f"samples\t{self.total}",
            f"exact_matches\t{self.exact_matches}",
            f"accuracy\t{self.accuracy:.4f}",
            f"no_decision\t{self.no_decision}",
        ]
        for key in sorted(self.per_class):
            matches, total = self.per_class[key]
            out.append(f"class\t{key}\t{matches}/{total}")
        return out


def evaluate(net: CC4Network, samples: list[TrainingSample]) -> EvalReport:
    """Exact-match rates plus the count of all-zero (no decision) outputs."""
    if not samples:
        raise ValueError("no samples to evaluate")
    report = EvalReport(total=len(samples), exact_matches=0, no_decision=0)
    for idx, sample in enumerate(samples):
        if len(sample.output) != net.output_count:
            raise ValueError(
                f"sample {idx} output width {len(sample.output)} != "
                f"model output count {net.output_count}")
        got = infer(net, sample.input)
        key = str(sample.output)
        matches, total = report.per_class.get(key, (0, 0))
        hit = got.value == sample.output.value  # got has the width checked above
        report.per_class[key] = (matches + (1 if hit else 0), total + 1)
        if hit:
            report.exact_matches += 1
        if got.value == 0:
            report.no_decision += 1
    return report


def hamming_ball_volume(width: int, radius: int) -> int:
    """Number of words within the given radius of any fixed word."""
    return sum(math.comb(width, d) for d in range(min(radius, width) + 1))


def sweep_radius(net: CC4Network, radii: list[int],
                 samples: list[TrainingSample]) -> list[tuple[int, EvalReport]]:
    """(r, evaluate(net at radius r, samples)) for each r. Training stores each
    sample whole and r enters only the fire test, so one net serves every r."""
    if not radii:
        raise ValueError("empty radius range")
    return [(r, evaluate(net.replace(radius=r), samples)) for r in radii]


def sweep_table(reports: list[tuple[int, EvalReport]], width: int) -> str:
    """One row per (radius, report), with the ball volume at that radius in width bits."""
    lines = ["r\taccuracy\texact\tno_decision\tball_volume"]
    for r, rep in reports:
        lines.append(f"{r}\t{rep.accuracy:.4f}\t{rep.exact_matches}/{rep.total}"
                     f"\t{rep.no_decision}\t{hamming_ball_volume(width, r)}")
    return "\n".join(lines) + "\n"
