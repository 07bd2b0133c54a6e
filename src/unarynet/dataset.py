"""Integer-feature datasets, unary quantization into training samples, and
exact-match evaluation of trained networks.

CSV contract: a header row naming the feature columns and ending in `label`,
then integer fields separated by commas, no quoting.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from .bitvec import BitWord
from .cc4 import CC4Network, TrainingSample, _lines, _quote, infer
from .codes import MAX_LENGTH, encode_fixed, encode_one_hot

QUANT_FAMILIES = ("fixed", "one_hot")


@dataclass(frozen=True)
class Dataset:
    feature_names: tuple[str, ...]
    rows: tuple[tuple[tuple[int, ...], int], ...]
    feature_ranges: tuple[tuple[int, int], ...]

    @property
    def num_classes(self) -> int:
        return max(label for _, label in self.rows) + 1


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
    must be exactly 0..C-1, as a training set's are."""
    lines = _lines(text)
    if not lines:
        raise ValueError(f"{source}: empty file")
    header = lines[0].split(",")
    if len(header) < 2 or header[-1] != "label":
        raise ValueError(f"{source}: line 1: header must name feature columns then 'label'")
    names = tuple(h.strip() for h in header[:-1])
    arity = len(names)
    rows = []
    # int() also reads "+3", " 7"; rows are rejoined after a CR, so a CR LF is no stray byte
    body = "\n".join(lines[1:]) if "\r" in text else text[len(lines[0]) + 1:]
    plain = not body.encode("ascii", "replace").translate(None, b"0123456789,\n-")
    for lineno, line in enumerate(lines[1:], start=2):
        if not line:
            continue
        fields = line.split(",")
        if len(fields) != arity + 1:
            raise ValueError(f"{source}: line {lineno}: "
                             f"expected {arity + 1} fields, got {len(fields)}")
        try:
            if not plain and line.strip("0123456789,-"):  # int() reads it, a row may not
                raise ValueError
            *values, label = map(int, fields)
        except ValueError:
            raise ValueError(f"{source}: line {lineno}: non-integer field") from None
        if label < 0:
            raise ValueError(f"{source}: line {lineno}: negative label {label}")
        rows.append((tuple(values), label))
    if not rows:
        raise ValueError(f"{source}: no rows")
    labels = {label for _, label in rows}
    top = max(labels)
    if dense and len(labels) != top + 1:
        # fewer than len(labels) labels lie below len(labels) + 2, so the first
        # 3 gaps do: the scan never depends on how large top is
        first = [v for v in range(min(top, len(labels) + 2)) if v not in labels][:3]
        raise ValueError(
            f"{source}: labels not dense in 0..{top}: "
            f"{top + 1 - len(labels)} missing, first missing {first}"
        )
    ranges = tuple((min(column), max(column)) for column in zip(*(f for f, _ in rows)))
    return Dataset(names, tuple(rows), ranges)


def quantizer_words(q: QuantizationSpec, ranges: tuple[tuple[int, int], ...]) -> str:
    """A model header's quantizer: family, bins, length, then each feature's lo hi."""
    return " ".join(map(str, (q.family, q.bins, q.length, *(b for r in ranges for b in r))))


def read_quantizer(words: str, width: int) -> tuple[QuantizationSpec, tuple]:
    """The spec and ranges of exactly the words quantizer_words writes for width bits."""
    try:
        family, bins, length, *bounds = words.split(" ")
        q = QuantizationSpec(int(bins), int(length), family)
        ranges = tuple(zip(map(int, bounds[::2]), map(int, bounds[1::2])))
        if words != quantizer_words(q, ranges) or len(ranges) * q.length != width:
            raise ValueError(f"{_quote(words)} is not canonical for {width}-bit patterns")
        if any(lo > hi for lo, hi in ranges):
            raise ValueError(f"{_quote(words)} holds a range whose lo exceeds its hi")
    except ValueError as e:
        raise ValueError(f"line 1: bad quantizer: {e}" if words else
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


def bin_index(value: int, lo: int, hi: int, bins: int, clamp: bool = False) -> int:
    """floor((value - lo) * bins / (hi - lo + 1)), always within 0..bins-1."""
    if value < lo or value > hi:
        if not clamp or lo > hi:  # nothing can be clamped into an empty range
            raise ValueError(f"value {value} outside declared range {lo}..{hi}")
        value = min(max(value, lo), hi)
    return (value - lo) * bins // (hi - lo + 1)


def quantize_encode(
    ds: Dataset, q: QuantizationSpec, clamp: bool = False, classes: int | None = None
) -> list[TrainingSample]:
    """Bin and encode every row from per-bin segments and one-hot outputs of
    classes bits (default: the data's own class count)."""
    length, bins, fixed = q.length, q.bins, q.family == "fixed"
    classes = ds.num_classes if classes is None else classes
    if len(ds.rows[0][0]) != len(ds.feature_ranges):  # zip below would not notice
        raise ValueError(f"feature count mismatch: rows have {len(ds.rows[0][0])}, "
                         f"feature_ranges has {len(ds.feature_ranges)}")
    segments = [(encode_fixed(b, length) if fixed else encode_one_hot(b + 1, length)).value
                for b in range(bins)]
    outputs = {label: encode_one_hot(label + 1, classes) for label in range(classes)}
    width, samples = length * len(ds.feature_ranges), []
    try:
        for features, label in ds.rows:
            row = 0
            for value, (lo, hi) in zip(features, ds.feature_ranges):
                row = row << length | segments[bin_index(value, lo, hi, bins, clamp)]
            samples.append(TrainingSample(BitWord(row, width), outputs[label]))
    except (ValueError, KeyError):  # find the fault only once a row has failed
        features, label = ds.rows[len(samples)]
        for name, value, (lo, hi) in zip(ds.feature_names, features, ds.feature_ranges):
            try:
                bin_index(value, lo, hi, bins, clamp)
            except ValueError as e:
                raise ValueError(f"row {len(samples) + 1}, feature {name!r}: {e}") from None
        encode_one_hot(label + 1, classes)  # the codec's error for a label below 0
        raise
    return samples


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
