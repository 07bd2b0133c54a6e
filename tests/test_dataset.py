import dataclasses
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from unarynet.bitvec import BitWord
from unarynet.cc4 import TrainingSample, train
from unarynet.codes import encode_fixed, encode_one_hot
from unarynet.dataset import (
    MAX_LENGTH,
    QUANT_FAMILIES,
    Dataset,
    QuantizationSpec,
    bin_column,
    evaluate,
    hamming_ball_volume,
    load_dataset,
    parse_dataset,
    quantize_encode,
    quantizer_words,
    read_quantizer,
    sweep_radius,
    sweep_table,
)

bw = BitWord.from_string

ANGLES_CSV = Path(__file__).resolve().parent.parent / "data" / "angles.csv"


class TestParsing:
    def test_bundled_angle_dataset(self):
        ds = load_dataset(str(ANGLES_CSV))
        assert ds.feature_names == ("angle",)
        assert ds.columns == ((1, 2, 3, 4),) and ds.labels == (0, 1, 2, 3)
        assert ds.feature_ranges == ((1, 4),)
        assert ds.num_classes == 4

    def test_empty_file(self):
        with pytest.raises(ValueError, match="empty file"):
            parse_dataset("")

    def test_no_rows(self):
        with pytest.raises(ValueError, match="no rows"):
            parse_dataset("a,label\n")

    def test_header_must_end_in_label(self):
        with pytest.raises(ValueError, match="line 1"):
            parse_dataset("a,b\n1,2\n")

    def test_ragged_row_names_line(self):
        with pytest.raises(ValueError, match="line 3"):
            parse_dataset("a,label\n1,0\n1\n")

    def test_non_integer_field_names_line(self):
        with pytest.raises(ValueError, match="line 2: non-integer"):
            parse_dataset("a,label\nx,0\n")

    @pytest.mark.parametrize("row", ["1_000,0", " 7 ,0", "7, 0", "+3,0", "3,+0", "\u0663,0",
                                     "3\t,0", "3\r,0", "3\x0c,0", " ", "\x0c", "1,0 "])
    def test_data_rows_hold_only_digits_commas_and_minus(self, row):
        # int() reads each of these fields; a data row may not spell them so
        text = f"a b+_\t,label\n1,0\n{row}\n2,1\n"
        with pytest.raises(ValueError) as e:
            parse_dataset(text, source="d.csv")
        message = "expected 2 fields, got 1" if "," not in row else "non-integer field"
        assert str(e.value) == f"d.csv: line 3: {message}"

    def test_leading_zeros_still_read(self):
        # refused only at a cost that would show in a parse (see CHANGES.md)
        ds = parse_dataset("a,label\n007,0\n-0,1\n")
        assert (ds.columns, ds.labels) == (((7, 0),), (0, 1))

    def test_labels_must_be_dense(self):
        with pytest.raises(ValueError, match="missing \\[1\\]"):
            parse_dataset("a,label\n1,0\n2,2\n")

    def test_huge_label_rejected_in_bounded_memory(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=r"1000000000 missing, first missing \[0, 1, 2\]"):
                parse_dataset("a,label\n1,1000000000\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_negative_label(self):
        with pytest.raises(ValueError, match="negative label"):
            parse_dataset("a,label\n1,-1\n")

    def test_blank_lines_skipped(self):
        ds = parse_dataset("a,label\n1,0\n\n2,1\n")
        assert (ds.columns, ds.labels) == (((1, 2),), (0, 1))

    @pytest.mark.parametrize("brk", ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85",
                                     "\u2028", "\r"])
    def test_only_lf_ends_a_line(self, brk):
        # str.splitlines would make the malformed line 2 two training rows
        with pytest.raises(ValueError) as e:
            parse_dataset(f"a,label\n1,2{brk}3,0\n5,1\n")
        assert str(e.value) == "<data>: line 2: expected 2 fields, got 3"

    def test_crlf_file_parses_as_lf(self, tmp_path):
        text = "a,b,label\n1,2,0\n\n3,4,1\n"
        path = tmp_path / "d.csv"
        path.write_bytes(text.replace("\n", "\r\n").encode())
        assert load_dataset(str(path)) == parse_dataset(text, source=str(path))
        assert parse_dataset(text.rstrip("\n")) == parse_dataset(text)

    def test_non_ascii_line_counts_only_lf(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,label\n\x0c1,0\n2,1\x1c\n\xc3,1\n")
        with pytest.raises(ValueError) as e:
            load_dataset(str(path))
        assert str(e.value) == f"{path}: line 4: non-ASCII byte 0xc3"

    @given(st.data())
    @settings(max_examples=200)
    def test_rows_and_ranges_match_column_reference(self, data):
        arity = data.draw(st.integers(1, 5))
        count = data.draw(st.one_of(st.integers(1, 12), st.integers(13, 300)))
        classes = data.draw(st.integers(1, count))
        labels = data.draw(st.permutations([i % classes for i in range(count)]))
        features = data.draw(st.lists(st.tuples(*[st.integers(-1000, 1000)] * arity),
                                      min_size=count, max_size=count))
        lines = [",".join(map(str, f + (label,))) for f, label in zip(features, labels)]
        for _ in range(data.draw(st.integers(0, 3))):  # blank lines anywhere, skipped
            lines.insert(data.draw(st.integers(0, len(lines))), "")
        header = ",".join(f"f{i}" for i in range(arity)) + ",label"
        ds = parse_dataset("\n".join([header] + lines) + "\n", source="t.csv")
        columns = tuple(tuple(f[i] for f in features) for i in range(arity))
        assert (ds.columns, ds.labels) == (columns, tuple(labels))
        assert ds.rows == tuple(zip(features, labels))
        assert ds.feature_ranges == tuple((min(c), max(c)) for c in columns)

        # bad lines: a field that is not an integer, a field too many or few, or
        # a negative label; the error names the first of them in file order
        rows = [k for k, line in enumerate(lines) if line]
        messages = []
        for k in sorted(data.draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3,
                                           unique=True))):
            fields = lines[k].split(",")
            fault = data.draw(st.sampled_from(["field", "count", "label"]))
            if fault == "field":
                fields[data.draw(st.integers(0, arity))] = data.draw(
                    st.sampled_from(["x", "1.5", "", "--1", "1e3", "0x10", "+"]))
                message = "non-integer field"
            elif fault == "count":
                fields = fields[:-1] if data.draw(st.booleans()) else fields + ["7"]
                message = f"expected {arity + 1} fields, got {len(fields)}"
            else:
                fields[-1] = str(-data.draw(st.integers(1, 1000)))
                message = f"negative label {fields[-1]}"
            lines[k] = ",".join(fields)
            messages.append(f"t.csv: line {k + 2}: {message}")
        with pytest.raises(ValueError) as got:
            parse_dataset("\n".join([header] + lines) + "\n", source="t.csv")
        assert str(got.value) == messages[0]

    @pytest.mark.parametrize("header, message", [
        (",label", "feature column 1 has no name"),
        ("a, ,label", "feature column 2 has no name"),
        ("a,b,a,label", "feature 'a' names columns 1 and 3"),
        ("a, a,label", "feature 'a' names columns 1 and 2"),
    ])
    def test_feature_names_are_present_and_distinct(self, header, message):
        # an empty name, or one that two columns share, could not name a column
        # in a range fault ("row 2, feature 'a'")
        row = ",".join(["1"] * header.count(",")) + ",0"
        with pytest.raises(ValueError) as got:
            parse_dataset(f"{header}\n{row}\n", source="d.csv")
        assert str(got.value) == f"d.csv: line 1: {message}"


class TestQuantizerWords:
    def test_words(self):
        q = QuantizationSpec(4, 6, "one_hot")
        assert quantizer_words(q, ((1, 4), (-3, 0))) == "one_hot 4 6 1 4 -3 0"
        assert read_quantizer("one_hot 4 6 1 4 -3 0", 12) == (q, ((1, 4), (-3, 0)))

    @given(st.data())
    @settings(max_examples=200)
    def test_round_trip(self, data):
        length = data.draw(st.integers(1, 40))
        q = QuantizationSpec(data.draw(st.integers(1, length)), length,
                             data.draw(st.sampled_from(QUANT_FAMILIES)))
        lows = data.draw(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=6))
        ranges = tuple((lo, lo + data.draw(st.integers(0, 10**6))) for lo in lows)
        words = quantizer_words(q, ranges)
        assert read_quantizer(words, length * len(ranges)) == (q, ranges)
        # any other width is refused, and so is any respelt field
        with pytest.raises(ValueError, match="^line 1: "):
            read_quantizer(words, length * len(ranges) + 1)
        fields = words.split(" ")
        at = data.draw(st.integers(1, len(fields) - 1))
        fields[at] = data.draw(st.sampled_from(["+", "0", "0_", " "])) + fields[at]
        with pytest.raises(ValueError, match="^line 1: "):
            read_quantizer(" ".join(fields), length * len(ranges))

    def test_no_words_is_a_version_1_model(self):
        with pytest.raises(ValueError, match="^the model records no quantizer"):
            read_quantizer("", 4)


class TestBinning:
    def test_formula(self):
        # bin = (v - lo) * bins // (hi - lo + 1)
        assert bin_column((1, 4), 1, 4, 4) == [0, 3]
        assert bin_column((5, 4), 0, 9, 2) == [1, 0]

    def test_min_maps_to_bin_zero(self):
        assert bin_column((-3,), -3, 12, 7) == [0]

    def test_max_maps_to_top_bin(self):
        for bins in (1, 2, 5, 16):
            assert bin_column((12,), -3, 12, bins) == [bins - 1]

    def test_degenerate_range_single_value(self):
        assert bin_column((5,), 5, 5, 3) == [0]

    def test_out_of_range(self):
        with pytest.raises(ValueError, match="outside declared range"):
            bin_column((13,), 0, 12, 4)

    def test_clamp(self):
        assert bin_column((13, -2), 0, 12, 4, clamp=True) == [3, 0]

    def test_out_of_range_message_names_value_and_range(self):
        # the first value outside the range, in column order
        with pytest.raises(ValueError) as got:
            bin_column((5, 1200, -1), 0, 999, 4)
        assert str(got.value) == "value 1200 outside declared range 0..999"

    @pytest.mark.parametrize("value, lo, hi", [(5, 7, 3), (3, 4, 3), (4, 4, 3), (-9, 0, -1)])
    def test_empty_range_holds_no_value_even_clamped(self, value, lo, hi):
        for clamp in (False, True):
            with pytest.raises(ValueError) as got:
                bin_column((value,), lo, hi, 4, clamp=clamp)
            assert str(got.value) == f"value {value} outside declared range {lo}..{hi}"


class TestQuantizeEncode:
    def test_fixed_family_segments(self):
        ds = parse_dataset("a,label\n1,0\n2,1\n3,2\n4,3\n")
        samples = quantize_encode(ds, QuantizationSpec(4, 4, "fixed"))
        assert [str(s.input) for s in samples] == ["0000", "0001", "0011", "0111"]

    def test_minimum_value_gives_all_zero_segment(self):
        ds = parse_dataset("a,label\n10,0\n20,1\n")
        samples = quantize_encode(ds, QuantizationSpec(4, 6, "fixed"))
        assert str(samples[0].input) == "000000"

    def test_maximum_with_bins_equal_length(self):
        ds = parse_dataset("a,label\n0,0\n7,1\n")
        samples = quantize_encode(ds, QuantizationSpec(8, 8, "fixed"))
        assert sum(samples[1].input.bits) == 7

    def test_labels_one_hot(self):
        ds = parse_dataset("a,label\n1,0\n2,1\n3,2\n4,3\n")
        samples = quantize_encode(ds, QuantizationSpec(4, 4))
        assert str(samples[2].output) == "0010"

    def test_labels_one_hot_at_a_given_class_count(self):
        # a held-out set may skip a class and stop below the model's last one
        ds = parse_dataset("a,label\n1,0\n2,2\n", dense=False)
        samples = quantize_encode(ds, QuantizationSpec(4, 4), classes=5)
        assert [str(s.output) for s in samples] == ["10000", "00100"]
        with pytest.raises(ValueError, match="missing \\[1\\]"):
            parse_dataset("a,label\n1,0\n2,2\n")

    def test_one_hot_family(self):
        ds = parse_dataset("a,label\n1,0\n2,1\n3,2\n4,3\n")
        samples = quantize_encode(ds, QuantizationSpec(4, 4, "one_hot"))
        assert [str(s.input) for s in samples] == ["1000", "0100", "0010", "0001"]

    def test_multi_feature_concatenation(self):
        ds = parse_dataset("a,b,label\n0,3,0\n3,0,1\n")
        samples = quantize_encode(ds, QuantizationSpec(4, 4, "fixed"))
        assert str(samples[0].input) == "00000111"
        assert str(samples[1].input) == "01110000"

    def test_deterministic(self):
        ds = load_dataset(str(ANGLES_CSV))
        q = QuantizationSpec(4, 4)
        assert quantize_encode(ds, q) == quantize_encode(ds, q)

    def test_injective_per_bin(self):
        ds = parse_dataset("a,label\n" + "".join(f"{v},0\n" for v in range(8)))
        samples = quantize_encode(ds, QuantizationSpec(8, 8))
        assert len({s.input for s in samples}) == 8

    def test_out_of_range_names_row_and_feature(self):
        # queries encoded over the training ranges, as a held-out set is
        ranges = parse_dataset("a,b,label\n0,0,0\n9,999,1\n").feature_ranges
        queries = parse_dataset("a,b,label\n3,1,0\n4,1200,1\n10,-1,0\n")
        ds = dataclasses.replace(queries, feature_ranges=ranges)
        with pytest.raises(ValueError) as got:
            quantize_encode(ds, QuantizationSpec(4, 4))
        assert str(got.value) == "row 2, feature 'b': value 1200 outside declared range 0..999"
        clamped = quantize_encode(ds, QuantizationSpec(4, 4), clamp=True)
        assert [str(s.input) for s in clamped] == ["00010000", "00010111", "01110000"]

    @pytest.mark.parametrize("csv, got", [("a,label\n9,0\n1,1\n", 1),
                                          ("a,b,c,label\n9,0,5,0\n1,1,6,1\n", 3)],
                             ids=["missing-column", "extra-column"])
    def test_feature_count_must_match_ranges(self, csv, got):
        # a held-out set with a missing or an extra column, over 2-feature ranges
        ranges = parse_dataset("a,b,label\n0,0,0\n9,9,1\n").feature_ranges
        ds = dataclasses.replace(parse_dataset(csv), feature_ranges=ranges)
        with pytest.raises(ValueError) as e:
            quantize_encode(ds, QuantizationSpec(4, 4))
        assert str(e.value) == f"feature count mismatch: rows have {got}, feature_ranges has 2"

    def test_every_row_must_match_ranges(self):
        # a set built in code may lack a column, or hold a short one: it is
        # refused, not cut to the shortest column by the column pass
        ds = Dataset(("a",), ((1, 3),), (0, 1), ((0, 9), (0, 9)))
        with pytest.raises(ValueError) as e:
            quantize_encode(ds, QuantizationSpec(4, 4))
        assert str(e.value) == "feature count mismatch: rows have 1, feature_ranges has 2"
        for columns, message in [(((1, 3), (2,)), "feature 'b' has 1 rows, labels has 2"),
                                 (((1, 3, 5), (2, 4)), "feature 'a' has 3 rows, labels has 2")]:
            ds = Dataset(("a", "b"), columns, (0, 1), ((0, 9), (0, 9)))
            with pytest.raises(ValueError) as e:
                quantize_encode(ds, QuantizationSpec(4, 4))
            assert str(e.value) == message

    def test_no_feature_columns_keep_the_codec_error(self):
        # no feature or label is at fault, so the word's own error is raised
        ds = Dataset((), (), (0,), ())
        with pytest.raises(ValueError, match="^BitWord must contain at least one bit$"):
            quantize_encode(ds, QuantizationSpec(4, 4))

    @pytest.mark.parametrize("classes", [None, 3])
    def test_no_rows_is_named(self, classes):
        ds = Dataset(("a",), ((),), (), ((0, 9),))
        with pytest.raises(ValueError, match="^dataset has no rows to encode$"):
            quantize_encode(ds, QuantizationSpec(4, 4), classes=classes)

    def test_non_ascii_byte_names_file_line_and_byte(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"a,b,label\r\n1,2,0\r\n3,\xc3\xa9,1\n")
        with pytest.raises(ValueError) as e:
            load_dataset(str(path))
        assert str(e.value) == f"{path}: line 3: non-ASCII byte 0xc3"
        path.write_bytes(b"a,label\n1,0\n\xff")
        with pytest.raises(ValueError, match=r": line 3: non-ASCII byte 0xff$"):
            load_dataset(str(path))

    def test_negative_label_is_refused_not_indexed(self):
        ds = Dataset(("a",), ((1, 2),), (1, -1), ((1, 2),))
        with pytest.raises(ValueError, match=r"^value 0 outside 1\.\.2$"):
            quantize_encode(ds, QuantizationSpec(2, 2))

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="bins"):
            QuantizationSpec(0, 4)
        with pytest.raises(ValueError, match="< bins"):
            QuantizationSpec(5, 4)
        with pytest.raises(ValueError, match="family"):
            QuantizationSpec(4, 4, "thermo")

    def test_length_and_so_bins_are_bounded(self):
        assert QuantizationSpec(MAX_LENGTH, MAX_LENGTH).length == MAX_LENGTH == 1024
        with pytest.raises(ValueError, match=r"^length 1025 > 1024, the most a segment holds$"):
            QuantizationSpec(4, MAX_LENGTH + 1)
        with pytest.raises(ValueError, match=r"^length 1025 < bins 1026$"):
            QuantizationSpec(MAX_LENGTH + 2, MAX_LENGTH + 1)


class _Fault(Exception):
    def __init__(self, where, message):
        super().__init__(where, message)
        self.where, self.message = where, message


def _reference_encode(ds, q, clamp, classes):
    """quantize_encode one value at a time: bin_column of one value, then the codec."""
    classes = ds.num_classes if classes is None else classes
    width = q.length * len(ds.feature_ranges)
    samples = []
    for index, (features, label) in enumerate(zip(zip(*ds.columns), ds.labels)):
        row = 0
        for name, value, (lo, hi) in zip(ds.feature_names, features, ds.feature_ranges):
            try:
                [b] = bin_column((value,), lo, hi, q.bins, clamp=clamp)
                segment = (encode_fixed(b, q.length) if q.family == "fixed"
                           else encode_one_hot(b + 1, q.length))
            except ValueError as e:
                raise _Fault(f"row {index + 1}, feature {name!r}", str(e)) from None
            row = row << q.length | segment.value
        try:
            output = encode_one_hot(label + 1, classes)
        except ValueError as e:
            raise _Fault(f"row {index + 1}, label", str(e)) from None
        samples.append(TrainingSample(BitWord(row, width), output))
    return samples


@st.composite
def _encode_cases(draw):
    length = draw(st.integers(1, 40))
    q = QuantizationSpec(draw(st.integers(1, length)), length, draw(st.sampled_from(QUANT_FAMILIES)))
    ranges = []
    for _ in range(draw(st.integers(1, 6))):
        lo = draw(st.integers(-60, 60))
        ranges.append((lo, lo + draw(st.one_of(st.just(0), st.integers(0, 80)))))
    # classes: the eval path's class count, which a label may reach past
    classes = draw(st.one_of(st.none(), st.integers(1, 5)))
    top = draw(st.integers(0, 4)) if classes is None else classes
    count = draw(st.one_of(st.integers(1, 8), st.integers(9, 300)))
    rows = tuple(draw(st.lists(
        st.tuples(st.tuples(*[st.integers(lo - 3, hi + 3) for lo, hi in ranges]),
                  st.integers(0, top)),
        min_size=count, max_size=count)))
    names = tuple(f"f{i}" for i in range(len(ranges)))
    columns = tuple(zip(*[features for features, _ in rows]))
    labels = tuple(label for _, label in rows)
    return Dataset(names, columns, labels, tuple(ranges)), q, draw(st.booleans()), classes


class TestQuantizeEncodeReference:
    @given(_encode_cases())
    @settings(max_examples=200)
    # a label below 0: the codec refuses it; it must not index from the end
    @example((Dataset(("a",), ((1, 2, 3),), (0, -1, 1), ((1, 3),)),
              QuantizationSpec(3, 3), False, None))
    # an inverted range, clamped: it holds no value, so even a clamped one is refused
    @example((Dataset(("a",), ((5,),), (0,), ((7, 3),)), QuantizationSpec(4, 4), True, None))
    @example((Dataset(("a",), ((5,),), (0,), ((7, 3),)), QuantizationSpec(4, 4, "one_hot"),
              True, None))
    # a fault in a later column of an earlier row is the one named
    @example((Dataset(("a", "b"), ((0, 9), (9, 0)), (0, 0), ((0, 5), (0, 5))),
              QuantizationSpec(2, 2), False, 1))
    def test_matches_per_value_reference(self, case):
        ds, q, clamp, classes = case
        try:
            want = _reference_encode(ds, q, clamp, classes)
        except _Fault as fault:
            with pytest.raises(ValueError) as got:
                quantize_encode(ds, q, clamp=clamp, classes=classes)
            assert type(got.value) is ValueError
            # the message may name where the fault is, never anything else
            assert str(got.value) in (fault.message, f"{fault.where}: {fault.message}")
        else:
            assert quantize_encode(ds, q, clamp=clamp, classes=classes) == want


class TestEvaluate:
    def fit(self, radius=0):
        ds = load_dataset(str(ANGLES_CSV))
        samples = quantize_encode(ds, QuantizationSpec(4, 4))
        return train(samples, radius), samples

    def test_training_accuracy_at_radius_zero(self):
        net, samples = self.fit(0)
        report = evaluate(net, samples)
        assert report.exact_matches == report.total == 4
        assert report.accuracy == 1.0
        assert report.no_decision == 0

    def test_per_class_rates(self):
        net, samples = self.fit(0)
        report = evaluate(net, samples)
        assert report.per_class == {
            "1000": (1, 1), "0100": (1, 1), "0010": (1, 1), "0001": (1, 1)
        }

    def test_conflicting_regions_counted_as_no_decision(self):
        samples = [
            TrainingSample(bw("0000"), bw("10")),
            TrainingSample(bw("0011"), bw("01")),
        ]
        net = train(samples, 2)
        report = evaluate(net, samples)
        assert report.no_decision == 2
        assert report.exact_matches == 0

    def test_empty_samples_rejected(self):
        net, _ = self.fit(0)
        with pytest.raises(ValueError, match="no samples"):
            evaluate(net, [])

    def test_output_width_mismatch_rejected(self):
        net, _ = self.fit(0)
        with pytest.raises(ValueError, match="output width 2 != model output count 4"):
            evaluate(net, [TrainingSample(bw("0011"), bw("10"))])

    def test_report_lines_format(self):
        net, samples = self.fit(0)
        lines = evaluate(net, samples).lines()
        assert lines[0] == "samples\t4"
        assert "accuracy\t1.0000" in lines


def _segment_samples(family, length, features, classes):
    """Samples whose inputs concatenate `features` fixed or one-hot segments of
    `length` bits and whose outputs are any words of `classes` bits."""
    encode = encode_fixed if family == "fixed" else lambda v, n: encode_one_hot(v + 1, n)
    row = st.tuples(st.lists(st.integers(0, length - 1), min_size=features, max_size=features),
                    st.integers(0, (1 << classes) - 1))
    return st.lists(row, min_size=1, max_size=8).map(lambda rows: [
        TrainingSample(BitWord.from_string("".join(str(encode(v, length)) for v in values)),
                       BitWord(label, classes)) for values, label in rows])


@st.composite
def _sweep_cases(draw, held_out):
    family, length = draw(st.sampled_from(QUANT_FAMILIES)), draw(st.integers(1, 6))
    features, classes = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    training = draw(_segment_samples(family, length, features, classes))
    target = draw(_segment_samples(family, length, features, classes)) if held_out else training
    radius = st.integers(0, length * features + 1)
    return training, target, draw(radius), draw(st.lists(radius, min_size=1, max_size=6))


class TestSweep:
    def test_radius_zero_row_has_full_accuracy(self):
        ds = load_dataset(str(ANGLES_CSV))
        samples = quantize_encode(ds, QuantizationSpec(4, 4))
        rows = sweep_radius(train(samples, 0), [0, 1, 2], samples)
        assert rows[0][1].accuracy == 1.0
        assert rows[0][1].no_decision == 0

    def test_ball_volume_strictly_increases_until_saturation(self):
        ds = load_dataset(str(ANGLES_CSV))
        samples = quantize_encode(ds, QuantizationSpec(4, 4))
        rows = sweep_radius(train(samples, 0), list(range(7)), samples)
        volumes = [int(line.split("\t")[-1]) for line in sweep_table(rows, 4).splitlines()[1:]]
        for a, b in zip(volumes, volumes[1:]):
            assert b >= a
        assert volumes[:5] == sorted(set(volumes))  # strict until width 4
        assert volumes[4] == volumes[5] == volumes[6] == 16

    @pytest.mark.parametrize("held_out", [False, True])
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_each_report_is_evaluate_of_train(self, held_out, data):
        # the oracle trains one network per radius, as sweep_radius once did
        training, target, trained_at, radii = data.draw(_sweep_cases(held_out))
        got = sweep_radius(train(training, trained_at), radii, target)
        assert got == [(r, evaluate(train(training, r), target)) for r in radii]

    def test_empty_radius_range_rejected(self):
        with pytest.raises(ValueError, match="empty radius range"):
            sweep_radius(train([TrainingSample(bw("01"), bw("1"))], 0), [], [])

    def test_holdout_split(self):
        ds = load_dataset(str(ANGLES_CSV))
        samples = quantize_encode(ds, QuantizationSpec(4, 4))
        rows = sweep_radius(train(samples[:2], 0), [0], samples[2:])
        assert rows[0][1].total == 2

    def test_empty_eval_set_rejected(self):
        net = train([TrainingSample(bw("01"), bw("1"))], 0)
        with pytest.raises(ValueError, match="no samples"):
            sweep_radius(net, [0], [])

    def test_table_rendering(self):
        samples = [TrainingSample(bw("0101"), bw("1"))]
        text = sweep_table(sweep_radius(train(samples, 0), [0, 1], samples), 4)
        assert text.startswith("r\taccuracy\texact\tno_decision\tball_volume\n")
        assert "0\t1.0000\t1/1\t0\t1" in text


def test_ball_volume_matches_enumeration():
    from unarynet.bitvec import binary_encode, hamming_distance

    for width in (1, 4, 6):
        anchor = BitWord.zeros(width)
        for radius in range(width + 2):
            count = sum(
                1
                for v in range(1 << width)
                if hamming_distance(binary_encode(v, width), anchor) <= radius
            )
            assert hamming_ball_volume(width, radius) == count
