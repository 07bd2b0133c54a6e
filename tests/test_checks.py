import hashlib
import re
import tracemalloc
from itertools import compress, count
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from unarynet import bitvec, cc4, checks, codes
from unarynet.bitvec import BitWord
from unarynet.checks import (
    CheckGrid,
    PropertyResult,
    parse_grid,
    run_property_checks,
)
from unarynet.rng import Lcg64

SMALL_GRID = CheckGrid(
    metric_max_len=3,
    gray_width=6,
    fixed_lengths=(4, 8),
    gen_ks=(2, 3),
    widths=(4,),
    radii=(0, 1),
    training_sets=3,
    bias_vectors=20,
    seed=2,
)


def test_small_grid_all_pass():
    report = run_property_checks(SMALL_GRID)
    assert report.passed
    assert all(r.passed for r in report.results)


def test_reports_are_byte_identical_across_runs():
    a = run_property_checks(SMALL_GRID)
    b = run_property_checks(SMALL_GRID)
    assert a.render_machine() == b.render_machine()
    assert a.render_human() == b.render_human()


def test_machine_format_is_three_tab_separated_fields():
    report = run_property_checks(SMALL_GRID)
    for line in report.render_machine().splitlines():
        name, params, result = line.split("\t")
        assert name
        assert params
        assert result.split()[0] in ("pass", "fail")


def test_seed_changes_draws_but_not_outcome():
    a = run_property_checks(SMALL_GRID)
    b = run_property_checks(CheckGrid(
        metric_max_len=3, gray_width=6, fixed_lengths=(4, 8), gen_ks=(2, 3),
        widths=(4,), radii=(0, 1), training_sets=3, bias_vectors=20, seed=3))
    assert a.passed and b.passed


def _sha256(text):
    return hashlib.sha256(text.encode("ascii")).hexdigest()


@pytest.fixture(scope="module")
def default_report():
    return run_property_checks(CheckGrid())


def test_default_grid_machine_output_is_pinned(default_report):
    assert _sha256(default_report.render_machine()) == (
        "63079766ed844dfeee2c41a15c73a238c2ee77dc9892db4f642e5ebd9fe40cae")


def test_default_grid_human_output_is_pinned(default_report):
    assert _sha256(default_report.render_human()) == (
        "31e2f6d0894502fc5d83f4418611233f6956b2b0e434cac186ff543b565ea6df")


def test_quick_grid_machine_output_is_pinned():
    assert _sha256(run_property_checks(checks.QUICK_GRID).render_machine()) == (
        "d947cfc067c83f9a405d7665abe4239b293880ca0284608228a8eeebb4c72d38")


def _fail(name, params, counterexample):
    """The machine and human lines of a cell that failed on one counterexample."""
    return (f"{name}\t{params}\tfail counterexample={counterexample}",
            f"FAIL {name} [{params.replace(',', ' ')}] counterexample: {counterexample}")


# one codec function at a time, broken on a single value, and the exact
# lines of every codec cell that fails for it
_CODEC_FAULTS = {
    "encode_fixed": (
        codes, lambda real: lambda n, length: real(4 if n == 3 else n, length), [
            _fail("uniform-distance-law", "L=8", "x=0,y=3,d=4,want=3"),
            _fail("weight-monotone", "L=8", "n=3,w=4,w_next=4"),
            _fail("roundtrip-fixed", "L=8", "n=3,back=4"),
            _fail("thermometer-equivalence", "L=8",
                  "v=3,transform=11100000,reversed=11110000"),
        ]),
    "decode_fixed": (
        codes, lambda real: lambda w: real(w) + (real(w) == 2), [
            _fail("roundtrip-fixed", "L=8", "n=2,back=3"),
        ]),
    "gray_encode": (
        bitvec, lambda real: lambda n, width: real(n ^ (n == 6), width), [
            _fail("gray-adjacency", "width=4", "n=5,d=2"),
            _fail("gray-roundtrip", "width=4", "n=6,back=7"),
            _fail("gray-nonuniformity-witness", "width=4",
                  "d(3,4)=1,d(1,6)=2"),
        ]),
    "gray_decode": (
        bitvec, lambda real: lambda w: real(w) + (w.value == 6), [
            _fail("gray-roundtrip", "width=4", "n=4,back=5"),
        ]),
    "binary_encode": (
        bitvec, lambda real: lambda n, width: real(5 if n == 4 else n, width), [
            _fail("gray-adjacency", "width=4", "n=6,d=0"),
            _fail("gray-roundtrip", "width=4", "n=7,back=6"),
            _fail("binary-nonuniformity-witness", "width=4",
                  "d(3,4)=2,d(1,5)=1"),
        ]),
    "decode_generalized": (  # decode_basic is decode_generalized(w, 1)
        codes, lambda real: lambda w, k: real(w, k) + (real(w, k) == 5), [
            _fail("roundtrip-basic", "N=8", "n=5,back=6"),
        ]),
    "encode_generalized": (  # encode_basic is encode_generalized(n, 1, n)
        codes, lambda real: lambda n, k, top: real(1 if n == 2 else n, k, top), [
            _fail("roundtrip-basic", "N=8", "n=2,back=1"),
            _fail("generalized-scaling", "k=1,N=8", "x=0,y=2,d=1,want=2"),
            _fail("generalized-scaling", "k=3,N=8", "x=0,y=2,d=3,want=6"),
            ("generalized-min-distance\tk=3,N=8\tfail measured=0 claimed=2",
             "FAIL generalized-min-distance [k=3 N=8] measured=0 claimed=2 "
             "(measured minimum distance 0 differs from claimed k-1=2)"),
        ]),
    "one_hot_to_thermometer": (
        codes, lambda real: lambda w: BitWord(real(w).value ^ (w.value == 4), w.width), [
            _fail("thermometer-equivalence", "L=8",
                  "v=6,transform=11111101,reversed=11111100"),
        ]),
    "hamming_weight": (
        bitvec, lambda real: lambda w: 0 if w.value == 7 else real(w), [
            _fail("weight-monotone", "L=8", "n=2,w=2,w_next=0"),
        ]),
    "hamming_distance": (  # d(fixed(3), fixed(0)) only, not d(fixed(0), fixed(3))
        bitvec, lambda real: lambda a, b: real(a, b) + (a.value == 7 and b.value == 0), [
            _fail("uniform-distance-law", "L=8", "x=3,y=0,d=4,want=3"),
        ]),
    "min_pairwise_distance": (
        codes, lambda real: lambda words: real(words) - 1, [
            ("generalized-min-distance\tk=3,N=8\tfail measured=2 claimed=2",
             "FAIL generalized-min-distance [k=3 N=8] measured=2 claimed=2"),
        ]),
}


@pytest.mark.parametrize("function", sorted(_CODEC_FAULTS))
def test_codec_fault_fails_exactly_its_cells(monkeypatch, function):
    module, breaker, lines = _CODEC_FAULTS[function]
    monkeypatch.setattr(module, function, breaker(getattr(module, function)))
    results = [
        checks.check_gray_adjacency(4), checks.check_gray_roundtrip(4),
        checks.check_binary_nonuniformity(), checks.check_gray_nonuniformity(),
        checks.check_uniform_distance_law(8), checks.check_weight_monotone(8),
        checks.check_roundtrip_basic(8), checks.check_roundtrip_fixed(8),
        checks.check_thermometer_equivalence(8), checks.check_generalized_scaling(1, 8),
        checks.check_generalized_scaling(3, 8), checks.check_generalized_min_distance(3, 8),
    ]
    assert [(r.machine_line(), r.human_line()) for r in results if not r.passed] == lines


def _saved_with(edit):
    """A save_network breaker: edit(lines) changes the saved text's lines."""
    def breaker(real):
        def save(net):
            lines = real(net).splitlines()
            edit(lines)
            return "\n".join(lines) + "\n"
        return save
    return breaker


def _bias_off_by_one(lines):
    signs, _, bias = lines[2].rpartition(" ")
    lines[2] = f"{signs} {int(bias) + 1}"


def _first_output_weight_up(lines):
    lines[-1] = "1" + lines[-1][lines[-1].index(" "):]  # of the last output row


def _first_weight_as_float(lines):
    lines[1] = lines[1].replace("1", "1.0", 1)  # "1.0" or "-1.0"


def _twice(real):
    """A train that iterates its samples twice."""
    def train(samples, radius):
        list(samples)
        return real(samples, radius)
    return train


def _raise_once(real):
    calls = count()

    def distance(a, b):
        if next(calls) == 0:
            raise ValueError("transient")
        return real(a, b)
    return distance


def _raise_always(message):
    def breaker(real):
        def broken(*args):
            raise ValueError(message)
        return broken
    return breaker


# one fault at a time that fails one cell, and that cell's machine line after
# its name
_CELL_FAULTS = {
    "bias-rule": (
        cc4, "save_network", _saved_with(_bias_off_by_one),
        lambda: checks.check_bias_rule(3, 4, 1, Lcg64(1)),
        "count=3,width=4,r=1\tfail counterexample=sample=1,s=3,bias=0,want=-1"),
    "complement-symmetry": (
        cc4, "save_network", _saved_with(_first_output_weight_up),
        lambda: checks.check_complement_symmetry(4, 3, 2, 1, Lcg64(1)),
        "width=4,r=1\tfail counterexample=sample=0,bit=1"),
    "one-pass-training": (
        cc4, "train", _twice,
        lambda: checks.check_one_pass(4, 3, 2, Lcg64(1)),
        "width=4,samples=3\tfail counterexample=iterations=2"),
    "integer-exactness": (
        cc4, "save_network", _saved_with(_first_weight_as_float),
        lambda: checks.check_integer_exactness(4, Lcg64(1)),
        "width=4\tfail counterexample=non-integer value observed"),
    "generalized-min-distance": (
        codes, "min_pairwise_distance", _raise_always("no words"),
        lambda: checks.check_generalized_min_distance(3, 8),
        "k=3,N=8\tfail counterexample=error=no words"),
    "metric-axioms": (
        bitvec, "hamming_distance", _raise_once,
        lambda: checks.check_metric_axioms(3),
        "len=3\tfail counterexample=error=transient"),
}


@pytest.mark.parametrize("cell", sorted(_CELL_FAULTS))
def test_cell_fault_fails_its_cell(monkeypatch, cell):
    module, function, breaker, run, line = _CELL_FAULTS[cell]
    monkeypatch.setattr(module, function, breaker(getattr(module, function)))
    assert run().machine_line() == f"{cell}\t{line}"


def test_min_distance_audit_reports_both_values():
    result = checks.check_generalized_min_distance(3, 8)
    assert result.measured == 3
    assert result.claimed == 2
    assert result.passed
    assert "differs" in result.note
    line = result.machine_line()
    assert "measured=3" in line and "claimed=2" in line


def test_min_distance_audit_flags_k1_too():
    result = checks.check_generalized_min_distance(1, 8)
    assert result.measured == 1 and result.claimed == 0
    assert result.note is not None


def test_broken_encoder_yields_counterexample(monkeypatch):
    from unarynet import codes

    real = codes.encode_fixed

    def crooked(n, length):
        if n == 3:
            return real(4, length)
        return real(n, length)

    monkeypatch.setattr(codes, "encode_fixed", crooked)
    result = checks.check_uniform_distance_law(8)
    assert not result.passed
    assert result.counterexample is not None
    assert "x=" in result.counterexample
    assert "fail" in result.machine_line()


def test_broken_training_caught_by_radius_law(monkeypatch):
    real = cc4.train

    def off_by_one(samples, radius):
        return real(samples, radius + 1)

    monkeypatch.setattr(cc4, "train", off_by_one)
    result = checks.check_radius_law(4, 1, 3, 5, 2, Lcg64(1))
    assert not result.passed
    assert result.counterexample == "set=0,neuron=1,x=0000,fired=1,sum=0"


def _flip_fired_bit(monkeypatch, query, neuron, from_call=0):
    """hidden_activations that flips one neuron's fire bit on one query, from
    that query's from_call-th call on."""
    real = cc4.hidden_activations
    calls = []

    def flipped(net, x):
        fired = real(net, x)
        if x.value != query:
            return fired
        calls.append(x)
        if len(calls) <= from_call:
            return fired
        return BitWord(fired.value ^ 1 << (fired.width - 1 - neuron), fired.width)

    monkeypatch.setattr(cc4, "hidden_activations", flipped)


def test_flipped_fire_bit_caught_by_radius_law(monkeypatch):
    _flip_fired_bit(monkeypatch, 0b1001, 2)
    result = checks.check_radius_law(4, 1, 3, 5, 2, Lcg64(1))
    assert result == PropertyResult(
        "radius-law", {"width": 4, "r": 1, "sets": 3}, False,
        counterexample="set=0,neuron=2,x=1001,fired=1,sum=-1")


def test_fire_word_of_the_wrong_width_caught_by_radius_law(monkeypatch):
    real = cc4.hidden_activations
    monkeypatch.setattr(cc4, "hidden_activations",
                        lambda net, x: BitWord(real(net, x).value, real(net, x).width + 1))
    result = checks.check_radius_law(4, 1, 3, 5, 2, Lcg64(1))
    assert result.counterexample == "set=0,x=0000,fired_width=4,want_width=3"


def test_flipped_first_neuron_caught_in_a_later_set(monkeypatch):
    _flip_fired_bit(monkeypatch, 0b1011001110, 0, from_call=1)
    result = checks.check_radius_law(10, 3, 20, 10, 2, Lcg64(1))
    assert result.counterexample == "set=1,neuron=0,x=1011001110,fired=1,sum=-2"


def _rows_by_tuples(samples, radius):
    """Reference hidden rows: +1/-1 weights per input bit and the bias r - s + 1."""
    return [(tuple(1 if b else -1 for b in s.input.bits), radius - sum(s.input.bits) + 1)
            for s in samples]


def _radius_law_by_lists(width, radius, sets, max_samples, output_bits, rng):
    """Reference: each row's sums as a list doubled once per weight, and each
    x's fire flags behind a 1 that fixes the width, compared word by word."""
    inputs = [BitWord(v, width) for v in range(1 << width)]

    def misses():
        for t in range(sets):
            samples = rng.next_training_set(max_samples, width, output_bits)
            net = cc4.train(samples, radius)
            table = []  # table[i][x.value]: neuron i's sum on every x, a weight at a time
            for weights, bias in _rows_by_tuples(samples, radius):
                table.append([bias])
                for weight in reversed(weights):  # the lowest bit first
                    table[-1] += [s + weight for s in table[-1]]
            want = [1] * len(inputs)
            for sums in table:
                want = [w << 1 | (s > 0) for w, s in zip(want, sums)]
            got = [(f := cc4.hidden_activations(net, x)).value | 1 << f.width for x in inputs]
            if got != want:
                x = next(x for x, g, w in zip(inputs, got, want) if g != w)
                fired, wanted = bin(got[x.value])[3:], bin(want[x.value])[3:]
                if len(fired) != len(wanted):
                    yield f"set={t},x={x},fired_width={len(fired)},want_width={len(wanted)}"
                    continue
                i = next(i for i, (f, w) in enumerate(zip(fired, wanted)) if f != w)
                yield f"set={t},neuron={i},x={x},fired={fired[i]},sum={table[i][x.value]}"
    return checks._cell("radius-law", {"width": width, "r": radius, "sets": sets}, misses())


def _training_reproduction_by_lists(width, radius, sets, max_samples, output_bits, rng):
    """Reference: every sum, fired neuron and vote rebuilt from the words' bits."""
    def misses():
        for t in range(sets):
            samples = rng.next_training_set(max_samples, width, output_bits)
            net = cc4.train(samples, radius)
            rows = _rows_by_tuples(samples, radius)
            for i, sample in enumerate(samples):
                sums = [bias + sum(compress(weights, sample.input.bits))
                        for weights, bias in rows]
                fired = [s for s, total in zip(samples, sums) if total > 0]
                expected_bits = []
                for o in range(output_bits):
                    vote = sum(1 if s.output[o] else -1 for s in fired)
                    expected_bits.append(1 if vote > 0 else 0)
                got = cc4.infer(net, sample.input)
                if got != BitWord.from_bits(expected_bits):
                    yield f"set={t},sample={i},got={got},want={''.join(map(str, expected_bits))}"
    return checks._cell("training-reproduction",
                        {"width": width, "r": radius, "sets": sets}, misses())


def _faulty(real, kind, call, position, extra):
    """real, except on its call-th call (counted from 0): that word with bit
    position flipped, a word of extra bits more (or one fewer), or a raise."""
    calls = count()

    def faulty(net, x):
        word = real(net, x)
        if next(calls) != call or kind == "none":
            return word
        if kind == "flip":
            return BitWord(word.value ^ 1 << position % word.width, word.width)
        if kind == "raise":
            raise ValueError(f"injected at {x}")
        if extra < 0 and word.width > 1:
            return BitWord(word.value >> 1, word.width - 1)
        return BitWord(word.value, word.width + abs(extra))
    return faulty


@st.composite
def _faulted_cells(draw, per_x):
    """A small cell, a seed, and a fault on one of the cell's library calls:
    one per (set, x) when per_x, else at most one per (set, sample)."""
    width, sets, max_samples = draw(st.integers(1, 6)), draw(st.integers(1, 4)), draw(
        st.integers(1, 32))
    calls = sets << width if per_x else sets * max_samples
    return ((width, draw(st.integers(0, 7)), sets, max_samples, draw(st.integers(1, 3))),
            draw(st.integers(0, 1 << 16)),
            (draw(st.sampled_from(["flip", "width", "raise", "none"])),
             draw(st.integers(0, calls - 1)), draw(st.integers(0, 40)),
             draw(st.sampled_from([-1, 1, 2, 40]))))


@settings(max_examples=150, deadline=None)
@given(_faulted_cells(per_x=True))
def test_radius_law_matches_list_reference_under_faults(drawn):
    args, seed, fault = drawn
    with pytest.MonkeyPatch.context() as mp:
        real = cc4.hidden_activations
        mp.setattr(cc4, "hidden_activations", _faulty(real, *fault))
        got = checks.check_radius_law(*args, Lcg64(seed))
        mp.setattr(cc4, "hidden_activations", _faulty(real, *fault))
        assert got == _radius_law_by_lists(*args, Lcg64(seed))


@settings(max_examples=150, deadline=None)
@given(_faulted_cells(per_x=False))
def test_training_reproduction_matches_list_reference_under_faults(drawn):
    args, seed, fault = drawn
    with pytest.MonkeyPatch.context() as mp:
        real = cc4.infer
        mp.setattr(cc4, "infer", _faulty(real, *fault))
        got = checks.check_training_reproduction(*args, Lcg64(seed))
        mp.setattr(cc4, "infer", _faulty(real, *fault))
        assert got == _training_reproduction_by_lists(*args, Lcg64(seed))


@pytest.mark.parametrize("radius, fault", [
    (0, ("none", 0, 0, 0)), (12, ("none", 0, 0, 0)),
    # neuron 0, the top bit of the last x's lane
    (0, ("flip", 4095, 31, 0)), (12, ("flip", 4095, 31, 0)),
])
def test_radius_law_at_the_lane_limits(radius, fault):
    """Width 12, 32 samples and 8 output bits, the grid's outer bounds: the
    first set fills every flag lane, and its sums reach -11 at r = 0 (on each
    anchor's complement) and 13 at r = 12 (on each anchor)."""
    seed = next(seed for seed in range(1000) if 1 + Lcg64(seed).next_below(32) == 32)
    args = (12, radius, 2, 32, 8)
    with pytest.MonkeyPatch.context() as mp:
        real = cc4.hidden_activations
        mp.setattr(cc4, "hidden_activations", _faulty(real, *fault))
        got = checks.check_radius_law(*args, Lcg64(seed))
        mp.setattr(cc4, "hidden_activations", _faulty(real, *fault))
        assert got == _radius_law_by_lists(*args, Lcg64(seed))
    assert got.passed == (fault[0] == "none")


def _break_distance(monkeypatch, broken):
    """hamming_distance that returns broken(a, b, d) for the true distance d."""
    real = bitvec.hamming_distance
    monkeypatch.setattr(
        bitvec, "hamming_distance", lambda a, b: broken(a.value, b.value, real(a, b)))


def _on_pair(pair, delta):
    return lambda a, b, d: d + delta if {a, b} == pair else d


@pytest.mark.parametrize(
    "length, broken, name, counterexample",
    [
        (3, lambda a, b, d: d + (a < b), "metric-symmetry", "a=000,b=001"),
        (3, lambda a, b, d: 0 if {a, b} == {2, 5} else d, "metric-identity",
         "a=010,b=101,d=0"),
        # d(001, 110) = 6, above L = 3
        (3, _on_pair({1, 6}, 3), "metric-range", "a=001,b=110,d=6"),
        (8, _on_pair({0x5A, 0xC3}, 3), "metric-triangle",
         "a=01011010,b=00000010,c=11000011"),
        # negative distances
        (3, lambda a, b, d: -2 if {a, b} == {3, 4} else d, "metric-range",
         "a=011,b=100,d=-2"),
        (8, _on_pair({0x5A, 0xC3}, -5), "metric-range",
         "a=01011010,b=11000011,d=-1"),
    ],
)
def test_broken_distance_caught_by_metric_axioms(
        monkeypatch, length, broken, name, counterexample):
    _break_distance(monkeypatch, broken)
    assert checks.check_metric_axioms(length) == PropertyResult(
        name, {"len": length}, False, counterexample=counterexample)


def test_distance_far_out_of_range_fails_in_bounded_memory(monkeypatch):
    monkeypatch.setattr(bitvec, "hamming_distance", lambda a, b: (a.value - b.value) ** 2)
    tracemalloc.start()
    try:
        result = checks.check_metric_axioms(8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert result == PropertyResult(
        "metric-range", {"len": 8}, False, counterexample="a=00000000,b=00000011,d=9")
    assert peak < 8 << 20


def _metric_axioms_by_triple_loop(length):
    """Reference: every pair for symmetry and identity, then for range, then
    every triple."""
    words = [BitWord(v, length) for v in range(1 << length)]
    count = len(words)
    dist = [[bitvec.hamming_distance(a, b) for b in words] for a in words]
    for i in range(count):
        for j in range(i, count):
            if dist[i][j] != dist[j][i]:
                return PropertyResult(
                    "metric-symmetry", {"len": length}, False,
                    counterexample=f"a={words[i]},b={words[j]}")
            if (dist[i][j] == 0) != (i == j):
                return PropertyResult(
                    "metric-identity", {"len": length}, False,
                    counterexample=f"a={words[i]},b={words[j]},d={dist[i][j]}")
    for i in range(count):
        for j in range(count):
            if not 0 <= dist[i][j] <= length:
                return PropertyResult(
                    "metric-range", {"len": length}, False,
                    counterexample=f"a={words[i]},b={words[j]},d={dist[i][j]}")
    for i in range(count):
        for j in range(count):
            for c in range(count):
                if dist[i][c] > dist[i][j] + dist[j][c]:
                    return PropertyResult(
                        "metric-triangle", {"len": length}, False,
                        counterexample=f"a={words[i]},b={words[j]},c={words[c]}")
    return PropertyResult("metric-axioms", {"len": length}, True)


@st.composite
def _distance_tables(draw):
    """An L <= 3 table; most hold values in 1..L and are symmetric with a
    zero diagonal, so that the triangle pass is reached. The rest hold values
    in -2..L+3."""
    length = draw(st.integers(1, 3))
    count = 1 << length
    values = st.integers(1, length) if draw(st.integers(0, 3)) else st.integers(-2, length + 3)
    table = [[draw(values) for _ in range(count)] for _ in range(count)]
    if draw(st.integers(0, 3)):
        for i in range(count):
            table[i][i] = 0
            for j in range(i):
                table[i][j] = table[j][i]
    return length, table


@settings(max_examples=300)
@given(_distance_tables())
def test_metric_axioms_match_triple_loop(drawn):
    length, table = drawn
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bitvec, "hamming_distance", lambda a, b: table[a.value][b.value])
        assert checks.check_metric_axioms(length) == _metric_axioms_by_triple_loop(length)


class TestGuards:
    def test_fixed_length_guard(self):
        with pytest.raises(ValueError, match="guard"):
            CheckGrid(fixed_lengths=(65,))

    def test_width_guard(self):
        with pytest.raises(ValueError, match="guard"):
            CheckGrid(widths=(13,))

    def test_repetition_guard(self):
        with pytest.raises(ValueError, match="guard"):
            CheckGrid(gen_ks=(6,))

    def test_metric_guard(self):
        with pytest.raises(ValueError, match="guard"):
            CheckGrid(metric_max_len=9)

    def test_unknown_parameter_is_named(self):
        with pytest.raises(TypeError, match=r"^CheckGrid has no parameter 'wdiths'$"):
            CheckGrid(wdiths=(4,))

    def test_guards_run_in_table_order(self):
        # each key's emptiness, then its bounds, before the next key's
        message = r"^grid guard exceeded: metric length must be 1\.\.8$"
        with pytest.raises(ValueError, match=message):
            CheckGrid(metric_max_len=99, fixed_lengths=())


class TestParseGrid:
    def test_presets(self):
        assert parse_grid("default") == CheckGrid()
        assert parse_grid("quick") == checks.QUICK_GRID

    def test_key_value_overrides(self):
        grid = parse_grid("widths=4/8,radii=0-3,sets=5,seed=7")
        assert grid.widths == (4, 8)
        assert grid.radii == (0, 1, 2, 3)
        assert grid.training_sets == 5
        assert grid.seed == 7
        assert grid.fixed_lengths == CheckGrid().fixed_lengths

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown grid key"):
            parse_grid("bogus=3")

    def test_bad_value(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_grid("sets=abc")

    def test_missing_equals(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_grid("widths")

    def test_guard_applies_to_parsed_grid(self):
        for spec, message in [
            ("ks=2-7", "repetition k must be"),
            ("radii=3-1", "radii must not be empty"),
            ("ks=3-2", "gen_ks must not be empty"),
            ("widths=5-4", "widths must not be empty"),
            ("lengths=9-8", "fixed_lengths must not be empty"),
            ("sets=1000000000", "training_sets must be 1..100"),
            ("samples=1000000000", "max_samples must be 1..32"),
            ("outbits=100000", "output_bits must be 1..8"),
            ("bias=1000000000", "bias_vectors must be 1..1000"),
            ("radii=13", "radii must be 0..12"),
            ("samples=1000000000,sets=1000000000,outbits=100000,bias=1000000000",
             "training_sets must be"),
            ("widths=1-65", "widths range 1-65 is longer than 64"),
            ("radii=0-100000000000000000000", "radii range .* is longer than 64"),
            ("widths=" + "/".join(["12"] * 1000), "widths list has 1000 values, more than 64"),
            ("radii=1/1/1", "radii list 1/1/1 repeats a value"),
        ]:
            with pytest.raises(ValueError, match=f"guard exceeded: {message}"):
                parse_grid(spec)

    @pytest.mark.parametrize("spec, key", [
        ("radii=0,radii=1", "radii"), ("metric=2,sets=3,metric=2", "metric"),
        ("seed=1, seed=1", "seed"),
    ])
    def test_repeated_key_refused(self, spec, key):
        with pytest.raises(ValueError, match=f"^grid key '{key}' is given twice$"):
            parse_grid(spec)

    def test_readme_lists_every_bound(self):
        """The README's list of grid bounds is the bounds table, key for key."""
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme[readme.index("### check"):readme.index("## Determinism")]
        listed = {key: (int(lo), int(hi))
                  for key, lo, hi in re.findall(r"`(\w+)`\s+(\d+)\.\.(\d+)", section)}
        assert listed == {key: (lo, hi) for key, (_, _, lo, hi, label)
                          in checks._BOUNDS.items() if label}

    def test_long_range_rejected_before_it_is_built(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="widths range 1-1000000000"):
                parse_grid("widths=1-1000000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestLcg:
    def test_documented_recurrence(self):
        rng = Lcg64(1)
        expected = (6364136223846793005 * 1 + 1442695040888963407) % 2**64
        assert rng.next_u64() == expected

    def test_bit_is_top_bit(self):
        a, b = Lcg64(42), Lcg64(42)
        assert a.next_bit() == b.next_u64() >> 63

    def test_words_reproducible(self):
        assert Lcg64(5).next_word(16) == Lcg64(5).next_word(16)

    def test_training_set_shape(self):
        sets = Lcg64(9).next_training_set(10, 6, 2)
        assert 1 <= len(sets) <= 10
        assert all(len(s.input) == 6 and len(s.output) == 2 for s in sets)


def test_result_formatting_with_counterexample():
    result = PropertyResult(
        "demo", {"L": 4}, False, counterexample="x=1,y=2")
    assert result.machine_line() == "demo\tL=4\tfail counterexample=x=1,y=2"
    assert result.human_line().startswith("FAIL demo [L=4]")


def test_every_core_invariant_has_a_cell():
    names = {r.name for r in run_property_checks(SMALL_GRID).results}
    assert {
        "metric-axioms",
        "gray-adjacency",
        "gray-roundtrip",
        "binary-nonuniformity-witness",
        "gray-nonuniformity-witness",
        "uniform-distance-law",
        "weight-monotone",
        "roundtrip-basic",
        "roundtrip-fixed",
        "thermometer-equivalence",
        "generalized-scaling",
        "generalized-min-distance",
        "radius-law",
        "training-reproduction",
        "bias-rule",
        "complement-symmetry",
        "one-pass-training",
        "integer-exactness",
    } <= names
