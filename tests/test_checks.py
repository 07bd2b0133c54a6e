import hashlib
import tracemalloc

import pytest

from unarynet import checks
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


def test_default_grid_machine_output_is_pinned():
    text = run_property_checks(CheckGrid()).render_machine()
    assert hashlib.sha256(text.encode("ascii")).hexdigest() == (
        "63079766ed844dfeee2c41a15c73a238c2ee77dc9892db4f642e5ebd9fe40cae")


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
    from unarynet import cc4

    real = cc4.train

    def off_by_one(samples, radius):
        return real(samples, radius + 1)

    monkeypatch.setattr(cc4, "train", off_by_one)
    result = checks.check_radius_law(4, 1, 3, 5, 2, Lcg64(1))
    assert not result.passed
    assert "neuron=" in result.counterexample


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
