"""Tests of the benchmark's own parts: inputs, oracle, tracer, metric names.

Run from the repository root: python -m pytest -q bench/tests
"""

import json
import re
from pathlib import Path

import pytest

import oracle
import spans
import synth
import workloads
from unarynet import cc4, dataset
from unarynet.bitvec import BitWord

ROOT = Path(__file__).resolve().parents[2]


def test_generator_is_deterministic_per_seed():
    assert synth.workload_rows(7, 50, 20) == synth.workload_rows(7, 50, 20)
    assert synth.workload_rows(7, 50, 20) != synth.workload_rows(8, 50, 20)
    assert synth.to_csv(synth.workload_rows(7, 50, 20)[0]) == synth.to_csv(
        synth.workload_rows(7, 50, 20)[0])


def test_lcg_matches_documented_recurrence():
    rng = synth.Lcg(1)
    state = (6364136223846793005 * 1 + 1442695040888963407) % 2**64
    assert rng.below(1 << 32) == state >> 32


def test_training_rows_pin_ranges_and_cover_every_class():
    rows = synth.training_rows(synth.Lcg(3), 40)
    assert oracle.feature_ranges(rows) == [(0, synth.VALUE_MAX)] * synth.FEATURES
    assert {label for _, label in rows} == set(range(synth.CLASSES))


def _assert_oracle_matches(csv_text, queries, bins, family, radii):
    ds = dataset.parse_dataset(csv_text)
    spec = dataset.QuantizationSpec(bins, bins, family)
    samples = dataset.quantize_encode(ds, spec)
    rows = ds.rows
    ranges = oracle.feature_ranges(rows)
    width = bins * len(ranges)
    anchors = [oracle.encode(f, ranges, bins, bins, family) for f, _ in rows]
    for sample, anchor in zip(samples, anchors):
        assert str(sample.input) == oracle.bits(anchor, width)
    labels = [label for _, label in rows]
    for r in radii:
        net = cc4.train(samples, r)
        voter = oracle.BallVoter(anchors, labels, ds.num_classes, r)
        for x in queries(width):
            got = cc4.infer(net, BitWord.from_string(oracle.bits(x, width)))
            assert str(got) == voter.predict(x), (r, x)


def test_oracle_agrees_with_infer_on_angles():
    text = (ROOT / "data" / "angles.csv").read_text(encoding="ascii")
    _assert_oracle_matches(
        text, lambda width: range(1 << width), 4, "fixed", radii=range(0, 5))


@pytest.mark.parametrize("family", ["fixed", "one_hot"])
def test_oracle_agrees_with_infer_on_synthetic_set(family):
    train, queries = synth.workload_rows(11, 60, 30)
    bins = 8
    ranges = oracle.feature_ranges(train)
    words = [oracle.encode(f, ranges, bins, bins, family) for f, _ in queries]
    _assert_oracle_matches(
        synth.to_csv(train), lambda width: words, bins, family, radii=(0, 4, 10, 16))


def test_covering_radius_covers_the_requested_share():
    anchors = [0b0000, 0b1111]
    queries = [0b0001, 0b0011, 0b0111, 0b1000]
    assert oracle.nearest_distances(anchors, queries) == [1, 2, 1, 1]
    assert oracle.covering_radius(anchors, queries, 0.75) == 1
    assert oracle.covering_radius(anchors, queries, 1.0) == 2


def test_tracer_records_self_time_and_restores_originals():
    originals = (cc4.infer, dataset.infer, BitWord.__init__, BitWord.from_string)
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        samples = [cc4.TrainingSample(BitWord.from_string("0110"), BitWord.from_string("1"))]
        net = cc4.train(samples, 1)
        cc4.infer(net, BitWord.from_string("0111"))
    finally:
        tracer.uninstall()
    assert (cc4.infer, dataset.infer, BitWord.__init__, BitWord.from_string) == originals
    totals = tracer.span_totals()
    assert totals["cc4.infer"][0] == 1
    assert totals["cc4.hidden_activations"][0] == 1
    assert tracer.counts["cc4.neurons_evaluated"] == 1
    assert tracer.counts["cc4.neurons_fired"] == 1
    infer_index = tracer.names.index("cc4.infer")
    spans_of = [i for i, n in enumerate(tracer.name_ids) if n == infer_index]
    (i,) = spans_of
    duration = tracer.ends[i] - tracer.starts[i]
    assert 0 <= totals["cc4.infer"][1] < duration
    metrics = spans.layer_metrics(tracer)
    assert metrics["cc4.fire_ratio"] == 1.0


def test_metric_and_workload_names_use_the_allowed_characters():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    names += [w["name"] for w in spec["workloads"]]
    assert len(names) == len(set(names))
    for name in names:
        assert re.fullmatch(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}", name), name


def test_every_declared_per_layer_metric_is_computed():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    computed = set(spans.layer_metrics(spans.Tracer()))
    computed |= {"cli.process_start_s", "checks.machine_digest",
                 "trace.untraced_s", "trace.traced_s", "trace.overhead_s"}
    assert computed == {m["name"] for m in spec["per_layer"]}


def test_host_speed_scale_is_nominal_over_median_kernel_time():
    host = workloads.HostSpeed()
    host.times = [0.004, 0.001, 0.002]
    assert host.scale() == workloads.REF_NOMINAL_S / 0.002
    host.sample(2)
    assert len(host.times) == 5 and all(t > 0 for t in host.times[3:])


def test_rounds_meet_the_minimum_even_past_the_deadline():
    assert list(workloads.rounds(0, 3)) == [0, 1, 2]


def test_check_output_fails_on_a_failed_cell_or_another_digest():
    other = workloads.Result()
    workloads.check_machine_output(0, "metric-axioms\tlen=1\tpass\n", other)
    assert (other.attempted, other.failed) == (2, 1)  # cell passes, digest differs
    bad = workloads.Result()
    workloads.check_machine_output(0, "metric-axioms\tlen=1\tfail\n", bad)
    assert (bad.attempted, bad.failed) == (2, 2)
