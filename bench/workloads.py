"""The two benchmark workloads, each with a timed and a traced form.

Both run from one process on one thread as a closed loop with a single
client: the next operation starts when the previous one has returned.

* ``query-wide``  serves held-out queries one ``cc4.infer`` call at a time,
  and evaluates them in batches with ``dataset.evaluate``, on a model of
  2 000 training rows at pattern width 256 (8 features x 32-bit ``fixed``
  segments, 4 classes). Per-query inference costs O(h * n) and dominates.
* ``cli-session``  runs the command line as a user would, each command its
  own ``python -m unarynet.cli`` process: ``train`` on a 5 000-row CSV with
  ``--family one-hot``, ``predict`` against the saved model, and
  ``check --grid default --machine``. The first two are the write side (CSV
  parsing, encoding, training, the model file); ``check`` makes some 10^5
  calls on tiny networks, where per-call overhead dominates.

Every output is checked against ``oracle`` (int popcounts, no library
arithmetic) outside the timed region; ``check`` output is checked cell by
cell and by the digest of its machine rendering.
"""

from __future__ import annotations

import contextlib
import dataclasses
import gc
import hashlib
import io
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import oracle
import spans
import synth
from unarynet import cc4, cli, dataset

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".bench_work"
CLI_TIMEOUT_S = 120
clock = time.perf_counter

# Timings: each distinct operation (query, CLI command) repeats once or
# twice per round, and its time is the median of its repeats; medians and
# tails are then taken over the distinct operations. Set-up is timed once or
# twice per round and reported as the median. A round starts only if it can
# end before the deadline, judged by the previous round.
#
# Host-speed correction: other tenants of a shared machine slow every Python
# loop by up to 1.7x, for seconds to many minutes at a time, so whole runs
# differ in speed. Next to every timed operation the benchmark times a fixed
# pure-Python reference kernel that does not touch the library, and scales
# each time in a round by REF_NOMINAL_S / (median kernel time of that round).
# A time is thus what the operation would take on a host where the kernel
# runs in REF_NOMINAL_S; on a quiet machine the factor is close to 1.
REF_NOMINAL_S = 0.001

# query-wide
QW_TRAIN_ROWS = 2000
QW_QUERIES = 50         # distinct queries: the tail is p80, 10 beyond it
QW_BATCH = 5            # evaluate batch size
QW_MIN_ROUNDS = 3
QW_COVERAGE = 0.8       # radius: smallest r covering 80% of the queries

# cli-session
CS_ROWS = 5000
CS_RADIUS = 2           # one-hot segments differ by 2 bits per changed feature
CS_NOOPS_PER_CYCLE = 2
CS_PREDICTS_PER_CYCLE = 2
CS_MIN_CYCLES = 3
CS_START_REPEATS = 7    # process-start samples in the traced run
CS_REF_REPEATS = 5      # reference-kernel samples before each CLI process
CHECK_ARGS = ["check", "--grid", "default", "--machine"]
# sha256 of the default grid's --machine output (89 cells)
CHECK_MACHINE_SHA256 = "63079766ed844dfeee2c41a15c73a238c2ee77dc9892db4f642e5ebd9fe40cae"

PREFLIGHT_DATA = "data/angles.csv"


class PreflightError(RuntimeError):
    """The angles.csv round trip through the CLI failed; the run is invalid."""


@dataclasses.dataclass
class Result:
    attempted: int = 0
    failed: int = 0
    metrics: dict = dataclasses.field(default_factory=dict)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"wrong output: {what}", file=sys.stderr)


def run_python(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    """One ``python <args>`` process with ``PYTHONPATH=src``; returns
    (wall seconds, finished process)."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    start = clock()
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
        text=True, timeout=CLI_TIMEOUT_S)
    return clock() - start, proc


def run_cli(args: list[str]) -> tuple[float, subprocess.CompletedProcess]:
    return run_python(["-m", "unarynet.cli", *args])


def reference_kernel() -> int:
    """Fixed pure-Python work (dict, sort, str, int): the host-speed probe."""
    table = {}
    for i in range(4000):
        table[i] = (i * 2654435761) & 0xFFFF
    ordered = sorted(table.values())
    return len("".join(str(v & 1) for v in ordered[:2000])) + sum(ordered[::7])


class HostSpeed:
    """Reference-kernel times of one round, and the round's scale factor."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            start = clock()
            reference_kernel()
            self.times.append(clock() - start)

    def scale(self) -> float:
        return REF_NOMINAL_S / statistics.median(self.times)


def latency_summary(typical: list[float]) -> tuple[float, float]:
    """(median, tail) over distinct operations, each timed as the median of
    its repeats. The tail is the highest percentile that leaves at least 10
    operations beyond it, or the slowest when there are fewer than 11."""
    ordered = sorted(typical)
    return statistics.median(ordered), ordered[max(len(ordered) - 11, -1)]


def rounds(seconds: float, minimum: int):
    """Yield round numbers until `seconds` have passed and `minimum` rounds
    ran; a round starts only if the previous one's length still fits."""
    deadline = clock() + seconds
    count, last = 0, 0.0
    while count < minimum or clock() + last < deadline:
        start = clock()
        yield count
        last = clock() - start
        count += 1


def one_hot(label: int, classes: int) -> str:
    return "".join("1" if c == label else "0" for c in range(classes))


def preflight() -> None:
    """Train angles.csv at r=0 through the CLI and predict every row back."""
    WORK.mkdir(exist_ok=True)
    model = str(WORK / "angles.cc4")
    lines = (ROOT / PREFLIGHT_DATA).read_text(encoding="ascii").split()
    rows = [(tuple(map(int, line.split(",")[:-1])), int(line.split(",")[-1]))
            for line in lines[1:]]
    _, proc = run_cli(["train", "--data", PREFLIGHT_DATA, "--radius", "0",
                       "--bins", "4", "--length", "4", "--out", model])
    if proc.returncode != 0:
        raise PreflightError(f"train exited {proc.returncode}: {proc.stderr}")
    ranges = oracle.feature_ranges(rows)
    classes = max(label for _, label in rows) + 1
    width = 4 * len(rows[0][0])
    seen = set()
    for features, label in rows:
        word = oracle.bits(oracle.encode(features, ranges, 4, 4, "fixed"), width)
        _, proc = run_cli(["predict", "--model", model, "--input", word])
        want = one_hot(label, classes)
        if proc.returncode != 0 or proc.stdout.strip() != want:
            raise PreflightError(
                f"predict {word}: got {proc.stdout.strip()!r} "
                f"(exit {proc.returncode}), want {want}")
        seen.add(label)
    if seen != set(range(4)):
        raise PreflightError(f"labels returned {sorted(seen)}, want 0..3")


def traced(work) -> tuple[spans.Tracer, dict]:
    """Run `work` to warm up, then untraced and traced, timing both; return
    the tracer and the trace.* metrics."""
    work()
    gc.collect()
    start = clock()
    work()
    untraced = clock() - start
    tracer = spans.Tracer()
    spans.install(tracer)
    gc.collect()
    try:
        start = clock()
        work()
        traced_s = clock() - start
    finally:
        tracer.uninstall()
    return tracer, {
        "trace.untraced_s": untraced,
        "trace.traced_s": traced_s,
        "trace.overhead_s": traced_s - untraced,
    }


def finish_trace(name: str, seed: int, tracer: spans.Tracer, extra: dict) -> dict:
    WORK.mkdir(exist_ok=True)
    tracer.write(str(WORK / f"trace-{name}-seed{seed}"))
    metrics = spans.layer_metrics(tracer)
    metrics["cli.process_start_s"] = 0.0
    metrics["checks.machine_digest"] = 0
    metrics.update(extra)
    return metrics


# ---------------------------------------------------------------- query-wide

class QueryWide:
    def __init__(self, seed: int):
        train_rows, query_rows = synth.workload_rows(seed, QW_TRAIN_ROWS, QW_QUERIES)
        self.train_csv = synth.to_csv(train_rows)
        self.query_csv = synth.to_csv(query_rows)
        self.spec = dataset.QuantizationSpec(synth.BINS, synth.BINS, "fixed")
        ranges = oracle.feature_ranges(train_rows)
        width = synth.FEATURES * synth.BINS
        anchors = [oracle.encode(f, ranges, synth.BINS, synth.BINS, "fixed")
                   for f, _ in train_rows]
        words = [oracle.encode(f, ranges, synth.BINS, synth.BINS, "fixed")
                 for f, _ in query_rows]
        self.radius = oracle.covering_radius(anchors, words, QW_COVERAGE)
        voter = oracle.BallVoter(
            anchors, [label for _, label in train_rows], synth.CLASSES, self.radius)
        self.query_bits = [oracle.bits(x, width) for x in words]
        self.expected = [voter.predict(x) for x in words]
        self.truth = [one_hot(label, synth.CLASSES) for _, label in query_rows]
        covered = sum(1 for x in words if voter.fired(x))
        print(f"query-wide: r={self.radius} covered={covered}/{len(words)} "
              f"no_decision={self.expected.count('0' * synth.CLASSES)} "
              f"exact={sum(e == t for e, t in zip(self.expected, self.truth))}",
              file=sys.stderr)

    def setup(self):
        ds = dataset.parse_dataset(self.train_csv, source="train.csv")
        net = cc4.train(dataset.quantize_encode(ds, self.spec), self.radius)
        return ds, net

    def encode_queries(self, ds, result: Result) -> list:
        qds = dataclasses.replace(
            dataset.parse_dataset(self.query_csv, source="queries.csv"),
            feature_ranges=ds.feature_ranges)
        samples = dataset.quantize_encode(qds, self.spec)
        for i, sample in enumerate(samples):
            result.check(str(sample.input) == self.query_bits[i], f"query {i} encoding")
        return samples

    def check_outputs(self, outputs, reports, result: Result) -> None:
        for i, got in outputs:
            result.check(str(got) == self.expected[i], f"infer query {i}: {got}")
        for first, report in reports:
            idx = range(first, first + QW_BATCH)
            exact = sum(self.expected[i] == self.truth[i] for i in idx)
            none = sum(self.expected[i] == "0" * synth.CLASSES for i in idx)
            got = (report.total, report.exact_matches, report.no_decision)
            result.check(got == (QW_BATCH, exact, none),
                         f"evaluate batch {first}: {got} want {(QW_BATCH, exact, none)}")

    def measure(self, seconds: float) -> Result:
        result = Result()
        setup_times, scales = [], []
        ds, net = self.setup()
        samples = self.encode_queries(ds, result)
        batches = [(first, samples[first:first + QW_BATCH])
                   for first in range(0, QW_QUERIES, QW_BATCH)]
        latencies = [[] for _ in samples]
        eval_times = [[] for _ in batches]
        outputs, reports = [], []
        infer, evaluate = cc4.infer, dataset.evaluate
        for sample in samples[:5]:  # warm-up, not timed
            infer(net, sample.input)
        for count in rounds(seconds, QW_MIN_ROUNDS):
            host, timed = HostSpeed(), []  # (list it belongs to, raw seconds)
            gc.collect()
            host.sample()
            start = clock()
            self.setup()
            timed.append((setup_times, clock() - start))
            gc.collect()
            for i, sample in enumerate(samples):
                host.sample()
                start = clock()
                got = infer(net, sample.input)
                timed.append((latencies[i], clock() - start))
                outputs.append((i, got))
            for b, (first, batch) in enumerate(batches):
                host.sample()
                start = clock()
                report = evaluate(net, batch)
                timed.append((eval_times[b], clock() - start))
                reports.append((first, report))
            scales.append(host.scale())
            for into, seconds_taken in timed:
                into.append(seconds_taken * scales[-1])
        self.check_outputs(outputs, reports, result)
        p50, tail = latency_summary([statistics.median(t) for t in latencies])
        result.metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": 1000 * p50,
            "op_tail_ms": 1000 * tail,
            "throughput_per_s": QW_QUERIES / sum(statistics.median(t) for t in eval_times),
        }
        print(f"query-wide: {count + 1} rounds of {QW_QUERIES} infer calls and "
              f"{len(batches)} evaluate batches; host-speed scale median "
              f"{statistics.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}",
              file=sys.stderr)
        return result

    def trace(self, seed: int) -> Result:
        result = Result()
        state = {}

        def work():
            ds, net = self.setup()
            samples = self.encode_queries(ds, Result())
            state["outputs"] = [(i, cc4.infer(net, s.input)) for i, s in enumerate(samples)]
            state["reports"] = [
                (first, dataset.evaluate(net, samples[first:first + QW_BATCH]))
                for first in range(0, QW_QUERIES, QW_BATCH)]

        tracer, extra = traced(work)
        self.check_outputs(state["outputs"], state["reports"], result)
        result.metrics = finish_trace("query-wide", seed, tracer, extra)
        return result


# --------------------------------------------------------------- cli-session

TABLE1 = "".join(
    f"{n}\t{'1' * n}\t{n:b}\t{n ^ (n >> 1):0{n.bit_length()}b}\n" for n in range(1, 8))


def check_machine_output(code: int, text: str, result: Result) -> None:
    """Every cell of a ``check --machine`` run passed and the whole output
    has the pinned digest."""
    for line in text.splitlines():
        result.check(line.split("\t")[2].split()[0] == "pass", f"cell {line}")
    digest = hashlib.sha256(text.encode("ascii")).hexdigest()
    result.check(code == 0 and digest == CHECK_MACHINE_SHA256,
                 f"check: exit {code}, --machine digest {digest}")


class CliSession:
    def __init__(self, seed: int):
        rng = synth.Lcg(seed)
        rows = synth.training_rows(rng, CS_ROWS)
        WORK.mkdir(exist_ok=True)
        self.data = str(WORK / f"cli-seed{seed}.csv")
        self.model = str(WORK / f"cli-seed{seed}.cc4")
        Path(self.data).write_text(synth.to_csv(rows), encoding="ascii")
        ranges = oracle.feature_ranges(rows)
        self.width = synth.FEATURES * synth.BINS

        def encode(features):
            return oracle.encode(features, ranges, synth.BINS, synth.BINS, "one_hot")

        self.voter = oracle.BallVoter(
            [encode(f) for f, _ in rows], [label for _, label in rows],
            synth.CLASSES, CS_RADIUS)
        # Three predict queries: a training row, a training row with one
        # feature redrawn, and a fresh row (usually in no ball).
        exact = list(rows[rng.below(CS_ROWS)][0])
        moved = list(rows[rng.below(CS_ROWS)][0])
        moved[rng.below(synth.FEATURES)] = rng.below(synth.VALUE_MAX + 1)
        fresh = [rng.below(synth.VALUE_MAX + 1) for _ in range(synth.FEATURES)]
        self.queries = [encode(f) for f in (exact, moved, fresh)]
        self.train_args = [
            "train", "--data", self.data, "--radius", str(CS_RADIUS),
            "--bins", str(synth.BINS), "--length", str(synth.BINS),
            "--family", "one-hot", "--out", self.model]
        self.trained = (f"trained n={self.width + 1} h={CS_ROWS} "
                        f"m={synth.CLASSES} r={CS_RADIUS} -> {self.model}\n")

    def close(self) -> None:
        for path in (self.data, self.model):
            if os.path.exists(path):
                os.remove(path)

    def predict_args(self, k: int) -> list[str]:
        word = oracle.bits(self.queries[k], self.width)
        return ["predict", "--model", self.model, "--input", word]

    def want(self, k: int) -> str:
        return self.voter.predict(self.queries[k])

    def measure(self, seconds: float) -> Result:
        result = Result()
        setup_times, train_times, scales = [], [], []
        # Distinct commands: the three predicts, then check.
        op_times = [[] for _ in range(len(self.queries) + 1)]
        predicted, checked = [], []
        for _ in rounds(seconds, CS_MIN_CYCLES):
            host, timed = HostSpeed(), []  # (list it belongs to, raw seconds)

            def call(args, into):
                host.sample(CS_REF_REPEATS)
                wall, proc = run_cli(args)
                timed.append((into, wall))
                return proc

            for _ in range(CS_NOOPS_PER_CYCLE):
                proc = call(["table", "--which", "1"], setup_times)
                result.check(proc.returncode == 0 and proc.stdout == TABLE1,
                             "table --which 1")
            proc = call(self.train_args, train_times)
            result.check(proc.returncode == 0 and proc.stdout == self.trained,
                         f"train: exit {proc.returncode} {proc.stdout!r} {proc.stderr!r}")
            for _ in range(CS_PREDICTS_PER_CYCLE):
                k = len(predicted) % len(self.queries)
                proc = call(self.predict_args(k), op_times[k])
                predicted.append((k, proc.returncode, proc.stdout))
            proc = call(CHECK_ARGS, op_times[-1])
            checked.append((proc.returncode, proc.stdout))
            scales.append(host.scale())
            for into, wall in timed:
                into.append(wall * scales[-1])
        for k, code, out in predicted:
            result.check(code == 0 and out.strip() == self.want(k),
                         f"predict {k}: exit {code} {out!r} want {self.want(k)}")
        for code, out in checked:
            check_machine_output(code, out, result)
        p50, tail = latency_summary([statistics.median(t) for t in op_times])
        result.metrics = {
            "setup_s": statistics.median(setup_times),
            "op_p50_ms": 1000 * p50,
            "op_tail_ms": 1000 * tail,
            "throughput_per_s": CS_ROWS / statistics.median(train_times),
        }
        print(f"cli-session: {len(train_times)} train, {len(predicted)} predict, "
              f"{len(checked)} check calls; host-speed scale median "
              f"{statistics.median(scales):.3f}, range {min(scales):.3f}-{max(scales):.3f}",
              file=sys.stderr)
        return result

    def trace(self, seed: int) -> Result:
        result = Result()
        outputs = []

        def call(args):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = cli.main(args)
            return code, out.getvalue()

        def work():
            outputs.clear()
            outputs.append(call(["table", "--which", "1"]))
            outputs.append(call(self.train_args))
            for k in range(len(self.queries)):
                outputs.append(call(self.predict_args(k)))
            outputs.append(call(CHECK_ARGS))

        tracer, extra = traced(work)
        *commands, (check_code, check_text) = outputs
        wants = [TABLE1, self.trained] + [
            self.want(k) + "\n" for k in range(len(self.queries))]
        for (code, out), want in zip(commands, wants):
            result.check(code == 0 and out == want, f"in-process cli: {out!r} want {want!r}")
        check_machine_output(check_code, check_text, result)
        extra["checks.machine_digest"] = int(
            hashlib.sha256(check_text.encode("ascii")).hexdigest()[:8], 16)
        extra["cli.process_start_s"] = statistics.median(
            run_python(["-c", "import unarynet.cli"])[0]
            for _ in range(CS_START_REPEATS))
        result.metrics = finish_trace("cli-session", seed, tracer, extra)
        return result


WORKLOADS = {"query-wide": QueryWide, "cli-session": CliSession}


def run(name: str, seed: int, seconds: float, trace: bool) -> Result:
    preflight()
    workload = WORKLOADS[name](seed)
    try:
        return workload.trace(seed) if trace else workload.measure(seconds)
    finally:
        if hasattr(workload, "close"):
            workload.close()
