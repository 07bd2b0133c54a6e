"""In-memory span tracing over the library's public functions.

``install`` replaces every public function of the traced modules, on every
module attribute a caller looks it up by (``dataset.infer`` as well as
``cc4.infer``), with a wrapper that records a span: name, start, end and the
span that was open when it started. ``BitWord`` construction and
``BitWord.from_string`` and the ``Lcg64`` methods are wrapped on their class.
A few wrappers also count work (neurons evaluated and fired, model bytes,
evaluation outcomes, property cells). ``uninstall`` puts the originals back.

A span's self time is its duration minus the durations of its child spans.
Spans live in typed arrays, 24 bytes each, so a default-grid check of some
440 000 calls costs about 11 MB; ``write`` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import inspect
import json
import time
from array import array

import unarynet
from unarynet import bitvec, cc4, checks, cli, codes, dataset, rng

TRACED_MODULES = (bitvec, codes, rng, dataset, cc4, checks, cli)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_ids = array("I")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.counts: dict[str, int] = {}
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def count(self, key: str, amount: int) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def wrap(self, name: str, fn, hook=None):
        """fn with a span around each call; hook(args, result) runs after it."""
        name_id = len(self.names)
        self.names.append(name)
        ids, parents, starts, ends = self.name_ids, self.parents, self.starts, self.ends
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(ids)
            ids.append(name_id)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, result)
            return result

        return traced

    def patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def span_totals(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, self seconds), summed over every span."""
        count = len(self.name_ids)
        child = [0.0] * count
        starts, ends, parents = self.starts, self.ends, self.parents
        for i in range(count):
            p = parents[i]
            if p >= 0:
                child[p] += ends[i] - starts[i]
        calls = [0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for i, name_id in enumerate(self.name_ids):
            calls[name_id] += 1
            self_s[name_id] += ends[i] - starts[i] - child[i]
        return {
            name: (calls[i], self_s[i])
            for i, name in enumerate(self.names)
        }

    def write(self, prefix: str) -> None:
        """<prefix>.json holds names and counts; <prefix>.spans the four arrays."""
        with open(prefix + ".spans", "wb") as fh:
            for column in (self.name_ids, self.parents, self.starts, self.ends):
                column.tofile(fh)
        meta = {
            "names": self.names,
            "spans": len(self.name_ids),
            "columns": [
                ["name_id", "I"], ["parent", "i"], ["start", "d"], ["end", "d"]
            ],
            "counts": self.counts,
        }
        with open(prefix + ".json", "w", encoding="ascii") as fh:
            json.dump(meta, fh, indent=1)


def _public_functions(module):
    for attr, value in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(value)
                and value.__module__ == module.__name__):
            yield attr, value


def install(tracer: Tracer) -> None:
    def on_hidden(args, result):
        tracer.count("cc4.neurons_evaluated", len(result))
        tracer.count("cc4.neurons_fired", sum(result.bits))

    def on_model_text(text):
        tracer.counts["cc4.model_bytes"] = max(
            tracer.counts.get("cc4.model_bytes", 0), len(text))

    def on_evaluate(args, report):
        tracer.count("dataset.exact_matches", report.exact_matches)
        tracer.count("dataset.no_decision", report.no_decision)

    def on_checks(args, report):
        tracer.count("checks.cells", len(report.results))

    hooks = {
        "cc4.hidden_activations": on_hidden,
        "cc4.save_network": lambda args, text: on_model_text(text),
        "cc4.load_network": lambda args, net: on_model_text(args[0]),
        "dataset.evaluate": on_evaluate,
        "checks.run_property_checks": on_checks,
    }
    wrapped = {}
    for module in TRACED_MODULES:
        layer = module.__name__.rsplit(".", 1)[1]
        for attr, fn in _public_functions(module):
            name = f"{layer}.{attr}"
            wrapped[fn] = tracer.wrap(name, fn, hooks.get(name))
    # Install on every attribute that names a wrapped function, including
    # names other modules imported (dataset.infer, cc4.binary_encode, ...).
    for module in TRACED_MODULES + (unarynet,):
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrapped:
                tracer.patch(module, attr, wrapped[value])

    word = bitvec.BitWord
    tracer.patch(word, "__init__", tracer.wrap("bitvec.BitWord", word.__init__))
    tracer.patch(word, "from_string", classmethod(tracer.wrap(
        "bitvec.BitWord.from_string", word.__dict__["from_string"].__func__)))
    for attr, fn in list(vars(rng.Lcg64).items()):
        if not attr.startswith("_") and inspect.isfunction(fn):
            tracer.patch(rng.Lcg64, attr, tracer.wrap(f"rng.Lcg64.{attr}", fn))


# Per-layer metric -> span names whose self time (or call count) it sums.
SELF_TIME = {
    "cc4.hidden_activations.self_s": ("cc4.hidden_activations",),
    "cc4.infer.self_s": ("cc4.infer",),
    "cc4.train.self_s": ("cc4.train",),
    "cc4.save_network.self_s": ("cc4.save_network",),
    "cc4.load_network.self_s": ("cc4.load_network",),
    "dataset.parse_dataset.self_s": ("dataset.parse_dataset",),
    "dataset.quantize_encode.self_s": ("dataset.quantize_encode",),
    "dataset.evaluate.self_s": ("dataset.evaluate",),
    "codes.encode.fixed.self_s": ("codes.encode_fixed",),
    "codes.encode.one_hot.self_s": ("codes.encode_one_hot",),
    "codes.encode.basic.self_s": ("codes.encode_basic",),
    "codes.encode.generalized.self_s": ("codes.encode_generalized",),
    "bitvec.hamming_distance.self_s": ("bitvec.hamming_distance",),
    "bitvec.binary_encode.self_s": ("bitvec.binary_encode",),
    "bitvec.BitWord.construct_s": ("bitvec.BitWord",),
    "bitvec.from_string.self_s": ("bitvec.BitWord.from_string",),
    "checks.radius_law.self_s": ("checks.check_radius_law",),
    "checks.training_reproduction.self_s": ("checks.check_training_reproduction",),
    "checks.metric_axioms.self_s": ("checks.check_metric_axioms",),
    "checks.complement_symmetry.self_s": ("checks.check_complement_symmetry",),
    "cli.main.self_s": ("cli.main",),
    "rng.self_s": tuple(
        f"rng.Lcg64.{attr}" for attr, fn in vars(rng.Lcg64).items()
        if not attr.startswith("_") and inspect.isfunction(fn)),
}
CALLS = {
    "codes.encode.fixed.calls": "codes.encode_fixed",
    "codes.encode.one_hot.calls": "codes.encode_one_hot",
    "codes.encode.basic.calls": "codes.encode_basic",
    "codes.encode.generalized.calls": "codes.encode_generalized",
    "bitvec.hamming_distance.calls": "bitvec.hamming_distance",
    "bitvec.binary_encode.calls": "bitvec.binary_encode",
    "bitvec.BitWord.constructs": "bitvec.BitWord",
    "rng.draws": "rng.Lcg64.next_u64",
}
COUNTS = (
    "cc4.neurons_evaluated", "cc4.neurons_fired", "cc4.model_bytes",
    "dataset.exact_matches", "dataset.no_decision", "checks.cells",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Every span- and count-derived per-layer metric; 0 where a layer idled."""
    totals = tracer.span_totals()
    out: dict[str, float] = {}
    for metric, names in SELF_TIME.items():
        out[metric] = sum(totals.get(n, (0, 0.0))[1] for n in names)
    for metric, name in CALLS.items():
        out[metric] = totals.get(name, (0, 0.0))[0]
    for metric in COUNTS:
        out[metric] = tracer.counts.get(metric, 0)
    evaluated = out["cc4.neurons_evaluated"]
    out["cc4.fire_ratio"] = out["cc4.neurons_fired"] / evaluated if evaluated else 0.0
    out["trace.spans"] = len(tracer.name_ids)
    return out
