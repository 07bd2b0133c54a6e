"""Acceptance gate for the distribution.

Nine criteria, each a single test that prints one pass/fail line (run with
``pytest tests/test_acceptance.py -v -s`` to see them live). Every criterion
re-derives its expected values with an oracle local to this module - integer
popcounts, exhaustive enumeration, golden files - rather than trusting the
library's own arithmetic.
"""

import ast
import itertools
import time
from pathlib import Path

from unarynet import cc4
from unarynet.bitvec import BitWord, binary_encode, gray_encode, hamming_distance
from unarynet.cc4 import TrainingSample, load_network, save_network, train
from unarynet.codes import encode_fixed, encode_generalized
from unarynet.dataset import QuantizationSpec, evaluate, load_dataset, quantize_encode
from unarynet.rng import Lcg64
from unarynet.tables import render_table1, render_table2

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "data"


def _run(number: int, name: str, budget: float, fn) -> None:
    start = time.perf_counter()
    try:
        fn()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"criterion {number} ({name}): FAIL after {elapsed:.3f}s")
        raise
    elapsed = time.perf_counter() - start
    verdict = "PASS" if elapsed < budget else "FAIL (over budget)"
    print(f"criterion {number} ({name}): {verdict} in {elapsed:.3f}s")
    assert elapsed < budget, (
        f"criterion {number} ({name}) took {elapsed:.3f}s, budget {budget}s"
    )


def _oracle_distance(a: BitWord, b: BitWord) -> int:
    """Popcount of the XOR of the integer forms; no BitWord arithmetic."""
    return (a.value ^ b.value).bit_count()


def test_criterion_1_table_reproduction():
    def check():
        t1 = render_table1()
        t2 = render_table2()
        assert t1 == (GOLDEN / "table1.golden").read_text()
        assert t2 == (GOLDEN / "table2.golden").read_text()
        rows1 = [line.split("\t") for line in t1.splitlines()]
        rows2 = [line.split("\t") for line in t2.splitlines()]
        assert len(rows1) == 7 and all(len(r) == 4 for r in rows1)
        assert len(rows2) == 11 and all(len(r) == 3 for r in rows2)

    _run(1, "table reproduction", 1.0, check)


def test_criterion_2_distance_witnesses():
    def check():
        assert hamming_distance(binary_encode(3, 4), binary_encode(4, 4)) == 3
        assert hamming_distance(binary_encode(1, 4), binary_encode(5, 4)) == 1
        assert hamming_distance(gray_encode(3, 4), gray_encode(4, 4)) == 1
        assert hamming_distance(gray_encode(1, 4), gray_encode(6, 4)) == 1

    _run(2, "distance witnesses", 1.0, check)


def test_criterion_3_uniform_distance_law():
    def check():
        words = [encode_fixed(x, 64) for x in range(65)]
        bad = [
            (x, y)
            for x in range(65)
            for y in range(65)
            if hamming_distance(words[x], words[y]) != abs(x - y)
        ]
        assert bad == [], f"{len(bad)} counterexamples, first {bad[0]}"
        weights = [sum(w.bits) for w in words]
        assert all(a < b for a, b in zip(weights, weights[1:])), (
            "weight not strictly monotone"
        )

    _run(3, "uniform-distance law", 1.0, check)


def test_criterion_4_radius_law():
    def check():
        violations = 0
        for width in (4, 8, 10):
            for r in (0, 1, 2, 3):
                rng = Lcg64((width << 8) | r)
                for _ in range(20):
                    samples = rng.next_training_set(10, width, 2)
                    net = train(samples, r)
                    masks = [s.input.value for s in samples]
                    for value in range(1 << width):
                        x = binary_encode(value, width)
                        fired = cc4.hidden_activations(net, x)
                        for i, mask in enumerate(masks):
                            d = (value ^ mask).bit_count()
                            if fired[i] != (1 if d <= r else 0):
                                violations += 1
        assert violations == 0, f"{violations} radius-law violations"

    _run(4, "radius law", 10.0, check)


def test_criterion_5_gray_adjacency():
    def check():
        for n in range(1023):
            d = hamming_distance(gray_encode(n, 10), gray_encode(n + 1, 10))
            assert d == 1, f"gray({n}) to gray({n + 1}) differ in {d} bits"

    _run(5, "gray adjacency", 1.0, check)


def test_criterion_6_bias_rule():
    def check():
        rng = Lcg64(3)
        out = BitWord.from_bits((1,))
        for _ in range(200):
            r = rng.next_below(4)
            vec = rng.next_word(16)
            net = train([TrainingSample(vec, out)], r)
            hidden_row = save_network(net).splitlines()[1].split()
            s = sum(vec.bits)
            assert int(hidden_row[-1]) == r - s + 1, (
                f"bias {hidden_row[-1]} != {r - s + 1} for s={s}, r={r}"
            )
        for r in (0, 1, 2, 3):
            net = train([TrainingSample(BitWord.zeros(16), out)], r)
            hidden_row = save_network(net).splitlines()[1].split()
            assert int(hidden_row[-1]) == r + 1

    _run(6, "bias rule", 1.0, check)


def test_criterion_7_generalized_distance_audit():
    def check():
        for k in (2, 3, 4, 5):
            words = [encode_generalized(n, k, 8) for n in range(9)]
            measured = min(
                _oracle_distance(a, b)
                for a, b in itertools.combinations(words, 2)
            )
            claimed = k - 1
            comparison = "matches" if measured == claimed else "differs from"
            print(
                f"  k={k}: measured min distance {measured}, "
                f"{comparison} the claimed k-1 = {claimed}"
            )
            assert measured == k, f"oracle expected {k}, measured {measured}"

    _run(7, "generalized distance audit", 1.0, check)


def test_criterion_8_end_to_end():
    def check():
        ds = load_dataset(str(ROOT / "data" / "angles.csv"))
        samples = quantize_encode(ds, QuantizationSpec(bins=4, length=4))
        net = train(samples, 0)
        report = evaluate(net, samples)
        assert report.exact_matches == report.total == 4
        assert report.accuracy == 1.0
        text = save_network(net)
        reloaded = load_network(text)
        assert save_network(reloaded) == text
        for sample in samples:
            assert cc4.infer(reloaded, sample.input) == cc4.infer(net, sample.input)
            assert cc4.infer(reloaded, sample.input) == sample.output

    _run(8, "end to end", 1.0, check)


def test_criterion_9_integer_purity():
    def check():
        src_dir = ROOT / "src" / "unarynet"
        for module in ("bitvec.py", "codes.py", "cc4.py"):
            tree = ast.parse((src_dir / module).read_text())
            for node in ast.walk(tree):
                if isinstance(node, ast.Constant):
                    assert not isinstance(node.value, (float, complex)), (
                        f"{module} line {node.lineno}: non-integer constant "
                        f"{node.value!r}"
                    )
                if isinstance(node, ast.BinOp):
                    assert not isinstance(node.op, ast.Div), (
                        f"{module} line {node.lineno}: true division"
                    )
                if isinstance(node, ast.Name):
                    assert node.id != "float", (
                        f"{module} line {node.lineno}: float conversion"
                    )

    _run(9, "integer purity", 1.0, check)
