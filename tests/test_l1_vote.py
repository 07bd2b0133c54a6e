"""The paper's two claims composed, checked end to end through `unarynet sweep`.

A fixed-length unary segment turns Hamming distance into |b - b'| between
bins, and a CC4 neuron fires exactly on the Hamming ball of radius r around
its training word. So on `fixed` inputs CC4 is a strict-majority vote over
the training rows within L1 distance r in bin space; on `one-hot` inputs the
distance is 2 per differing bin. The oracle below builds the whole sweep
table from the CSV rows with that law alone: it shares no code with the
package except the CLI entry point it calls.
"""

import contextlib
import io
import math
import tempfile
from pathlib import Path

from hypothesis import given, settings, strategies as st

from unarynet.cli import main

@st.composite
def sweeps(draw):
    features, classes = draw(st.integers(1, 3)), draw(st.integers(2, 3))
    spans = [(lo, lo + draw(st.integers(0, 5)))
             for lo in draw(st.lists(st.integers(-6, 6), min_size=features, max_size=features))]
    rows = draw(st.lists(st.tuples(*(st.integers(lo, hi) for lo, hi in spans)),
                         min_size=classes, max_size=20))
    labels = draw(st.permutations(range(classes)))  # dense: every class has a row
    labels += draw(st.lists(st.integers(0, classes - 1), min_size=len(rows) - classes,
                            max_size=len(rows) - classes))
    bins = draw(st.integers(1, 5))
    length = draw(st.integers(bins, bins + 2))
    r_max = draw(st.integers(0, features * length))
    return dict(rows=list(zip(rows, labels)), bins=bins, length=length,
                family=draw(st.sampled_from(["fixed", "one-hot"])),
                holdout=draw(st.sampled_from([None, 2, 3])),
                r_min=draw(st.integers(0, r_max)), r_max=r_max)


def oracle_table(rows, bins, length, family, holdout, r_min, r_max):
    ranges = [(min(column), max(column)) for column in zip(*(v for v, _ in rows))]
    binned = [([(v - lo) * bins // (hi - lo + 1) for v, (lo, hi) in zip(values, ranges)], y)
              for values, y in rows]
    if holdout is None:
        training = target = binned
    else:
        training = [row for i, row in enumerate(binned) if i % holdout]
        target = binned[::holdout]
    classes = max(y for _, y in rows) + 1
    width = length * len(ranges)

    def distance(a, b):
        if family == "fixed":
            return sum(abs(p - q) for p, q in zip(a, b))
        return 2 * sum(p != q for p, q in zip(a, b))

    table = "r\taccuracy\texact\tno_decision\tball_volume\n"
    for r in range(r_min, r_max + 1):
        exact = no_decision = 0
        for query, label in target:
            fired = [y for b, y in training if distance(query, b) <= r]
            bits = [2 * fired.count(c) > len(fired) for c in range(classes)]
            exact += bits == [c == label for c in range(classes)]
            no_decision += not any(bits)
        volume = sum(math.comb(width, i) for i in range(r + 1))
        table += (f"{r}\t{exact / len(target):.4f}\t{exact}/{len(target)}"
                  f"\t{no_decision}\t{volume}\n")
    return table


@settings(max_examples=150, deadline=None)
@given(sweeps())
def test_sweep_is_the_l1_ball_vote(case):
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "rows.csv"
        header = [f"f{i}" for i in range(len(case["rows"][0][0]))] + ["label"]
        lines = [header] + [[*values, label] for values, label in case["rows"]]
        data.write_text("".join(",".join(map(str, line)) + "\n" for line in lines))
        argv = ["sweep", "--data", str(data), "--r-min", str(case["r_min"]),
                "--r-max", str(case["r_max"]), "--bins", str(case["bins"]),
                "--length", str(case["length"]), "--family", case["family"]]
        if case["holdout"] is not None:
            argv += ["--holdout-every", str(case["holdout"])]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    assert (code, err.getvalue()) == (0, "")
    assert out.getvalue() == oracle_table(**case)
