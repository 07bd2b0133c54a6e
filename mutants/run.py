"""Mutant gate: each mutant in MUTANTS must make the tests named for it fail.

    python3 mutants/run.py    # every mutant, one pytest process at a time

Run from the repository root; it needs pytest and hypothesis, and nothing else
outside the standard library. Each row names a file under src/, the exact old
text, the new text, and the test ids that must kill the mutant. Every mutant
is made in a fresh temporary copy of src/ and tests/ (with data/, which tests
read, and pyproject.toml, pytest's settings), never in the working tree, and
its tests run there with -x and PYTHONPATH=src.

The gate fails (exit 1) when a mutant's old text does not occur exactly once
in its file, so that a refactor must update the table; when the unmutated
copy fails any named test (run once, all together); or when a mutant
survives, that is, its named tests all pass. A run that times out counts as
killed and is reported as such. Exit 0: every mutant was killed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 300
# hypothesis draws from a fixed seed, so a mutant is killed or not on every run
PYTEST = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
          "--hypothesis-seed=0"]

CC4, FIRE = "src/unarynet/cc4.py", "tests/test_cc4.py::TestBlockFilter::"
LANES = FIRE + "test_kept_set_is_the_byte_table_marking_of_the_lane_sums"

# (what it breaks, file, old text, new text, test ids that must kill it)
MUTANTS = [
    ("the compare's | and & switch moved to t <= 128", CC4,
     "* ones, t < 128)", "* ones, t <= 128)", [LANES]),
    ("no top bit set before the subtraction, so lanes borrow", CC4,
     "d = (total | top) - limit", "d = total - limit", [LANES]),
    ("t = 256 no longer keeps every lane", CC4,
     "(t if t < 128 else t - 128) * ones", "(t if t < 128 else t & 0x7F) * ones", [LANES]),
    ("the walked lane index moved one lane", CC4,
     "yield top >> 3", "yield (top >> 3) + 1",
     [FIRE + "test_kept_set_on_both_sides_of_the_find_switch[1]",
      FIRE + "test_filtered_fire_test_matches_distance"]),
    ("the top-bit walk stops one kept short of _WALK", CC4,
     "count <= _WALK", "count < _WALK",
     [FIRE + "test_kept_set_on_both_sides_of_the_find_switch[16]",
      FIRE + "test_kept_set_on_both_sides_of_the_find_switch[203-16]"]),
    ("the packed fire word shifted by the wrong pad", CC4,
     ">> -h % 8, h)", ">> h % 8, h)",
     ["tests/test_cc4.py::TestInference::test_fire_word_across_byte_and_word_boundaries[129]"]),
    ("a packed fire bit set from the wrong end of its byte", CC4,
     "bits[i >> 3] |= 128 >> (i & 7)", "bits[i >> 3] |= 1 << (i & 7)",
     ["tests/test_cc4.py::TestInference::test_fire_word_across_byte_and_word_boundaries[1000]"]),
    ("a tied vote sets the output bit", CC4,
     "(fired & column).bit_count() > count", "(fired & column).bit_count() >= count",
     ["tests/test_cc4.py::TestInference::test_contradictory_duplicate_inputs_tie_to_zero"]),
    ("< for <= in the shifted-int fire test", CC4,
     "fired << 1 | ((query ^ anchor).bit_count() <= radius)",
     "fired << 1 | ((query ^ anchor).bit_count() < radius)",
     ["tests/test_acceptance.py::test_criterion_4_radius_law"]),
    ("a clamped value below the range lands one value up", "src/unarynet/dataset.py",
     "min(max(v, lo), hi)", "min(max(v, lo + 1), hi)",
     ["tests/test_dataset.py::TestBinning::test_clamp_at_one_bin_per_value",
      "tests/test_cli.py::TestEvalEncodesAsTrained::"
      "test_clamp_puts_values_outside_the_range_in_the_end_bins"]),
    ("sweep accepts --r-max of the pattern width + 1", "src/unarynet/cli.py",
     "args.r_max > width:", "args.r_max > width + 1:",
     ["tests/test_cli.py::TestSweep::test_r_max_bounded_by_pattern_width"]),
]


def copy_tree(into: Path) -> None:
    """src/, tests/, data/ and pyproject.toml of the working tree."""
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests", "data"):
        shutil.copytree(ROOT / name, into / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", into / "pyproject.toml")


def run_tests(where: Path, tests: list[str]) -> tuple[bool | None, float, str]:
    """(passed, seconds, last output line); passed is None on a timeout."""
    env = dict(os.environ, PYTHONPATH="src", PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(PYTEST + tests, cwd=where, env=env, capture_output=True,
                              text=True, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, time.perf_counter() - start, f"timed out after {TIMEOUT_S} s"
    lines = (done.stdout + done.stderr).strip().splitlines() or [""]
    return done.returncode == 0, time.perf_counter() - start, lines[-1]


def main() -> int:
    faults = []
    for what, path, old, _, _ in MUTANTS:
        count = (ROOT / path).read_text(encoding="utf-8").count(old)
        if count != 1:
            faults.append(f"{path}: old text {old!r} ({what}) occurs {count} times, not once")
    if faults:
        print("\n".join(faults))
        return 1
    with tempfile.TemporaryDirectory(prefix="mutants-") as workdir:
        base = Path(workdir) / "base"
        copy_tree(base)
        everything = list(dict.fromkeys(t for *_, tests in MUTANTS for t in tests))
        passed, seconds, last = run_tests(base, everything)
        print(f"unmutated: {'pass' if passed else 'FAIL'} in {seconds:.1f} s: {last}", flush=True)
        if not passed:
            return 1
        for k, (what, path, old, new, tests) in enumerate(MUTANTS, 1):
            tree = Path(workdir) / f"mutant-{k}"
            copy_tree(tree)
            target = tree / path
            target.write_text(target.read_text(encoding="utf-8").replace(old, new),
                              encoding="utf-8")
            passed, seconds, last = run_tests(tree, tests)
            verdict = "SURVIVED" if passed else "killed"
            print(f"{k}. {verdict} in {seconds:.1f} s: {what}: {last}", flush=True)
            if passed:
                faults.append(f"mutant {k} survived: {what}")
            shutil.rmtree(tree)
    print("\n".join(faults) if faults else f"all {len(MUTANTS)} mutants killed")
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
