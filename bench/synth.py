"""Seeded workload inputs, generated without importing the library.

The benchmark keeps its own copy of the 64-bit LCG recurrence documented in
``unarynet/rng.py`` so that a change to the library's generator cannot change
a workload's inputs:

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2**64

Bounded draws use the high 32 bits of the new state (the low bits of a
power-of-two LCG have short periods). The program under test only ever sees
the CSV text these functions return.
"""

from __future__ import annotations

MULTIPLIER = 6364136223846793005
INCREMENT = 1442695040888963407
MASK64 = (1 << 64) - 1

FEATURES = 8
VALUE_MAX = 999  # raw feature values are 0..VALUE_MAX
BINS = 32        # each feature is binned into 32 bins of a 32-bit segment
CLASSES = 4


class Lcg:
    def __init__(self, seed: int):
        self.state = seed & MASK64

    def below(self, n: int) -> int:
        self.state = (MULTIPLIER * self.state + INCREMENT) & MASK64
        return (self.state >> 32) % n


def label_of(features: tuple[int, ...]) -> int:
    """Class from two balanced comparisons, so labels are learnable."""
    f = features
    return 2 * (f[0] + f[1] > f[2] + f[3]) + (f[4] + f[5] > f[6] + f[7])


def draw_rows(rng: Lcg, count: int) -> list[tuple[tuple[int, ...], int]]:
    rows = []
    for _ in range(count):
        features = tuple(rng.below(VALUE_MAX + 1) for _ in range(FEATURES))
        rows.append((features, label_of(features)))
    return rows


def training_rows(rng: Lcg, count: int) -> list[tuple[tuple[int, ...], int]]:
    """count rows; the first two pin every feature's range to 0..VALUE_MAX."""
    lo = (0,) * FEATURES
    hi = (VALUE_MAX,) * FEATURES
    rows = [(lo, label_of(lo)), (hi, label_of(hi))] + draw_rows(rng, count - 2)
    labels = {label for _, label in rows}
    if labels != set(range(CLASSES)):
        raise ValueError(f"generated labels {sorted(labels)} are not dense")
    return rows


def to_csv(rows: list[tuple[tuple[int, ...], int]]) -> str:
    header = ",".join(f"f{i}" for i in range(FEATURES)) + ",label"
    body = [",".join(map(str, features)) + f",{label}" for features, label in rows]
    return "\n".join([header] + body) + "\n"


def workload_rows(
    seed: int, train_count: int, query_count: int
) -> tuple[list, list]:
    """Training rows then held-out query rows, both from one seeded stream."""
    rng = Lcg(seed)
    train = training_rows(rng, train_count)
    queries = draw_rows(rng, query_count)
    return train, queries
