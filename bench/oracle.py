"""Reference answers computed without the library's arithmetic.

Words are plain Python ints, leftmost bit most significant, so a Hamming
distance is ``(x ^ a).bit_count()``. A trained CC4 network fires hidden
neuron i on x exactly when that distance to training word i is at most r,
and output bit c is set when the fired neurons' +1/-1 votes for c sum to
more than zero.
"""

from __future__ import annotations

import math


def feature_ranges(rows) -> list[tuple[int, int]]:
    arity = len(rows[0][0])
    return [
        (min(f[i] for f, _ in rows), max(f[i] for f, _ in rows))
        for i in range(arity)
    ]


def encode(features, ranges, bins: int, length: int, family: str) -> int:
    """Bin each feature linearly, encode it, and concatenate left to right.

    ``fixed`` right-fills b ones into the segment; ``one_hot`` sets the
    single bit b counted from the segment's left end.
    """
    word = 0
    for value, (lo, hi) in zip(features, ranges):
        b = (value - lo) * bins // (hi - lo + 1)
        segment = (1 << b) - 1 if family == "fixed" else 1 << (length - 1 - b)
        word = (word << length) | segment
    return word


def bits(word: int, width: int) -> str:
    return format(word, f"0{width}b")


class BallVoter:
    """The radius-r ball classifier over int anchors with one-hot labels."""

    def __init__(self, anchors: list[int], labels: list[int], classes: int, radius: int):
        self.anchors = anchors
        self.labels = labels
        self.classes = classes
        self.radius = radius

    def fired(self, x: int) -> list[int]:
        r = self.radius
        return [i for i, a in enumerate(self.anchors) if (x ^ a).bit_count() <= r]

    def predict(self, x: int) -> str:
        """Output bits: class c wins its +1/-1 vote when 2 * votes_for_c > fired."""
        fired = self.fired(x)
        for_class = [0] * self.classes
        for i in fired:
            for_class[self.labels[i]] += 1
        return "".join("1" if 2 * k > len(fired) else "0" for k in for_class)


def nearest_distances(anchors: list[int], queries: list[int]) -> list[int]:
    return [min((x ^ a).bit_count() for a in anchors) for x in queries]


def covering_radius(anchors: list[int], queries: list[int], share: float) -> int:
    """Smallest r that puts at least `share` of the queries inside some ball."""
    nearest = sorted(nearest_distances(anchors, queries))
    return nearest[max(0, math.ceil(share * len(nearest)) - 1)]
