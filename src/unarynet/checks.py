"""Exhaustive property checks over small parameter grids.

Every library invariant is re-verified here against an independent route:
distances against |x - y|, and hidden-neuron firing and output bits against
the paper's weighted sums, which are built from the samples and the requested
radius, never read from the network. Checks are pure and
deterministic; random training sets come from the documented LCG, each
property family using its own fixed seed offset so cells are independent.
"""

from __future__ import annotations

from collections.abc import Callable, Iterable
from functools import partial
from itertools import compress
from operator import ne, sub
from struct import calcsize, unpack

from . import bitvec, cc4, codes
from .bitvec import BitWord, Record
from .rng import Lcg64

# grid key: its CheckGrid field, default, least and most value, and name in a
# guard message. A field whose default is a tuple takes several values. Grids
# beyond these enumeration guards are rejected, not attempted, and the guards
# run in this order.
_BOUNDS = {
    "metric": ("metric_max_len", 8, 1, 8, "metric length"),
    "gray": ("gray_width", 10, 1, 20, "gray width"),
    "lengths": ("fixed_lengths", (8, 16, 32, 64), 1, 64, "fixed lengths"),
    "ks": ("gen_ks", (2, 3, 4, 5), 1, 5, "repetition k"),
    "n": ("gen_max_value", 8, 1, 16, "generalized max value"),
    "widths": ("widths", (4, 8, 10), 1, 12, "pattern widths"),
    # as widths: a larger ball already covers every word
    "radii": ("radii", (0, 1, 2, 3), 0, 12, "radii"),
    "sets": ("training_sets", 20, 1, 100, "training_sets"),
    "samples": ("max_samples", 10, 1, 32, "max_samples"),
    "outbits": ("output_bits", 2, 1, 8, "output_bits"),
    "bias": ("bias_vectors", 200, 1, 1000, "bias_vectors"),
    "seed": ("seed", 1, None, None, None),  # any int
}
# Byte lanes, held by the asserts to the bounds above so that none carries or
# borrows: a radius-law sum, r - s + 1 plus at most width weights, is a byte
# _OFFSET + sum; a word's fire flags are a "<I" lane, a bit per sample; and a
# triangle byte 127 + d(a, c) - d(a, b) - d(b, c) lies in 127 - 2L..127 + L.
_OFFSET, _LANE = 128, calcsize("<I")
assert 2 * _BOUNDS["widths"][3] - 1 <= _OFFSET and _BOUNDS["samples"][3] <= 8 * _LANE
assert _BOUNDS["radii"][3] + 1 + _BOUNDS["widths"][3] < 256 - _OFFSET
assert 2 * _BOUNDS["metric"][3] <= 127 < 256 - _BOUNDS["metric"][3]
# _OFFSET + sum -> _OFFSET + sum + weight, and -> 1 if the sum is positive, else 0
_STEPS = {1: bytes(range(1, 256)) + b"\0", -1: b"\xff" + bytes(range(255))}
_FIRE = bytes(v > _OFFSET for v in range(256))

# most values of a 'lo-hi' range (checked before it is built) or an 'a/b/c' list
MAX_RANGE_LEN = 64

# seed offsets per property family that draws random data
OFFSET_RADIUS_LAW = 0
OFFSET_REPRODUCTION = 1
OFFSET_COMPLEMENT = 2
OFFSET_BIAS = 3
OFFSET_EXACTNESS = 4


def _guard(cond: bool, what: str) -> None:
    if not cond:
        raise ValueError(f"grid guard exceeded: {what}")


# each CheckGrid parameter's default, in _BOUNDS order
_DEFAULTS = {attr: default for attr, default, *_ in _BOUNDS.values()}


class CheckGrid(Record):
    """The grid's parameters, one per _BOUNDS key. A parameter not given keeps
    its default there; a grid is immutable and checked when made."""

    __match_args__ = tuple(_DEFAULTS)

    def __init__(self, **overrides) -> None:
        unknown = overrides.keys() - _DEFAULTS.keys()
        if unknown:
            raise TypeError(f"CheckGrid has no parameter {min(unknown)!r}")
        vars(self).update(_DEFAULTS, **overrides)
        for attr, default, lo, hi, label in _BOUNDS.values():
            value = getattr(self, attr)
            values = value if isinstance(default, tuple) else [value]
            _guard(len(values) > 0, f"{attr} must not be empty")
            if label:
                _guard(all(lo <= v <= hi for v in values), f"{label} must be {lo}..{hi}")


class PropertyResult(Record):
    """One cell's outcome. Immutable."""

    __match_args__ = ("name", "params", "passed", "measured", "claimed", "counterexample",
                      "note")

    def __init__(self, name: str, params: dict[str, int], passed: bool,
                 measured: int | None = None, claimed: int | None = None,
                 counterexample: str | None = None, note: str | None = None) -> None:
        vars(self).update(name=name, params=params, passed=passed, measured=measured,
                          claimed=claimed, counterexample=counterexample, note=note)

    def _values(self, counterexample_sep: str) -> str:
        """The measured, claimed and counterexample tokens, each after a space."""
        return "".join(f" {key}{sep}{value}" for key, sep, value in (
            ("measured", "=", self.measured), ("claimed", "=", self.claimed),
            ("counterexample", counterexample_sep, self.counterexample),
        ) if value is not None)

    def machine_line(self) -> str:
        params = ",".join(f"{k}={v}" for k, v in self.params.items()) or "-"
        head = "pass" if self.passed else "fail"
        return f"{self.name}\t{params}\t{head}{self._values('=')}"

    def human_line(self) -> str:
        params = " ".join(f"{k}={v}" for k, v in self.params.items())
        head = "ok  " if self.passed else "FAIL"
        line = f"{head} {self.name}" + (f" [{params}]" if params else "") + self._values(": ")
        return line + (f" ({self.note})" if self.note else "")


class PropertyReport:
    def __init__(self) -> None:
        self.results: list[PropertyResult] = []

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.results)

    def render_machine(self) -> str:
        return "\n".join(r.machine_line() for r in self.results) + "\n"

    def render_human(self) -> str:
        ok = sum(1 for r in self.results if r.passed)
        lines = [r.human_line() for r in self.results]
        lines.append(f"passed {ok}/{len(self.results)} checks")
        return "\n".join(lines) + "\n"


def _all_words(width: int) -> list[BitWord]:
    return [BitWord(v, width) for v in range(1 << width)]


class _Raised(ValueError):
    """A ValueError the library raised on one input, as a counterexample naming it."""


def _on(label: str, f: Callable, *args):
    """f(*args); a ValueError it raises becomes a _Raised that names label."""
    try:
        return f(*args)
    except ValueError as e:
        raise _Raised(f"{label},error={e}") from None


def _cell(name: str, params: dict[str, int], counterexamples: Iterable[str]) -> PropertyResult:
    """A passed cell, or a failed one naming the first counterexample. A
    ValueError raised while they are drawn fails the cell, not the run."""
    try:
        first = next(iter(counterexamples), None)
    except ValueError as e:
        first = str(e) if isinstance(e, _Raised) else f"error={e}"
    return PropertyResult(name, params, first is None, counterexample=first)


def check_metric_axioms(length: int) -> PropertyResult:
    """Symmetry, identity, range 0..L and triangle inequality over the hypercube.

    The triangle pass holds row a's distances as an int R_a of one byte per c,
    lowest c lowest. Byte c of R_a + (127 - d(a, b)) * ONES - R_b is
    127 + d(a, c) - d(a, b) - d(b, c), which reaches 128 iff c breaks the
    inequality, so the lowest byte with its top bit set is the c a loop over c
    meets first."""
    words = _all_words(length)
    count = len(words)
    try:
        dist = [[bitvec.hamming_distance(a, b) for b in words] for a in words]
    except ValueError as e:
        raised = f"error={e}"  # a fault that raises only once is named without a pair

        def again():  # pair by pair, so that the raise names its pair
            for a in words:
                for b in words:
                    _on(f"a={a},b={b}", bitvec.hamming_distance, a, b)
            yield raised
        return _cell("metric-axioms", {"len": length}, again())
    fail = partial(PropertyResult, params={"len": length}, passed=False)
    # Whole-matrix tests decide symmetry, identity and range: the distances
    # row by row, one byte each, their transpose, diagonal, zeros and values.
    # The pair loops run only to name the first failure.
    try:
        flat = b"".join(map(bytes, dist))
    except ValueError:  # a distance outside 0..255 fails the range test
        flat = b""
    if not (flat and flat.count(0) == flat[::count + 1].count(0) == count
            and b"".join([flat[j::count] for j in range(count)]) == flat):
        for i in range(count):
            for j in range(i, count):
                if dist[i][j] != dist[j][i]:
                    return fail("metric-symmetry", counterexample=f"a={words[i]},b={words[j]}")
                if (dist[i][j] == 0) != (i == j):
                    return fail("metric-identity",
                                counterexample=f"a={words[i]},b={words[j]},d={dist[i][j]}")
    if not flat or flat.translate(None, bytes(range(length + 1))):
        for i, row in enumerate(dist):
            for j, d in enumerate(row):
                if not 0 <= d <= length:
                    return fail("metric-range", counterexample=f"a={words[i]},b={words[j]},d={d}")
    top = 0x80 * (ones := int.from_bytes(b"\1" * count, "little"))  # a top bit per byte
    rows = [int.from_bytes(flat[k:k + count], "little") for k in range(0, len(flat), count)]
    for i, (r_a, di) in enumerate(zip(rows, dist)):
        lifted = [r_a + (127 - d) * ones for d in range(length + 1)]  # by d(a, b)
        hits = map(top.__and__, map(sub, map(lifted.__getitem__, di), rows))
        if (j := next(compress(range(count), hits), None)) is not None:
            hit = lifted[di[j]] - rows[j] & top
            c = words[(hit & -hit).bit_length() // 8 - 1]
            return fail("metric-triangle", counterexample=f"a={words[i]},b={words[j]},c={c}")
    return PropertyResult("metric-axioms", {"len": length}, True)


def check_gray_adjacency(width: int) -> PropertyResult:
    return _cell("gray-adjacency", {"width": width}, (
        f"n={n},d={d}" for n in range((1 << width) - 1)
        if (d := _on(f"n={n}", lambda: bitvec.hamming_distance(
            bitvec.gray_encode(n, width), bitvec.gray_encode(n + 1, width)))) != 1))


def _roundtrip(
    name: str, params: dict[str, int], top: int, there_and_back: Callable[[int], int]
) -> PropertyResult:
    """there_and_back(n) == n for every n in 0..top."""
    return _cell(name, params, (
        f"n={n},back={back}" for n in range(top + 1)
        if (back := _on(f"n={n}", there_and_back, n)) != n))


def check_gray_roundtrip(width: int) -> PropertyResult:
    return _roundtrip("gray-roundtrip", {"width": width}, (1 << width) - 1,
                      lambda n: bitvec.gray_decode(bitvec.gray_encode(n, width)))


def _witness(name: str, encode: Callable[[int, int], BitWord],
             want: dict[tuple[int, int], int]) -> PropertyResult:
    """d(encode(a, 4), encode(b, 4)) == want[a, b] for each pair (a, b)."""
    def misses():
        got = {(a, b): _on(f"a={a},b={b}", lambda: bitvec.hamming_distance(
            encode(a, 4), encode(b, 4))) for a, b in want}
        if got != want:
            yield ",".join(f"d({a},{b})={d}" for (a, b), d in got.items())
    return _cell(name, {"width": 4}, misses())


def check_binary_nonuniformity() -> PropertyResult:
    """Close values (3,4) are farther apart in binary than distant ones (1,5)."""
    return _witness("binary-nonuniformity-witness", bitvec.binary_encode, {(3, 4): 3, (1, 5): 1})


def check_gray_nonuniformity() -> PropertyResult:
    """Gray distance 1 both for adjacent (3,4) and non-adjacent (1,6) values."""
    return _witness("gray-nonuniformity-witness", bitvec.gray_encode, {(3, 4): 1, (1, 6): 1})


def _distance_law(
    name: str, params: dict[str, int], top: int, encode: Callable[[int], BitWord], k: int
) -> PropertyResult:
    """d(encode(x), encode(y)) == k * |x - y| for every pair in 0..top."""
    return _cell(name, params, (
        f"x={x},y={y},d={d},want={k * abs(x - y)}"
        for x in range(top + 1) for wx in [_on(f"x={x}", encode, x)] for y in range(top + 1)
        if (d := _on(f"x={x},y={y}", lambda: bitvec.hamming_distance(wx, encode(y))))
        != k * abs(x - y)))


def check_uniform_distance_law(length: int) -> PropertyResult:
    """d(fixed(x), fixed(y)) == |x - y| for every pair of encodable values."""
    return _distance_law("uniform-distance-law", {"L": length}, length,
                         lambda v: codes.encode_fixed(v, length), 1)


def check_weight_monotone(length: int) -> PropertyResult:
    def weight(n: int) -> int:
        return _on(f"n={n}", lambda: bitvec.hamming_weight(codes.encode_fixed(n, length)))
    return _cell("weight-monotone", {"L": length}, (
        f"n={n},w={w},w_next={w_next}"
        for n in range(length) if not (w := weight(n)) < (w_next := weight(n + 1))))


def check_roundtrip_basic(max_value: int) -> PropertyResult:
    return _roundtrip("roundtrip-basic", {"N": max_value}, max_value,
                      lambda n: codes.decode_basic(codes.encode_basic(n)))


def check_roundtrip_fixed(length: int) -> PropertyResult:
    return _roundtrip("roundtrip-fixed", {"L": length}, length,
                      lambda n: codes.decode_fixed(codes.encode_fixed(n, length)))


def check_thermometer_equivalence(length: int) -> PropertyResult:
    """Left-filled transform of one-hot v equals the reversed right-filled code."""
    return _cell("thermometer-equivalence", {"L": length}, (
        f"v={v},transform={left},reversed={right}" for v in range(1, length + 1)
        for left, right in [_on(f"v={v}", lambda: (
            codes.one_hot_to_thermometer(codes.encode_one_hot(v, length)),
            codes.encode_fixed(v, length).reverse()))] if left != right))


def check_generalized_scaling(k: int, max_value: int) -> PropertyResult:
    """d(gen(x), gen(y)) == k * |x - y| for every pair."""
    return _distance_law("generalized-scaling", {"k": k, "N": max_value}, max_value,
                         lambda v: codes.encode_generalized(v, k, max_value), k)


def check_generalized_min_distance(k: int, max_value: int) -> PropertyResult:
    """Audit the k-repetition codebook's measured minimum distance.

    The measured value is compared against the claimed k - 1; adjacent values
    differ in exactly k positions, so the expected measurement is k.
    """
    params = {"k": k, "N": max_value}
    try:
        measured = codes.min_pairwise_distance(
            [codes.encode_generalized(n, k, max_value) for n in range(max_value + 1)])
    except ValueError as e:
        return _cell("generalized-min-distance", params, [f"error={e}"])
    claimed = k - 1
    note = None
    if measured != claimed:
        note = f"measured minimum distance {measured} differs from claimed k-1={claimed}"
    return PropertyResult("generalized-min-distance", params, passed=measured == k,
                          measured=measured, claimed=claimed, note=note)


def _weighted_rows(inputs: list[tuple[int, ...]], radius: int) -> list[tuple[list[int], int]]:
    """The paper's hidden rows of these input bits: +1 where a bit is 1, -1
    where it is 0, and the bias r - s + 1 (s = number of 1 bits)."""
    return [([2 * b - 1 for b in bits], radius - sum(bits) + 1) for bits in inputs]


def check_radius_law(width: int, radius: int, sets: int, max_samples: int,
                     output_bits: int, rng: Lcg64) -> PropertyResult:
    """Hidden neuron i fires on x iff its weighted sum on x is positive.

    Row i's sums on every x, indexed by x.value, are bytes doubled once per
    weight, lowest bit first. Its fire flags go to bit h - 1 - i of x's lane
    of one int, as the library's fire word on x does; the lanes, read back as
    one int per x, are compared with the fire words' values in one step."""
    inputs, lanes = _all_words(width), bytearray(_LANE << width)

    def misses():
        for t in range(sets):
            samples = rng.next_training_set(max_samples, width, output_bits)
            net = cc4.train(samples, radius)
            h, sums, want = len(samples), [], 0
            rows = _weighted_rows([s.input.bits for s in samples], radius)
            for i, (weights, bias) in enumerate(rows):
                row = bytes([_OFFSET + bias])
                for weight in reversed(weights):  # the lowest bit first
                    row += row.translate(_STEPS[weight])
                sums.append(row)
                lanes[::_LANE] = row.translate(_FIRE)
                want |= int.from_bytes(lanes, "little") << h - 1 - i
            wants = list(unpack(f"<{len(inputs)}I", want.to_bytes(len(lanes), "little")))
            fired = list(map(partial(cc4.hidden_activations, net), inputs))
            got = [f.value if f.width == h else -1 for f in fired]  # -1 matches no lane
            if got != wants:
                x = next(compress(range(len(got)), map(ne, got, wants)))
                if got[x] < 0:
                    yield f"set={t},x={inputs[x]},fired_width={fired[x].width},want_width={h}"
                else:
                    neuron = h - (got[x] ^ wants[x]).bit_length()  # at bit h - 1 - neuron
                    yield (f"set={t},neuron={neuron},x={inputs[x]},"
                           f"fired={got[x] >> h - 1 - neuron & 1},sum={sums[neuron][x] - _OFFSET}")
    return _cell("radius-law", {"width": width, "r": radius, "sets": sets}, misses())


def check_training_reproduction(width: int, radius: int, sets: int, max_samples: int,
                                output_bits: int, rng: Lcg64) -> PropertyResult:
    """infer on each training input matches the paper's output sums.

    Output weights are +1/-1 copies of the sample outputs, summed over the
    neurons whose weighted hidden sum is positive. Ties and conflicts between
    overlapping regions resolve to 0 by the strict step rule, so the expected
    bit is vote > 0, not the sample's own bit."""
    def misses():
        for t in range(sets):
            samples = rng.next_training_set(max_samples, width, output_bits)
            net = cc4.train(samples, radius)
            inputs = [s.input.bits for s in samples]
            rows = _weighted_rows(inputs, radius)
            signs = [[2 * b - 1 for b in s.output.bits] for s in samples]  # output weights
            for i, (sample, bits) in enumerate(zip(samples, inputs)):
                # bias plus the weights at the input's 1 bits, one sum per row
                sums = [bias + sum(compress(weights, bits)) for weights, bias in rows]
                # a leading 0 per output, so that no fired neuron still gives votes
                votes = map(sum, zip([0] * output_bits, *compress(signs, map((0).__lt__, sums))))
                want = "".join(["1" if vote > 0 else "0" for vote in votes])
                if (got := str(cc4.infer(net, sample.input))) != want:
                    yield f"set={t},sample={i},got={got},want={want}"
    return _cell("training-reproduction", {"width": width, "r": radius, "sets": sets}, misses())


def check_bias_rule(
    count: int, width: int, radius: int, rng: Lcg64
) -> PropertyResult:
    """Serialized bias weight is r - s + 1, and r + 1 for the all-zero vector."""
    params = {"count": count, "width": width, "r": radius}
    samples = [cc4.TrainingSample(rng.next_word(width), rng.next_word(1))
               for _ in range(count)]
    samples.append(cc4.TrainingSample(BitWord.zeros(width), rng.next_word(1)))

    def misses():
        rows = cc4.save_network(cc4.train(samples, radius)).splitlines()[1:]
        for i, sample in enumerate(samples):  # the last is the all-zero vector, s = 0
            if (bias := int(rows[i].split()[-1])) != radius - (s := sum(sample.input.bits)) + 1:
                yield f"sample={i},s={s},bias={bias},want={radius - s + 1}"
    return _cell("bias-rule", params, misses())


def check_complement_symmetry(
    width: int, max_samples: int, output_bits: int, radius: int, rng: Lcg64
) -> PropertyResult:
    """Negating saved output weight (o, i) == retraining with sample i's
    output bit o complemented."""
    params = {"width": width, "r": radius}
    samples = rng.next_training_set(max_samples, width, output_bits)

    def mismatches():
        lines = cc4.save_network(cc4.train(samples, radius)).splitlines()
        for i, sample in enumerate(samples):
            for o in range(output_bits):
                flipped_bits = list(sample.output.bits)
                flipped_bits[o] ^= 1
                flipped = samples.copy()
                flipped[i] = cc4.TrainingSample(sample.input, BitWord.from_bits(flipped_bits))
                retrained = cc4.save_network(cc4.train(flipped, radius)).splitlines()
                expected = lines.copy()
                row = expected[1 + len(samples) + o].split()
                row[i] = str(-int(row[i]))
                expected[1 + len(samples) + o] = " ".join(row)
                if retrained != expected:
                    yield f"sample={i},bit={o}"
    return _cell("complement-symmetry", params, mismatches())


class _CountingSamples(list):
    """List that counts how many times it is iterated."""

    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def check_one_pass(width: int, max_samples: int, output_bits: int,
                   rng: Lcg64) -> PropertyResult:
    params = {"width": width, "samples": max_samples}
    samples = _CountingSamples(
        rng.next_training_set(max_samples, width, output_bits))

    def misses():
        net = cc4.train(samples, 1)
        if samples.iterations != 1 or net.hidden_count != len(samples):
            yield f"iterations={samples.iterations}"
    return _cell("one-pass-training", params, misses())


def check_integer_exactness(width: int, rng: Lcg64) -> PropertyResult:
    """Saved weights are integer literals and activations are exact 0/1 ints
    over the full input space."""
    params = {"width": width}
    samples = rng.next_training_set(5, width, 2)

    def misses():
        net = cc4.train(samples, 1)
        if not all(
            w.removeprefix("-").isdigit()
            for line in cc4.save_network(net).splitlines()[1:] for w in line.split()
        ) or not all(
            type(b) is int and b in (0, 1) for x in _all_words(width)
            for word in (cc4.hidden_activations(net, x), cc4.infer(net, x)) for b in word):
            yield "non-integer value observed"
    return _cell("integer-exactness", params, misses())


def run_property_checks(grid: CheckGrid) -> PropertyReport:
    """Execute every library invariant over the grid, in a fixed order."""
    report = PropertyReport()
    add = report.results.append

    for length in range(1, grid.metric_max_len + 1):
        add(check_metric_axioms(length))
    for width in range(1, grid.gray_width + 1):
        add(check_gray_adjacency(width))
        add(check_gray_roundtrip(width))
    add(check_binary_nonuniformity())
    add(check_gray_nonuniformity())

    for length in grid.fixed_lengths:
        add(check_uniform_distance_law(length))
        add(check_weight_monotone(length))
        add(check_roundtrip_fixed(length))
        add(check_thermometer_equivalence(length))
    add(check_roundtrip_basic(max(grid.fixed_lengths)))
    for k in grid.gen_ks:
        add(check_generalized_scaling(k, grid.gen_max_value))
        add(check_generalized_min_distance(k, grid.gen_max_value))

    for offset, check in ((OFFSET_RADIUS_LAW, check_radius_law),
                          (OFFSET_REPRODUCTION, check_training_reproduction)):
        rng = Lcg64(grid.seed + offset)
        for width in grid.widths:
            for radius in grid.radii:
                add(check(width, radius, grid.training_sets, grid.max_samples,
                          grid.output_bits, rng))
    rng = Lcg64(grid.seed + OFFSET_BIAS)
    for radius in grid.radii:
        add(check_bias_rule(grid.bias_vectors, max(grid.widths), radius, rng))
    rng = Lcg64(grid.seed + OFFSET_COMPLEMENT)
    for radius in grid.radii:
        add(check_complement_symmetry(
            min(grid.widths), grid.max_samples, grid.output_bits, radius, rng))
    rng = Lcg64(grid.seed + OFFSET_EXACTNESS)
    add(check_one_pass(min(grid.widths), grid.max_samples, grid.output_bits, rng))
    add(check_integer_exactness(min(grid.widths), rng))
    return report


QUICK_GRID = CheckGrid(
    metric_max_len=4, gray_width=8, fixed_lengths=(8, 16), gen_ks=(2, 3),
    widths=(4, 6), radii=(0, 1, 2), training_sets=5, bias_vectors=50)


def parse_grid(spec: str) -> CheckGrid:
    """Parse a grid spec: 'default', 'quick', or comma-separated key=value.

    Multi-valued keys (lengths, ks, widths, radii) accept 'lo-hi' ranges and
    'a/b/c' lists, e.g. 'widths=4/8,radii=0-3,sets=5,seed=7'.
    """
    if spec == "default":
        return CheckGrid()
    if spec == "quick":
        return QUICK_GRID
    overrides: dict[str, object] = {}
    for item in spec.split(","):
        if "=" not in item:
            raise ValueError(f"bad grid item {item!r}, expected key=value")
        key, _, raw = item.partition("=")
        key = key.strip()
        if key not in _BOUNDS:
            raise ValueError(
                f"unknown grid key {key!r}; known: {', '.join(sorted(_BOUNDS))}")
        attr, default, *_ = _BOUNDS[key]
        many = isinstance(default, tuple)
        if attr in overrides:
            raise ValueError(f"grid key {key!r} is given twice")
        try:
            if not many:
                value = int(raw)
            elif "-" in raw:
                lo, _, hi = raw.partition("-")
                value = range(int(lo), int(hi) + 1)
            else:
                value = tuple(int(v) for v in raw.split("/"))
        except ValueError as exc:
            raise ValueError(f"bad value for grid key {key!r}: {raw!r}") from exc
        if isinstance(value, range):
            # stop - start, not len(): len() overflows past sys.maxsize
            _guard(value.stop - value.start <= MAX_RANGE_LEN,
                   f"{key} range {raw} is longer than {MAX_RANGE_LEN}")
            value = tuple(value)
        elif many:
            _guard(len(value) <= MAX_RANGE_LEN,
                   f"{key} list has {len(value)} values, more than {MAX_RANGE_LEN}")
            _guard(len(set(value)) == len(value), f"{key} list {raw} repeats a value")
        overrides[attr] = value
    return CheckGrid(**overrides)
