import random
import re
import tracemalloc
from math import comb
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from unarynet import cc4
from unarynet.bitvec import BitWord, binary_encode, hamming_distance
from unarynet.cc4 import (
    CC4Network,
    TrainingSample,
    hidden_activations,
    infer,
    load_network,
    save_network,
    train,
)
from unarynet.codes import encode_fixed
from unarynet.rng import Lcg64

bw = BitWord.from_string


def sample(inp: str, out: str) -> TrainingSample:
    return TrainingSample(bw(inp), bw(out))


def all_words(width):
    return [binary_encode(v, width) for v in range(1 << width)]


def thermometer(values, length):
    """The concatenated fixed-length unary segments of values, as an int."""
    word = 0
    for value in values:
        word = word << length | encode_fixed(value, length).value
    return word


def saved_rows(net):
    """Weight rows of the saved model text: h hidden rows, then m output rows."""
    return [[int(w) for w in line.split()]
            for line in save_network(net).splitlines()[1:]]


class TestWeightAssignment:
    def test_pattern_and_bias_weights(self):
        net = train([sample("1010", "1")], radius=1)
        # s = 2, bias = r - s + 1 = 0
        assert saved_rows(net)[0] == [1, -1, 1, -1, 0]

    @pytest.mark.parametrize("radius", [0, 1, 2, 5])
    def test_all_zero_input_bias_is_r_plus_one(self, radius):
        net = train([sample("0000", "1")], radius)
        assert saved_rows(net)[0][-1] == radius + 1

    def test_output_weights_copy_output_bits(self):
        net = train([sample("1010", "10")], radius=1)
        assert saved_rows(net)[1:] == [[1], [-1]]

    def test_one_hidden_neuron_per_sample(self):
        samples = [sample("00", "1"), sample("01", "0"), sample("01", "0")]
        net = train(samples, 0)
        assert net.hidden_count == 3

    def test_bias_rule_for_random_vectors(self):
        rng = Lcg64(99)
        for radius in range(4):
            for _ in range(50):
                word = rng.next_word(9)
                net = train([TrainingSample(word, bw("1"))], radius)
                assert saved_rows(net)[0][-1] == radius - sum(word.bits) + 1

    def test_train_rejects_bad_input(self):
        with pytest.raises(ValueError, match="no training samples"):
            train([], 1)
        with pytest.raises(ValueError, match="radius"):
            train([sample("01", "1")], -1)
        with pytest.raises(ValueError, match="input length"):
            train([sample("01", "1"), sample("011", "1")], 1)
        with pytest.raises(ValueError, match="output length"):
            train([sample("01", "1"), sample("00", "11")], 1)


class TestHiddenLayer:
    def test_fires_on_own_training_input(self):
        for r in range(3):
            net = train([sample("10110", "1")], r)
            assert hidden_activations(net, bw("10110")) == bw("1")

    def test_silent_just_outside_radius(self):
        net = train([sample("10110", "1")], radius=1)
        # distance 2 from the training input
        assert hidden_activations(net, bw("10000")) == bw("0")

    def test_firing_count_is_ball_volume(self):
        """One sample at width 8, r=2: fires on exactly C(8,0)+C(8,1)+C(8,2) inputs."""
        net = train([sample("10011010", "1")], radius=2)
        fired = sum(hidden_activations(net, x)[0] for x in all_words(8))
        assert fired == comb(8, 0) + comb(8, 1) + comb(8, 2) == 37

    def test_radius_law_exhaustive_seeded(self):
        rng = Lcg64(7)
        for width in (4, 6):
            for radius in (0, 1, 2, 3):
                samples = rng.next_training_set(6, width, 2)
                net = train(samples, radius)
                for x in all_words(width):
                    fired = hidden_activations(net, x)
                    for i, s in enumerate(samples):
                        want = hamming_distance(x, s.input) <= radius
                        assert fired[i] == int(want)

    def test_query_width_checked(self):
        net = train([sample("1010", "1")], 1)
        for call in (hidden_activations, infer):
            with pytest.raises(ValueError, match="query length 3 != pattern width 4"):
                call(net, bw("101"))


class TestInference:
    def test_single_sample_reproduces_output_within_radius(self):
        net = train([sample("0110", "101")], radius=1)
        for x in all_words(4):
            if hamming_distance(x, bw("0110")) <= 1:
                assert infer(net, x) == bw("101")

    def test_outside_every_region_yields_all_zero(self):
        net = train([sample("0000", "11")], radius=1)
        assert infer(net, bw("0111")) == bw("00")

    def test_tied_conflicting_regions_yield_zero(self):
        # query equidistant from two samples with opposite output bits
        net = train([sample("0000", "1"), sample("1111", "0")], radius=2)
        query = bw("0011")
        assert hidden_activations(net, query) == bw("11")
        assert infer(net, query) == bw("0")

    @given(st.data())
    @settings(max_examples=200)
    def test_infer_matches_majority_reference(self, data):
        h, m = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 9))
        if data.draw(st.booleans()):
            width = data.draw(st.integers(1, 300))
            anchors = data.draw(st.lists(st.integers(0, 2**width - 1),
                                         min_size=h, max_size=h))
        else:
            # thermometer segments, as training builds them
            count, length = data.draw(st.integers(1, 8)), data.draw(st.integers(1, 37))
            width = count * length
            anchors = [thermometer(data.draw(st.lists(st.integers(0, length),
                                                      min_size=count, max_size=count)),
                                   length)
                       for _ in range(h)]
        radius = data.draw(st.integers(0, width))
        labels = data.draw(st.lists(st.integers(0, 2**m - 1), min_size=h, max_size=h))
        net = CC4Network(radius, width, m, tuple(anchors), tuple(labels))
        # a query a few flips from an anchor, so that some balls hold it
        flips = data.draw(st.lists(st.integers(0, width - 1), max_size=radius + 2))
        query = BitWord(data.draw(st.sampled_from(anchors)) ^ sum(1 << p for p in set(flips)),
                        width)

        fires = [hamming_distance(query, BitWord(anchor, width)) <= radius for anchor in anchors]
        assert str(hidden_activations(net, query)) == "".join("01"[f] for f in fires)
        fired = [label for label, f in zip(labels, fires) if f]
        columns = zip(*(format(label, f"0{m}b") for label in fired)) if fired else [""] * m
        want = "".join("1" if 2 * column.count("1") > len(fired) else "0"
                       for column in map("".join, columns))
        assert str(infer(net, query)) == want

    @given(st.data())
    @settings(max_examples=60)
    def test_fire_test_at_wide_patterns(self, data):
        # queries r and r + 1 flips from each anchor, and random words; a query
        # flipped from the all-0 or all-1 anchor differs from it by r in weight
        # as well as in distance
        width = data.draw(st.sampled_from([64, 256, 1024]))
        radius = data.draw(st.integers(0, 8) | st.integers(0, width - 1))
        word = st.integers(0, 2**width - 1)
        anchors = (0, 2**width - 1, *data.draw(st.lists(word, min_size=1, max_size=6)))
        net = CC4Network(radius, width, 1, anchors, (1,) * len(anchors))
        rnd = data.draw(st.randoms(use_true_random=False))
        for anchor in anchors:
            spots = rnd.sample(range(width), radius + 1)
            near = anchor ^ sum(1 << p for p in spots[:radius])
            for x in (near, near ^ 1 << spots[-1], data.draw(word)):
                want = "".join("01"[(x ^ a).bit_count() <= radius] for a in anchors)
                assert str(hidden_activations(net, BitWord(x, width))) == want

    @pytest.mark.parametrize("radius", [0, 1, 4, 5, 9])
    @pytest.mark.parametrize("h", [1, 2, 7])
    def test_radius_extremes_match_distance(self, radius, h):
        # r = 0, r = n and r > n, on one neuron and on several (n = 5)
        anchors = tuple(int(a, 2) for a in ("10110", "00000", "11111", "10110",
                                            "01000", "11101", "00111")[:h])
        net = CC4Network(radius, 5, 1, anchors, (1,) * h)
        for x in all_words(5):
            want = "".join("01"[(x.value ^ a).bit_count() <= radius] for a in anchors)
            assert str(hidden_activations(net, x)) == want

    @pytest.mark.parametrize("h", [1, 7, 8, 9, 63, 64, 65, 127, 128, 129, 135, 1000, 1001])
    def test_fire_word_across_byte_and_word_boundaries(self, h):
        # h straddles the byte and 64-bit boundaries of the fire word, and
        # the 128 anchors past which it is built another way, where a packed
        # word's last byte may be padded. The anchors are random, plus the
        # all-0 and all-1 words, each at distance n from the opposite query.
        width, rng = 12, Lcg64(h)
        anchors = [0, (1 << width) - 1] + [rng.next_below(1 << width) for _ in range(h)]
        anchors = tuple(anchors[:h])
        queries = [0, (1 << width) - 1, *anchors[:8],
                   *(rng.next_below(1 << width) for _ in range(8))]

        def brute(x, radius):
            return "".join("01"[(x ^ a).bit_count() <= radius] for a in anchors)

        for x in queries:
            nearest = min((x ^ a).bit_count() for a in anchors)
            # r = 0, a middle radius, r = n (all fire), and the largest
            # radius under which no anchor fires (when the query is no anchor)
            radii = {0, width // 3, width} | ({nearest - 1} if nearest else set())
            for radius in radii:
                net = CC4Network(radius, width, 1, anchors, (1,) * h)
                fired = hidden_activations(net, BitWord(x, width))
                assert fired.width == h
                assert str(fired) == brute(x, radius), (x, radius)
                if radius == width:
                    assert fired.value == (1 << h) - 1
                if radius == nearest - 1:
                    assert fired.value == 0

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_infer_is_the_strict_majority_of_the_ball(self, data):
        # label widths on both sides of one and two bytes (the column lanes),
        # and anchors from a small pool so that they repeat, with the same or
        # contradictory labels
        m = data.draw(st.sampled_from([1, 7, 8, 9, 15, 16, 17]) | st.integers(1, 20))
        h = data.draw(st.integers(1, 8) | st.integers(1, 300))
        width = data.draw(st.integers(1, 12) | st.integers(1, 200))
        rnd = data.draw(st.randoms(use_true_random=False))
        pool = [rnd.getrandbits(width) for _ in range(data.draw(st.integers(1, 8)))]
        anchors = [rnd.choice(pool) for _ in range(h)]
        labels = [rnd.getrandbits(m) for _ in range(h)]
        if data.draw(st.booleans()):
            # neuron k + 1 repeats neuron k with the opposite label: every vote
            # that the pairs alone decide ties
            for k in range(1, h, 2):
                anchors[k], labels[k] = anchors[k - 1], labels[k - 1] ^ (1 << m) - 1
        queries = [0, (1 << width) - 1, anchors[0], anchors[-1] ^ 1, rnd.getrandbits(width)]
        # r = 0, past n (all fire), any, and just short of the first query's
        # nearest anchor (none fire)
        nearest = min((queries[0] ^ a).bit_count() for a in anchors)
        radius = data.draw(st.sampled_from(
            [0, width, width + 3, max(nearest - 1, 0)]) | st.integers(0, width))
        net = CC4Network(radius, width, m, tuple(anchors), tuple(labels))
        for x in queries:
            fired = [label for anchor, label in zip(anchors, labels)
                     if (x ^ anchor).bit_count() <= radius]
            want = sum(1 << o for o in range(m)
                       if 2 * sum(label >> o & 1 for label in fired) > len(fired))
            got = infer(net, BitWord(x, width))
            assert (got.value, got.width) == (want, m), (x, fired)

    def test_weight_index_is_invisible(self):
        small = train(Lcg64(3).next_training_set(8, 6, 3), 2)
        rng = Lcg64(5)  # h = 300 of many weights: every query is filtered
        wide = CC4Network(30, 64, 1, tuple(rng.next_below(1 << 64) for _ in range(300)),
                          (1,) * 300)
        for net in (small, wide):
            fresh = net.replace()
            x = BitWord(net.anchors[0], net.pattern_width)
            hidden_activations(net, x)
            hidden_activations(net, BitWord(net.anchors[1], net.pattern_width))
            assert "_columns" not in vars(net)
            infer(net, x)
            if net is wide:
                assert vars(net).keys() - vars(fresh).keys() == {"_blocks", "_columns"}
                assert vars(net)["_blocks"][-1]  # the filter's cached lanes
            else:  # at most 128 anchors: every one is tested, and no index built
                assert vars(net).keys() - vars(fresh).keys() == {"_columns"}
            assert net == fresh and hash(net) == hash(fresh) and repr(net) == repr(fresh)
            assert save_network(net) == save_network(net.replace())
            assert net.__match_args__ == fresh.__match_args__
            loaded = load_network(save_network(net))
            assert loaded == net and "_columns" not in vars(loaded)
        assert CC4Network.__match_args__ == (
            "radius", "pattern_width", "output_count", "anchors", "labels", "quantizer")

    def test_contradictory_duplicate_inputs_tie_to_zero(self):
        net = train([sample("1010", "1"), sample("1010", "0")], radius=1)
        assert infer(net, bw("1010")) == bw("0")

    def test_majority_of_agreeing_regions_wins(self):
        net = train(
            [sample("0000", "1"), sample("0001", "1"), sample("1111", "0")],
            radius=4,
        )
        assert infer(net, bw("0000")) == bw("1")


def block_layout(width):
    """(blocks, bits per block) of the block filter: words of at most 248
    bytes are cut into at most 8 blocks, and no block is over 31 bytes."""
    nbytes = -(-width // 8)
    size = min(-(-nbytes // 8), 31)
    return -(-nbytes // size), 8 * size


def block_weights(word, width):
    """The weight of each block of the block filter, lowest bits first."""
    bits = block_layout(width)[1]
    return tuple((word >> p & (1 << bits) - 1).bit_count() for p in range(0, width, bits))


def cached_lanes(net):
    """The block filter's cached lanes so far, by (block shift, query weight)."""
    return dict(vars(net)["_blocks"][-1]) if vars(net).get("_blocks") else {}


def flipped(word, width, count, rnd, upward=None):
    """word with count of its bits flipped: only 0s (upward), only 1s
    (downward), or any, as far as the word has them."""
    spots = range(width) if upward is None else [
        p for p in range(width) if (word >> p & 1) != upward]
    return word ^ sum(1 << p for p in rnd.sample(spots, min(count, len(spots))))


class TestBlockFilter:
    """The fire test of a network of more than 128 anchors, not all of one
    weight, which goes through the block filter."""

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_filtered_fire_test_matches_distance(self, data):
        width = data.draw(st.sampled_from([8, 37, 256, 1000, 2500]))
        blocks, bits = block_layout(width)
        radius = data.draw(st.sampled_from([0, 255 // blocks - 1, 255 // blocks,
                                            255 // blocks + 1, width, width + 3])
                           | st.integers(0, width))
        h = data.draw(st.integers(129, 600))
        kind = data.draw(st.sampled_from(["clustered", "equal-weight", "one-hot",
                                          "segments", "duplicates"]))
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))  # bulk draws
        full = (1 << width) - 1
        if kind == "clustered":  # a few centres, each with anchors around r from it
            centres = [rnd.getrandbits(width) for _ in range(3)]
            anchors = [flipped(rnd.choice(centres), width, rnd.randint(0, radius + 2), rnd)
                       for _ in range(h)]
        elif kind == "equal-weight":
            weight = rnd.randint(1, min(width, 40))
            anchors = [sum(1 << p for p in rnd.sample(range(width), weight)) for _ in range(h)]
        elif kind == "one-hot":  # one 1 per segment: every anchor has one weight
            seg = data.draw(st.sampled_from([bits, 1 + rnd.randrange(min(width, 12))]))
            anchors = [sum(1 << rnd.randrange(p, min(p + seg, width))
                           for p in range(0, width, seg)) for _ in range(h)]
        elif kind == "segments":  # a thermometer segment in each block
            anchors = [sum(((1 << rnd.randint(0, bits)) - 1) << p for p in range(0, width, bits))
                       & full for _ in range(h)]
        else:
            distinct = [rnd.getrandbits(width) for _ in range(rnd.randint(1, 5))]
            anchors = [rnd.choice(distinct) for _ in range(h)]
        if kind != "one-hot":  # weights 0 and n: the widest block differences
            anchors[:2] = [0, full]
        net = CC4Network(radius, width, 1, tuple(anchors), (1,) * h)
        # flips all one way make the block bound exact, so d = r and d = r + 1
        # test its edge
        queries = [rnd.getrandbits(width), 0, full]
        for anchor in rnd.sample(anchors, 3):
            near = flipped(anchor, width, radius, rnd, upward=rnd.random() < 0.5)
            queries += [near, flipped(near, width, 1, rnd), flipped(anchor, width, radius, rnd)]
        for x in queries:
            want = "".join("01"[(x ^ a).bit_count() <= radius] for a in anchors)
            assert str(hidden_activations(net, BitWord(x, width))) == want

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_cached_lanes_match_distance(self, data):
        # queries in order, some with the block weights of the one before, so
        # the cached lanes are both reused and built
        width = data.draw(st.sampled_from([37, 64, 256, 1000, 2500]))
        blocks, bits = block_layout(width)
        radius = data.draw(st.sampled_from([255 // blocks - 1, 255 // blocks,
                                            255 // blocks + 1]) | st.integers(0, width // 4))
        h = data.draw(st.integers(129, 2600))
        rnd = random.Random(data.draw(st.integers(0, 2**32 - 1)))
        full = (1 << width) - 1
        anchors = [sum(((1 << rnd.randint(0, bits)) - 1) << p for p in range(0, width, bits))
                   & full for _ in range(h)]  # a thermometer segment in each block
        for k in rnd.sample(range(h), h // 4):  # and some off it, where the bound is loose
            anchors[k] = flipped(anchors[k], width, rnd.randint(1, 3), rnd)
        anchors[:2] = [0, full]  # anchors of more than one weight
        net = CC4Network(radius, width, 1, tuple(anchors), (1,) * h)
        queries = [rnd.getrandbits(width)]
        for k in rnd.sample(range(h), 6):
            queries += [flipped(anchors[k], width, radius, rnd, upward=up)
                        for up in (True, False, None)]
        twins = set()
        for x in queries[:]:  # the same block weights, another word: no lanes to build
            twin = sum(sum(1 << b for b in rnd.sample(range(p, min(p + bits, width)), w))
                       for p, w in zip(range(0, width, bits), block_weights(x, width)))
            twins.add(len(queries))
            queries += [twin, x]
        for at, x in enumerate(queries):
            built = cached_lanes(net)
            want = "".join("01"[(x ^ a).bit_count() <= radius] for a in anchors)
            assert str(hidden_activations(net, BitWord(x, width))) == want
            if at in twins or at - 1 in twins:
                after = cached_lanes(net)  # the same ints, not rebuilt
                assert after.keys() == built.keys() and all(after[k] is built[k] for k in built)
        mask, columns, _, cache = net._blocks
        assert mask == (1 << bits) - 1
        assert cache.keys() == {(shift, block_weights(x, width)[shift // bits])
                                for shift, _ in columns for x in queries}
        assert len(cache) <= len(columns) * (bits + 1)

    def test_cached_lanes_grow_with_the_queries_not_the_table(self):
        # n = 2 500: 11 blocks of 31 bytes with 249 weights each, so lanes for
        # every (block, weight) would take 11 * 249 * 1 000 bytes; each query
        # adds at most 11 entries of 1 000 lanes
        h, width, rnd = 1000, 2500, random.Random(12)
        anchors = tuple(rnd.getrandbits(width) for _ in range(h))
        net = CC4Network(width, width, 1, anchors, (1,) * h)  # r = n: all fire
        queries = [rnd.getrandbits(width) for _ in range(6)]
        hidden_activations(net, BitWord(queries[0], width))
        mask, columns, _, cache = net._blocks
        assert len(columns) == 11 and mask == (1 << 8 * 31) - 1 and len(cache) == 11
        for x in queries[1:]:
            tracemalloc.start()
            try:
                fired = hidden_activations(net, BitWord(x, width)).value
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert fired == (1 << h) - 1
            assert peak < 11 * 2 * h + (1 << 15)
        assert len(cache) <= 11 * 6

    def test_survivors_are_the_fired_on_aligned_thermometer_segments(self):
        # 8 features of 32-bit thermometer segments: each segment is a block,
        # so the summed weight differences are the distance, and below the
        # clip (31) the filter keeps exactly the anchors that fire
        rng = Lcg64(19)
        rows = [[rng.next_below(33) for _ in range(8)] for _ in range(400)]
        net = CC4Network(20, 256, 1, tuple(thermometer(row, 32) for row in rows), (1,) * 400)
        for row in rows[:20]:
            x = thermometer([min(v + rng.next_below(4), 32) for v in row], 32)
            kept = [i for i, flag in enumerate(cc4._near(net._blocks, x, net.radius)) if flag]
            fired = [i for i, a in enumerate(net.anchors) if (x ^ a).bit_count() <= 20]
            assert kept == fired

    def test_one_block_filter_edges(self):
        # n = 8 is one block, so the filter keeps exactly the anchors with
        # |w(x) - w(a)| <= r: at query weight 4 and r = 2, weights 2..6
        query = bw("00001111")
        cases = [
            ("11111111", 0),  # weight 8, filtered out
            ("00111111", 1),  # weight w + r at distance r
            ("00000000", 0),  # weight 0, filtered out
            ("00000011", 1),  # weight w - r at distance r
            ("01111111", 0),  # weight w + r + 1 at distance r + 1
            ("00000001", 0),  # weight w - r - 1 at distance r + 1
            ("11000011", 0),  # equal weight at distance 4 > r
            ("00011111", 1),  # weight 5 at distance 1
            ("00110111", 0),  # weight 5, kept, at distance r + 1
        ]
        # every word at distance 4 or more, of every weight, takes h past 128
        far = [a for a in range(256) if (a ^ query.value).bit_count() > 3]
        anchors = (*(int(a, 2) for a, _ in cases), *far)
        net = CC4Network(2, 8, 1, anchors, (1,) * len(anchors))
        assert str(hidden_activations(net, query)) == (
            "".join(str(f) for _, f in cases) + "0" * len(far))
        assert vars(net)["_blocks"] is not None
        kept = [i for i, flag in enumerate(cc4._near(net._blocks, query.value, 2)) if flag]
        assert kept == [i for i, a in enumerate(anchors) if abs(a.bit_count() - 4) <= 2]

    @pytest.mark.parametrize("h, kept", [
        *(pytest.param(200, kept, id=str(kept)) for kept in (1, 19, 20, 21, 40)),
        *(pytest.param(203, kept, id=f"203-{kept}") for kept in (1, 2, 20, 21, 40))])
    def test_kept_set_on_both_sides_of_the_find_switch(self, h, kept, monkeypatch):
        # n = 8 is one block, so at r = 0 the filter keeps exactly the anchors
        # of the query's weight: here the kept of weight 8 among h. Up to
        # h / 10 kept are found one by one (_ones) into a packed word, past it
        # by one pass over all h. At h = 203 the kept take in the first and
        # last neurons, the first and last bits of a padded packed word.
        rnd = random.Random(kept)
        if h == 203:
            ends = [0, h - 1][:kept]
            at = sorted(ends + rnd.sample(range(1, h - 1), kept - len(ends)))
        else:
            at = sorted(rnd.sample(range(h), kept))
        anchors = tuple(255 if i in at else 0 for i in range(h))
        net = CC4Network(0, 8, 1, anchors, (1,) * h)
        flags = cc4._near(net._blocks, 255, 0)
        assert [i for i, flag in enumerate(flags) if flag] == at
        found, ones = [], cc4._ones

        def spy(flags):
            found.append(flags)
            return ones(flags)

        monkeypatch.setattr(cc4, "_ones", spy)
        assert hidden_activations(net, bw("11111111")).value == sum(1 << h - 1 - i for i in at)
        assert (found == [flags]) == (10 * kept <= h)
        assert found in ([], [flags])

    @pytest.mark.parametrize("h", [128, 129])
    def test_an_index_only_past_128_anchors(self, h):
        rng = Lcg64(5)
        anchors = tuple(rng.next_below(1 << 64) for _ in range(h))
        net = CC4Network(64, 64, 1, anchors, (1,) * h)  # r = n: all fire
        assert hidden_activations(net, BitWord(anchors[0], 64)).value == (1 << h) - 1
        # at 128 anchors every one is tested, so the index is never built
        assert ("_blocks" in vars(net)) == (h == 129)
        assert (vars(net).get("_blocks") is None) == (h == 128)

    def test_one_hot_segments_straddling_blocks_keep_no_index(self):
        # 10-bit one-hot segments over 16-bit blocks: the block weights vary,
        # but every anchor has weight 8, so no index is kept
        rng = Lcg64(7)
        anchors = tuple(sum(1 << 10 * f + rng.next_below(10) for f in range(8))
                        for _ in range(300))
        net = CC4Network(4, 80, 1, anchors, (1,) * 300)
        assert len({block_weights(a, 80) for a in anchors}) > 1
        for x in (anchors[0], anchors[1] ^ 3, anchors[2] ^ 1 << 40, 0):
            want = "".join("01"[(x ^ a).bit_count() <= 4] for a in anchors)
            assert str(hidden_activations(net, BitWord(x, 80))) == want
        assert vars(net)["_blocks"] is None

    def test_blocks_shared_by_every_anchor_leave_no_index(self):
        # one-hot segments filling whole blocks: every anchor has weight 1 in
        # every block, so the block weights tell no anchors apart (and the
        # anchors share one weight)
        rng = Lcg64(6)
        anchors = tuple(sum(1 << 32 * f + rng.next_below(32) for f in range(8))
                        for _ in range(300))
        net = CC4Network(4, 256, 1, anchors, (1,) * 300)
        for x in (anchors[0], anchors[1] ^ 3, anchors[2]):
            want = "".join("01"[(x ^ a).bit_count() <= 4] for a in anchors)
            assert str(hidden_activations(net, BitWord(x, 256))) == want
        assert vars(net)["_blocks"] is None

    def test_huge_radius_from_a_model_file_in_bounded_memory(self):
        # r = 10^9 must not size the filter's tables
        rng = Lcg64(8)
        anchors = tuple(rng.next_below(1 << 16) for _ in range(200))
        text = save_network(CC4Network(10**9, 16, 1, anchors, (1,) * 200))
        net = load_network(text)
        assert net.radius == 10**9
        tracemalloc.start()
        try:
            fired = [hidden_activations(net, BitWord(a, 16)).value for a in anchors[:5]]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert fired == [(1 << 200) - 1] * 5
        assert vars(net)["_blocks"] is not None
        assert peak < 1 << 20


class TestComplementSymmetry:
    @given(st.integers(0, 2**5 - 1), st.integers(0, 2**5 - 1),
           st.booleans(), st.integers(0, 3))
    @settings(max_examples=50)
    def test_negated_column_equals_complemented_bit(self, a, b, out_bit, radius):
        samples = [
            TrainingSample(binary_encode(a, 5), bw("1" if out_bit else "0")),
            TrainingSample(binary_encode(b, 5), bw("0")),
        ]
        net = train(samples, radius)
        flipped = [
            TrainingSample(samples[0].input, bw("0" if out_bit else "1")),
            samples[1],
        ]
        rows, retrained = saved_rows(net), saved_rows(train(flipped, radius))
        assert retrained[:2] == rows[:2]
        assert retrained[2][0] == -rows[2][0]
        assert retrained[2][1] == rows[2][1]


class CountingList(list):
    iterations = 0

    def __iter__(self):
        self.iterations += 1
        return super().__iter__()


def test_training_is_one_pass():
    samples = CountingList(
        [sample("0101", "1"), sample("1010", "0"), sample("1111", "1")]
    )
    net = train(samples, 1)
    assert samples.iterations == 1
    assert net.hidden_count == len(samples)


class TestSerialization:
    def test_save_format(self):
        net = train([sample("1010", "10")], 1)
        assert save_network(net) == "CC4 1 5 1 2 1\n1 -1 1 -1 0\n1\n-1\n"

    def test_quantizer_words_make_version_2(self):
        net = train([sample("1010", "10")], 1).replace(quantizer="fixed 4 4 1 4")
        text = save_network(net)
        assert text == "CC4 2 5 1 2 1 fixed 4 4 1 4\n1 -1 1 -1 0\n1\n-1\n"
        assert load_network(text) == net
        assert load_network(text).quantizer == "fixed 4 4 1 4"
        assert load_network(text.replace(" fixed 4 4 1 4", "", 1).replace("2", "1", 1)) == (
            net.replace(quantizer=""))

    def load_with_label_edit(self, data, zero):
        """Draw a version 2 model with one-hot labels and flip one output
        weight of neuron i: its 1 if zero, else a 0. The version 1 form of the
        text loads the edited label; the version 2 form must fail naming i."""
        h, m = data.draw(st.integers(1, 40)), data.draw(st.integers(1 if zero else 2, 9))
        width = data.draw(st.integers(1, 20))
        anchors = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=h, max_size=h))
        classes = data.draw(st.lists(st.integers(0, m - 1), min_size=h, max_size=h))
        net = CC4Network(data.draw(st.integers(0, width)), width, m, tuple(anchors),
                         tuple(1 << c for c in classes), f"fixed {width} {width} 1 2")
        i = data.draw(st.integers(0, h - 1))
        o = classes[i] if zero else data.draw(st.integers(0, m - 1).filter(
            lambda o: o != classes[i]))
        lines = save_network(net).split("\n")
        row = lines[1 + h + m - 1 - o].split()  # output rows run from bit m - 1 down
        row[i] = "-1" if zero else "1"
        lines[1 + h + m - 1 - o] = " ".join(row)
        label = 1 << classes[i] ^ 1 << o
        v1 = "\n".join([f"CC4 1 {width + 1} {h} {m} {net.radius}"] + lines[1:])
        assert load_network(v1).labels[i] == label  # a version 1 model keeps raw labels
        with pytest.raises(ValueError) as info:
            load_network("\n".join(lines))
        assert str(info.value) == (f"hidden row {i + 1} (line {i + 2}): label {label:0{m}b}"
                                   f" (column {i + 1} of the output rows) is not one-hot")

    @given(st.data())
    @settings(max_examples=60)
    def test_v2_two_hot_label_is_refused(self, data):
        self.load_with_label_edit(data, zero=False)

    @given(st.data())
    @settings(max_examples=60)
    def test_v2_zero_label_is_refused(self, data):
        self.load_with_label_edit(data, zero=True)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_one_character_edit_of_a_row(self, data):
        # the block reader against a row-by-row reference: a trained model
        # with one character of one hidden or output row substituted,
        # inserted or deleted loads exactly when every row is its _sign_row
        # re-render (hidden rows with the bias r - s + 1), and otherwise fails
        # naming the first row that is not
        width = data.draw(st.integers(1, 30).filter(lambda w: w % 8))
        h, m, radius = data.draw(st.integers(2, 12)), data.draw(st.integers(1, 4)), 1
        v2 = data.draw(st.booleans())
        rng = Lcg64(data.draw(st.integers(0, 2**32 - 1)))
        samples = [TrainingSample(rng.next_word(width),
                                  BitWord(1 << rng.next_below(m), m) if v2 else rng.next_word(m))
                    for _ in range(h)]
        quantizer = f"fixed {width} {width} 1 2" if v2 else ""
        lines = save_network(train(samples, radius).replace(quantizer=quantizer)).split("\n")
        row = data.draw(st.integers(1, h + m))
        line = lines[row]
        at = data.draw(st.integers(0, len(line)))
        char = data.draw(st.sampled_from("1-0+ \t\r\x85") | st.characters(categories=["Nd"]))
        cut = data.draw(st.sampled_from([(0, 1), (1, 0), (1, 1)] if at < len(line) else [(0, 1)]))
        lines[row] = line[:at] + char * cut[1] + line[at + cut[0]:]  # insert, delete, substitute
        text = "\n".join(lines)
        canonical = text.replace("\r\n", "\n")  # a \r before the newline ends its line

        def value(k, line):  # row k's value, if the row is its own re-render
            signs = line.split(" ")[:-1] if k <= h else line.split(" ")
            if len(signs) != (width if k <= h else h) or not set(signs) <= {"1", "-1"}:
                return None
            v = int("".join("1" if f == "1" else "0" for f in signs), 2)
            want = cc4._sign_row(v, len(signs))
            return v if line == (f"{want} {radius - v.bit_count() + 1}" if k <= h else want) else None

        read = [value(k, line) for k, line in enumerate(canonical.split("\n")[1:1 + h + m], 1)]
        bad = next((k for k, v in enumerate(read, 1) if v is None), None)
        if bad is None and not (v2 and any(
                sum(c >> h - 1 - i & 1 for c in read[h:]) != 1 for i in range(h))):
            assert save_network(load_network(text)) == canonical
            return
        with pytest.raises(ValueError) as info:
            load_network(text)
        if bad is None:  # every row is canonical, but a v2 label is not one class
            assert "is not one-hot" in str(info.value)
        else:  # row k is line k + 1
            assert re.search(rf"(^|\()line {bad + 1}[:)]", str(info.value)), str(info.value)

    def test_blocks_of_rows_name_the_first_fault(self):
        # at n - 1 = 2 000 a window of _BLOCK bytes holds about 14 hidden
        # rows: a fault in the row that ends a window or the one after it,
        # with another on an output row, is named by its own row and line
        width, h = 2000, 40
        rng = random.Random(4)
        net = CC4Network(3, width, 2, tuple(rng.getrandbits(width) for _ in range(h)),
                         tuple(rng.randrange(4) for _ in range(h)))
        lines = save_network(net).split("\n")
        text = "\n".join(lines)
        assert load_network(text) == net
        ends, at = [], len(lines[0])  # the rows whose newline ends a window
        while (at := text.find("\n", at + 1 + cc4._BLOCK)) >= 0:
            ends.append(text.count("\n", 0, at))  # hidden row k ends on line k + 1
        assert ends == [14, 28]
        lines[h + 2] = lines[h + 2].replace(" ", "  ", 1)
        for row in (1, *ends, *(k + 1 for k in ends), h):
            broken = lines.copy()
            broken[row] = broken[row].replace(" ", "  ", 1)
            with pytest.raises(ValueError, match=rf"^hidden row {row} \(line {row + 1}\): not in"):
                load_network("\n".join(broken))
        with pytest.raises(ValueError, match=rf"^line {h + 3}: output row is not in"):
            load_network("\n".join(lines))

    def test_a_row_that_lends_a_field_to_the_next_is_named(self):
        # output row 1 gives its last field to output row 2: the block keeps
        # its characters, its "-1" count and its length, and read without the
        # per-row digit count it would load with the labels (1, 2, 1)
        text = "CC4 1 3 3 2 0\n-1 1 0\n1 -1 0\n1 1 -1\n1 -1\n1 -1 1 -1\n"
        with pytest.raises(ValueError, match="^line 5: output row has 2 fields, expected 3$"):
            load_network(text)
        assert load_network(text.replace("1 -1\n1 -1 1", "1 -1 1\n-1 1")).labels == (2, 1, 2)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_field_moved_across_a_row_boundary(self, data):
        # a hidden or output row's last field moved to the start of the next
        # row: the short row, the first fault in file order, is named
        width, h, m = data.draw(st.integers(1, 30)), data.draw(st.integers(2, 12)), 3
        radius = data.draw(st.integers(0, 3))
        rng = Lcg64(data.draw(st.integers(0, 2**32 - 1)))
        samples = [TrainingSample(rng.next_word(width), rng.next_word(m)) for _ in range(h)]
        lines = save_network(train(samples, radius)).split("\n")
        hidden = data.draw(st.booleans())
        row = data.draw(st.integers(1, h - 1) if hidden else st.integers(h + 1, h + m - 1))
        head, _, moved = lines[row].rpartition(" ")
        lines[row], lines[row + 1] = head, f"{moved} {lines[row + 1]}"
        fields = width + 1 if hidden else h
        with pytest.raises(ValueError) as info:
            load_network("\n".join(lines))
        assert str(info.value) == (f"line {row + 1}: {'hidden' if hidden else 'output'} row "
                                   f"has {fields - 1} fields, expected {fields}")

    @pytest.mark.parametrize("text, message", [
        ("CC4 1 3 1 1 1\n1-1  1\n1\n", "^line 2: hidden row has 2 fields, expected 3$"),
        ("CC4 1 3 2 1 1\n-1 -1 2\n-1 -1 2\n1-1 \n",
         "^line 4: output row has 1 fields, expected 2$"),
    ])
    def test_a_minus_outside_a_minus_one_is_refused(self, text, message):
        # "1-1 " has the characters, the length and the digits of a
        # canonical two-field row; only its "-" outside a " -1" gives it away
        with pytest.raises(ValueError, match=message):
            load_network(text)

    def test_roundtrip_both_directions(self):
        rng = Lcg64(3)
        samples = rng.next_training_set(8, 6, 3)
        net = train(samples, 2)
        text = save_network(net)
        assert load_network(text) == net
        assert save_network(load_network(text)) == text

    @given(st.data())
    @settings(max_examples=200)
    def test_save_matches_per_bit_reference(self, data):
        # widths on both sides of whole bytes, drawn apart from the rest
        width = data.draw(st.one_of(st.integers(1, 300), st.sampled_from([7, 8, 9, 257])))
        h, m = data.draw(st.integers(1, 40)), data.draw(st.integers(1, 20))
        radius = data.draw(st.integers(0, width))
        anchors = data.draw(st.lists(st.integers(0, 2**width - 1), min_size=h, max_size=h))
        labels = data.draw(st.lists(st.integers(0, 2**m - 1), min_size=h, max_size=h))
        net = CC4Network(radius, width, m, tuple(anchors), tuple(labels))

        def signs(bits):
            return " ".join("1" if b else "-1" for b in bits)

        def bits_of(value, w):
            return [value >> (w - 1 - k) & 1 for k in range(w)]

        expected = [f"CC4 1 {width + 1} {h} {m} {radius}"]
        expected += [f"{signs(bits_of(a, width))} {radius - sum(bits_of(a, width)) + 1}"
                     for a in anchors]
        expected += [signs([label >> (m - 1 - o) & 1 for label in labels]) for o in range(m)]
        text = save_network(net)
        assert text == "\n".join(expected) + "\n"
        assert load_network(text) == net

    @pytest.mark.parametrize(
        "text, message",
        [
            ("", "empty"),
            ("XX4 1 5 1 1 1\n1 1 1 1 1\n1\n", "bad model header"),
            ("CC4 2 5 1 1 1\n1 1 1 1 1\n1\n", "version"),
            # the version says whether words follow r: 2 with them, 1 without
            ("CC4 2 5 1 1 1\n-1 -1 -1 -1 2\n1\n", "line 1: version 2 with 0 quantizer words"),
            ("CC4 1 5 1 1 1 x\n-1 -1 -1 -1 2\n1\n", "line 1: version 1 with 1 quantizer words"),
            ("CC4 3 5 1 1 1 x\n-1 -1 -1 -1 2\n1\n", "line 1: version 3 with 1 quantizer words"),
            ("CC4 2 5 1 1 1 x  y\n-1 -1 -1 -1 2\n1\n", "line 1: .* not in canonical form"),
            ("CC4 2 5 1 1 1 x\ty\n-1 -1 -1 -1 2\n1\n", "line 1: .* not in canonical form"),
            ("CC4 2 5 1 1 1 x \n-1 -1 -1 -1 2\n1\n", "line 1: .* not in canonical form"),
            ("CC4 1 1 1 1 0\n1\n1\n", "n >= 2"),
            ("CC4 1 5 1 1 1\n1 1 1 1 1\n1\n1\n", "expected 3 lines"),
            ("CC4 1 5 1 1 1\n1 1 1 1\n1\n", "hidden row has 4 fields"),
            ("CC4 1 5 1 1 1\n1 1 x 1 1\n1\n", "non-integer"),
            ("CC4 1 5 1 1 1\n1 2 1 1 1\n1\n", "pattern weight"),
            ("CC4 1 5 1 1 1\n1 +1 1 1 1\n1\n", "pattern weight '\\+1' is not 1 or -1"),
            ("CC4 1 5 1 1 1\n1 01 1 1 1\n1\n", "pattern weight '01' is not 1 or -1"),
            ("CC4 1 5 1 1 1\n1 1 1 -01 1\n1\n", "pattern weight '-01' is not 1 or -1"),
            ("CC4 1 5 1 1 1\n1 1 1 1 -2\n01\n", "output weight '01' is not 1 or -1"),
            ("CC4 1 5 x 1 1\n1 1 1 1 1\n1\n", "non-integer field in model header"),
            ("CC4 1 5 1 1 1\n1 1 1 1 x\n1\n", "non-integer weight in hidden row: '1 1 1 1 x'"),
            # line 2's bias is reported before line 3's weight: faults in file order
            ("CC4 1 5 1 1 1\n1 1 1 1 1\n0\n",
             r"hidden row 1 \(line 2\): bias 1 != r - s \+ 1 = -2"),
            ("CC4 1 5 1 1 -1\n1 1 1 1 1\n0\n", r"line 1: model header needs .*, r >= 0: "),
            # a fault on line 2 and on the last line (output weight 0): line 2's is named
            *((f"CC4 1 5 2 1 1\n{row}\n1 1 -1 -1 0\n1 0\n", message) for row, message in (
                ("-1 -1 -1 -1 3", r"^hidden row 1 \(line 2\): bias 3 != r - s \+ 1 = 2$"),
                ("-1 -1 -1 -1 +2", r"^hidden row 1 \(line 2\): not in canonical form: "),
                ("2 -1 -1 -1 2", r"^line 2: pattern weight '2' is not 1 or -1$"),
                ("-1 -1 -1 -1 2", r"^line 4: output weight '0' is not 1 or -1$"))),
            ("CC4 1 5 1 1 1\n1 1 1 1 7\n1\n", r"hidden row 1 \(line 2\): bias 7"),
            # header fields int() reads but save_network never writes
            ("CC4 01 5 1 1 1\n-1 -1 -1 -1 2\n1\n", "line 1: model header 'CC4 01 5"),
            ("CC4 1 5 1 1 +1\n-1 -1 -1 -1 2\n1\n", "line 1: .* not in canonical form"),
            ("CC4 1 5 1 1 0_1\n-1 -1 -1 -1 2\n1\n", "line 1: .* not in canonical form"),
            ("CC4 1 5 1 1 \u0661\n-1 -1 -1 -1 2\n1\n", "line 1: .* not in canonical form"),
            ("CC4\t1 5 1 1 1\n-1 -1 -1 -1 2\n1\n", "line 1: .* not in canonical form"),
            ("CC4 1  5 1 1 1\n-1 -1 -1 -1 2\n1\n", "line 1: .* not in canonical form"),
            # the bias 2 and the row spelt other than save_network writes them
            ("CC4 1 5 1 1 1\n-1 -1 -1 -1 +2\n1\n", r"row 1 \(line 2\): not in canonical"),
            ("CC4 1 5 1 1 1\n-1 -1 -1 -1 02\n1\n", r"row 1 \(line 2\): not in canonical"),
            ("CC4 1 5 1 1 1\n-1 -1 -1 -1 0_2\n1\n", r"row 1 \(line 2\): not in canonical"),
            ("CC4 1 5 1 1 1\n1 1 -1 -1 00\n1\n", r"row 1 \(line 2\): not in canonical"),
            ("CC4 1 5 1 1 1\n1 1 -1 -1 -0\n1\n", r"row 1 \(line 2\): not in canonical"),
            ("CC4 1 5 1 1 1\n-1 -1 -1 -1 \u0662\n1\n", r"row 1 \(line 2\): not in canon"),
            ("CC4 1 5 1 1 1\n-1  -1 -1 -1 2\n1\n", r"row 1 \(line 2\): not in canonical"),
            ("CC4 1 5 1 1 1\n-1\t-1 -1 -1 2\n1\n", r"row 1 \(line 2\): not in canonical"),
            ("CC4 1 5 1 1 1\n-1 -1 -1 -1 2 \n1\n", r"row 1 \(line 2\): not in canonical"),
            ("CC4 1 5 1 1 1\n -1 -1 -1 -1 2\n1\n", r"row 1 \(line 2\): not in canonical"),
            ("CC4 1 5 1 2 1\n-1 -1 -1 -1 2\n1\n1 \n", "line 4: output row is not in canon"),
            ("CC4 1 5 1 1 1\n-1 -1 -1 -1 2\n-1 1\n", "line 3: output row has 2 fields"),
            # "-0" reads as a negative value, whose signs cannot be rendered
            ("CC4 1 4 1 1 1\n-0 1 2\n1\n", "^line 2: hidden row has 3 fields, expected 4$"),
            ("CC4 1 4 3 1 1\n" + "-1 -1 -1 2\n" * 3 + "-0 1\n",
             "^line 5: output row has 2 fields, expected 3$"),
            # only \n (or \r\n) ends a line: other breaks are inside the row
            *((f"CC4 1 5 1 1 1\n-1 -1{brk}-1 -1 2\n1\n", r"row 1 \(line 2\): not in canon")
              for brk in ("\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\r")),
            ("CC4 1 5 1 1 1\n-1 -1 -1 -1 2\n1\u2028\n", "line 3: output row is not in"),
            ("CC4 1 5 1 1 1\r-1 -1 -1 -1 2\n1\n", "line 1: model header .* not in canonical"),
            ("CC4 1 5 1 1 1\n-1 -1 -1 -1 2\n1\n\n", "expected 3 lines, found 4"),
            # a bias too long to print whole, or for int() to read
            pytest.param("CC4 1 5 1 1 1\n-1 -1 -1 -1 " + "9" * 4000 + "\n1\n",
                         r"row 1 \(line 2\): bias '9+' at column 1 of 4000 != r - s \+ 1 = 2",
                         id="bias-of-4000-digits"),
            pytest.param("CC4 1 5 1 1 1\n-1 -1 -1 -1 " + "9" * 5000 + "\n1\n",
                         r"row 1 \(line 2\): bias '9+' at column 1 of 5000 != r - s \+ 1 = 2",
                         id="bias-of-5000-digits"),
            pytest.param("CC4 1 5 1 1 1\n-1 -1 -1 -1 " + "0" * 5000 + "2\n1\n",
                         r"row 1 \(line 2\): not in canonical form: '.*-1 0+' at column 13",
                         id="bias-2-after-5000-zeros"),
            *(pytest.param("CC4 1 5 1 1 1\n-1 -1 -1 -1 " + bias + "\n1\n",
                           rf"row 1 \(line 2\): bias '{re.escape(bias[:30])}' at column 1 of "
                           rf"{len(bias)} != r - s \+ 1 = 2", id=f"bias-{bias[:2]}-x{len(bias)}")
              for bias in ("0" * 5000, "-" + "0" * 5000, "+" + "9" * 5000, "-" + "9" * 5000)),
        ],
    )
    def test_load_rejects_malformed_text(self, text, message):
        with pytest.raises(ValueError, match=message) as info:
            load_network(text)
        assert len(str(info.value)) < 160

    def test_crlf_line_ends_load(self):
        net = train(Lcg64(3).next_training_set(8, 6, 3), 2)
        text = save_network(net)
        assert load_network(text.replace("\n", "\r\n")) == net
        assert load_network(text.removesuffix("\n")) == net

    @pytest.mark.parametrize("h, width", [(5000, 3), (1, 5000)])
    def test_long_row_errors_quote_a_window(self, h, width):
        # one fault far into a 5 000-field row, output row (h) or hidden row (width)
        net = CC4Network(1, width, 1, tuple(i % (1 << width) for i in range(h)),
                         tuple(i % 2 for i in range(h)))
        lines = save_network(net).split("\n")
        row = 1 + h if h > 1 else 1
        gap = lines[row].index(" ", 6000)  # a field starts at gap + 1, column gap + 2
        for at, fault, message in [
            (gap + 1, " ", f"not in canonical form: '.*  .*' at column {gap + 2} of "),
            (gap + 1, "x", f"non-integer weight in .* row: '.* x.*' at column {gap + 2} of "),
            (gap, "7", "weight '-?17' is not 1 or -1"),
        ]:
            broken = lines.copy()
            broken[row] = lines[row][:at] + fault + lines[row][at:]
            with pytest.raises(ValueError, match=message) as info:
                load_network("\n".join(broken))
            assert f"line {row + 1}" in str(info.value)
            assert len(str(info.value)) < 160
    def test_header_width_bounds_no_allocation(self):
        # a forged n must not size the re-render of a short row
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="line 2: hidden row has 5 fields"):
                load_network("CC4 1 10000001 1 1 1\n1 1 1 1 -2\n1\n")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_load_model_peaks_near_the_file_size(self, tmp_path):
        # a model of about 1 MB is read as its bytes, a window at a time: no
        # whole-file text, line list or re-encoded copy beside them
        from unarynet.cli import _load_model
        rng = random.Random(9)
        net = CC4Network(3, 256, 4, tuple(rng.getrandbits(256) for _ in range(1600)),
                         tuple(rng.randrange(16) for _ in range(1600)))
        path = tmp_path / "m.cc4"
        path.write_text(save_network(net), encoding="ascii")
        size = path.stat().st_size
        assert 900_000 < size < 1_100_000
        tracemalloc.start()
        try:
            loaded = _load_model(str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert loaded == net
        assert peak < 1.5 * size, (peak, size)

    def test_network_invariants_enforced(self):
        with pytest.raises(ValueError, match="radius"):
            CC4Network(-1, 1, 1, (1,), (1,))
        with pytest.raises(ValueError, match="no hidden"):
            CC4Network(1, 1, 1, (), ())
        with pytest.raises(ValueError, match="pattern width and output count"):
            CC4Network(1, 0, 1, (0,), (0,))
        with pytest.raises(ValueError, match="pattern width and output count"):
            CC4Network(1, 1, 0, (0,), (0,))
        with pytest.raises(ValueError, match="label count does not match"):
            CC4Network(1, 1, 1, (0, 1), (0,))
        for anchor in (-1, 2):
            with pytest.raises(ValueError, match="anchor outside 1 bits"):
                CC4Network(1, 1, 1, (anchor,), (0,))
        for label in (-1, 2):
            with pytest.raises(ValueError, match="label outside 1 bits"):
                CC4Network(1, 1, 1, (0,), (label,))


def _outcome(model):
    """load_network's network, or its message."""
    try:
        return load_network(model)
    except ValueError as e:
        return str(e)


class TestByteWindows:
    """load_network reads a model's bytes a window of about _BLOCK bytes at a
    time; a str is read as the same bytes, and a window it refuses is read
    again a row at a time as text."""

    @staticmethod
    def model(h, width, m, seed=5, quantizer=""):
        rng = random.Random(seed)
        labels = [1 << rng.randrange(m) if quantizer else rng.getrandbits(m) for _ in range(h)]
        return CC4Network(2, width, m, tuple(rng.getrandbits(width) for _ in range(h)),
                          tuple(labels), quantizer)

    @given(st.data())
    @settings(max_examples=300, deadline=None)
    def test_text_and_bytes_load_alike(self, data):
        # the same network or the same message from a str and from its bytes,
        # under a one-character edit, CR LF or bare CR line ends, a missing
        # final newline, and non-ASCII bytes (their surrogate escapes in the
        # str), at window sizes that cut rows anywhere
        h, width, m = data.draw(st.integers(1, 9)), data.draw(st.integers(1, 20)), data.draw(
            st.sampled_from([1, 2, 8, 9]))
        v2 = data.draw(st.booleans())
        net = self.model(h, width, m, data.draw(st.integers(0, 99)),
                         f"fixed {width} {width} 1 2" if v2 else "")
        text = save_network(net)
        at = data.draw(st.integers(0, len(text)))
        char = data.draw(st.sampled_from("1-0+ \t\r\n\x0c\x7f") | st.sampled_from(
            ["\r\n", "\udc80", "\udcff", "\udcc3\udca9", ""]))
        cut = data.draw(st.integers(0, 1 if at < len(text) else 0))
        text = text[:at] + char + text[at + cut:]
        if data.draw(st.booleans()):
            text = text.replace("\n", data.draw(st.sampled_from(["\r\n", "\r\r\n"])))
        if data.draw(st.booleans()):
            text = text.rstrip("\n")
        raw = text.encode("ascii", "surrogateescape")
        with mock.patch.object(cc4, "_BLOCK", data.draw(st.sampled_from([1, 5, 40, 1 << 16]))):
            got = _outcome(text)
            assert _outcome(raw) == got
        assert _outcome(text) == got  # and the default window reads it alike

    @pytest.mark.parametrize("m", [1, 8, 9, 16, 17])
    @pytest.mark.parametrize("block", [1, 7, 64, 200, 1 << 16])
    def test_windows_cut_anywhere_read_the_same_network(self, m, block):
        # a window of 1 byte holds one row; of 64 or 200 bytes it ends inside
        # a hidden row; of 64 KB it would hold the whole model, and is cut
        # where the output rows begin; the labels take one byte up to m = 8,
        # two up to 16 and three at 17
        net = self.model(30, 40, m)
        text = save_network(net)
        with mock.patch.object(cc4, "_BLOCK", block):
            for form in (text, text.encode(), text.removesuffix("\n"),
                         text.replace("\n", "\r\n").encode()):
                assert load_network(form) == net

    @pytest.mark.parametrize("block", [1, 7, 64, 200, 1 << 16])
    def test_first_fault_named_whatever_the_window(self, block):
        # a fault in each hidden row or each output row is named by its own
        # line, with a second fault after it in the file
        net = self.model(12, 20, 3)
        lines = save_network(net).split("\n")
        with mock.patch.object(cc4, "_BLOCK", block):
            for row in range(1, 16):
                broken = lines.copy()
                broken[row] = broken[row].replace(" ", "  ", 1)
                broken[15] = broken[15] + " "
                message = (f"hidden row {row} (line {row + 1}): not in canonical form"
                           if row <= 12 else f"line {row + 1}: output row is not in canonical")
                for form in ("\n".join(broken), "\r\n".join(broken).encode()):
                    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
                        load_network(form)

    def test_a_row_straddling_the_window_end(self):
        # at the default _BLOCK, 2 000-bit hidden rows cross each window's
        # end; a fault on either side of the cut, or in the row the cut falls
        # in, is named by its line
        net = self.model(40, 2000, 2)
        text = save_network(net)
        assert load_network(text.encode()) == net
        cut = text.index("\n", cc4._BLOCK + len(text.split("\n")[0]) + 1)
        row = text.count("\n", 0, cut)  # the row the first window's cut ends
        for at, lineno in ((cut - 1, row + 1), (cut + 1, row + 2)):  # bias, first sign
            broken = text[:at] + "x" + text[at + 1:]
            with pytest.raises(ValueError, match=f"^line {lineno}: non-integer weight"):
                load_network(broken.encode())

    @pytest.mark.parametrize("text, message", [
        ("CC4 1 5 1 1 1\n-1 -1 -1 -1 2\n\n", "line 3: output row has 0 fields, expected 1"),
        ("CC4 1 5 2 1 1\n\n-1 -1 -1 -1 2\n1 1\n", "line 2: hidden row has 0 fields, expected 5"),
        ("CC4 1 5 1 1 1\n-1 -1 -1 -1 2\n1\r", "line 3: output row is not in canonical form: "
                                           "'1\\r'"),
        ("CC4 1 5 1 1 1\n-1 -1 -1 -1 2\r\r\n1\n", "hidden row 1 (line 2): not in canonical "
                                               "form: '-1 -1 -1 -1 2\\r'"),
    ])
    def test_empty_rows_and_carriage_returns_at_a_window_end(self, text, message):
        for form in (text, text.encode()):
            with pytest.raises(ValueError) as info:
                load_network(form)
            assert str(info.value) == message

    def test_a_bytes_line_is_quoted_with_its_surrogate_escapes(self):
        # as the command line decodes a model file: each non-ASCII byte stays
        with pytest.raises(ValueError) as info:
            load_network(b"CC4 1 5 1 1 1\n-1 -1 -1 -1 2\n1\xff\n")
        assert str(info.value) == "line 3: non-integer weight in output row: '1\\udcff'"
