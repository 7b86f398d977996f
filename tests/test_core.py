"""Primitives: dominance relation, distances, bitstrings, mutation, streams."""

import itertools
import math

import numpy as np
import pytest

from emolab.core import (
    bits_from_str,
    bitwise_mutate,
    child_seed,
    dominates,
    random_bitstring,
    stream,
)
from emolab.survival import reference_distances


class TestDominance:
    def test_componentwise_examples(self):
        assert dominates((2, 3), (1, 3))
        assert not dominates((1, 3), (2, 3))
        assert not dominates((0, 4), (4, 0)) and not dominates((4, 0), (0, 4))
        assert not dominates((5, 5), (5, 5))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            dominates((1, 2), (1, 2, 3))

    def test_strict_partial_order_by_brute_force(self):
        # exhaustive check over all vectors with coordinates in [0..5]
        vectors = list(itertools.product(range(6), repeat=2))
        rel = {(a, b): dominates(a, b) for a in vectors for b in vectors}
        for a in vectors:
            assert not rel[(a, a)]  # irreflexive
        for a in vectors:
            for b in vectors:
                assert not (rel[(a, b)] and rel[(b, a)])  # asymmetric
        for a in vectors:
            for b in vectors:
                if not rel[(a, b)]:
                    continue
                for c in vectors:
                    if rel[(b, c)]:
                        assert rel[(a, c)]  # transitive


class TestEuclideanDistance:
    def test_metric_properties_on_random_triples(self):
        # the distance the reference-point policy ranks by
        def dist(a, b):
            return reference_distances([a], b)[0]

        rng = np.random.default_rng(42)
        for _ in range(300):
            a, b, c = (tuple(rng.normal(size=2)) for _ in range(3))
            dab = dist(a, b)
            assert dab >= 0.0
            assert dab == pytest.approx(dist(b, a))
            assert dab <= dist(a, c) + dist(c, b) + 1e-12


class TestRandomBitstring:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            random_bitstring(0, stream(1))

    def test_single_bit_uniform(self):
        rng = stream(7)
        draws = sum(int(random_bitstring(1, rng)[0]) for _ in range(10_000))
        assert abs(draws / 10_000 - 0.5) < 0.02

    def test_binomial_mean(self):
        rng = stream(11)
        total = sum(int(random_bitstring(20, rng).sum()) for _ in range(10_000))
        assert abs(total / 10_000 - 10.0) < 0.3

    def test_deterministic_given_seed(self):
        a = random_bitstring(64, stream(123))
        b = random_bitstring(64, stream(123))
        assert np.array_equal(a, b)

    def test_result_is_read_only(self):
        bits = random_bitstring(8, stream(0))
        with pytest.raises(ValueError):
            bits[0] = 1


class TestBitwiseMutate:
    def test_rate_zero_is_identity(self):
        x = bits_from_str("0110100101")
        y = bitwise_mutate(x, 0.0, stream(5))
        assert np.array_equal(x, y)

    def test_rate_one_is_complement(self):
        x = bits_from_str("0110100101")
        y = bitwise_mutate(x, 1.0, stream(5))
        assert np.array_equal(y, 1 - x)

    def test_input_unchanged(self):
        x = bits_from_str("1111")
        before = x.copy()
        bitwise_mutate(x, 0.5, stream(9))
        assert np.array_equal(x, before)

    def test_batch_matches_row_calls_from_one_stream(self):
        # one (P, n) draw consumes the stream exactly as P row draws do
        rng = stream(21)
        batch = np.stack([random_bitstring(13, rng) for _ in range(7)])
        for rate in (0.0, 1 / 13, 0.5, 1.0):
            rows_rng, batch_rng = stream(99), stream(99)
            rows = np.stack([bitwise_mutate(x, rate, rows_rng) for x in batch])
            assert np.array_equal(bitwise_mutate(batch, rate, batch_rng), rows)
            assert rows_rng.random() == batch_rng.random()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            bitwise_mutate(bits_from_str("01"), 1.5, stream(1))

    def test_expected_flip_count_at_rate_one_over_n(self):
        n = 20
        rng = stream(13)
        x = random_bitstring(n, rng)
        total = 0
        for _ in range(10_000):
            total += int(np.count_nonzero(bitwise_mutate(x, 1.0 / n, rng) != x))
        assert abs(total / 10_000 - 1.0) < 0.05

    def test_per_bit_flip_frequency(self):
        # each position flips with probability p, within 5 standard errors
        n, p, trials = 10, 0.15, 100_000
        rng = stream(17)
        x = random_bitstring(n, rng)
        counts = np.zeros(n, dtype=np.int64)
        for _ in range(trials):
            counts += bitwise_mutate(x, p, rng) != x
        tolerance = 5 * math.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(counts / trials - p) < tolerance)


class TestRendering:
    def test_round_trip(self):
        text = "010011"
        bits = bits_from_str(text)
        assert bits.dtype == np.uint8 and not bits.flags.writeable
        assert "".join(map(str, bits.tolist())) == text

    def test_rejects_bad_text(self):
        with pytest.raises(ValueError):
            bits_from_str("01a1")
        with pytest.raises(ValueError):
            bits_from_str("")


class TestStreams:
    def test_same_seed_same_output(self):
        assert stream(99).random(5).tolist() == stream(99).random(5).tolist()

    def test_child_seeds_distinct_across_keys(self):
        seeds = {child_seed(4, "trial", n, v, t)
                 for n in range(4) for v in range(3) for t in range(50)}
        assert len(seeds) == 4 * 3 * 50

    def test_child_seed_deterministic(self):
        assert child_seed(1, "a", 2) == child_seed(1, "a", 2)
        assert child_seed(1, "a", 2) != child_seed(1, "a", 3)
        assert child_seed(1, "a", 2) != child_seed(2, "a", 2)
