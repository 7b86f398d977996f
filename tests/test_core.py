"""Primitives: distances, bitstrings, mutation, streams."""

import math

import numpy as np
import pytest

from emolab.core import (
    bitwise_mutate,
    child_seed,
    random_population,
    stream,
)
from emolab.survival import reference_distances


def bits(text):
    """'0'/'1' text, position 0 leftmost, as a uint8 bitstring."""
    return np.array([int(c) for c in text], dtype=np.uint8)


def row_draw(n, rng):
    """One row of n uniform bits as numpy draws it: the row-by-row reference."""
    return rng.integers(0, 2, size=n, dtype=np.uint8)


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
    """The rows random_population draws are uniform random bitstrings."""

    def test_single_bit_uniform(self):
        draws = random_population(10_000, 1, stream(7))
        assert abs(int(draws.sum()) / 10_000 - 0.5) < 0.02

    def test_binomial_mean(self):
        total = int(random_population(10_000, 20, stream(11)).sum())
        assert abs(total / 10_000 - 10.0) < 0.3

    def test_deterministic_given_seed(self):
        a = random_population(3, 64, stream(123))
        b = random_population(3, 64, stream(123))
        assert np.array_equal(a, b)


class TestRandomPopulation:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5, 8, 14, 50, 101])
    @pytest.mark.parametrize("size", [1, 2, 3, 7, 204])
    def test_one_draw_matches_row_calls(self, n, size):
        # the next draws cover PCG64's buffered half of a 64-bit output too
        for seed in (0, 1, 77):
            draw_rng, rows_rng = stream(seed), stream(seed)
            population = random_population(size, n, draw_rng)
            rows = np.stack([row_draw(n, rows_rng) for _ in range(size)])
            assert population.dtype == np.uint8 and population.shape == (size, n)
            assert np.array_equal(population, rows)
            assert draw_rng.random(3).tolist() == rows_rng.random(3).tolist()
            assert (draw_rng.integers(0, 1 << 32, 3, dtype=np.uint32).tolist()
                    == rows_rng.integers(0, 1 << 32, 3, dtype=np.uint32).tolist())


class TestBitwiseMutate:
    def test_rate_zero_is_identity(self):
        x = bits("0110100101")
        y = bitwise_mutate(x, 0.0, stream(5))
        assert np.array_equal(x, y)

    def test_rate_one_is_complement(self):
        x = bits("0110100101")
        y = bitwise_mutate(x, 1.0, stream(5))
        assert np.array_equal(y, 1 - x)

    def test_input_unchanged(self):
        x = bits("1111")
        before = x.copy()
        bitwise_mutate(x, 0.5, stream(9))
        assert np.array_equal(x, before)

    def test_batch_matches_row_calls_from_one_stream(self):
        # one (P, n) draw consumes the stream exactly as P row draws do
        rng = stream(21)
        batch = np.stack([row_draw(13, rng) for _ in range(7)])
        for rate in (0.0, 1 / 13, 0.5, 1.0):
            rows_rng, batch_rng = stream(99), stream(99)
            rows = np.stack([bitwise_mutate(x, rate, rows_rng) for x in batch])
            assert np.array_equal(bitwise_mutate(batch, rate, batch_rng), rows)
            assert rows_rng.random() == batch_rng.random()

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            bitwise_mutate(bits("01"), 1.5, stream(1))

    def test_expected_flip_count_at_rate_one_over_n(self):
        n = 20
        rng = stream(13)
        x = row_draw(n, rng)
        total = 0
        for _ in range(10_000):
            total += int(np.count_nonzero(bitwise_mutate(x, 1.0 / n, rng) != x))
        assert abs(total / 10_000 - 1.0) < 0.05

    def test_per_bit_flip_frequency(self):
        # each position flips with probability p, within 5 standard errors
        n, p, trials = 10, 0.15, 100_000
        rng = stream(17)
        x = row_draw(n, rng)
        counts = np.zeros(n, dtype=np.int64)
        for _ in range(trials):
            counts += bitwise_mutate(x, p, rng) != x
        tolerance = 5 * math.sqrt(p * (1 - p) / trials)
        assert np.all(np.abs(counts / trials - p) < tolerance)


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
