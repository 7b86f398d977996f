"""Benchmarks, closed-form fronts, the enumeration oracle, and NK instances."""

import hashlib
import pickle
import tracemalloc

import numpy as np
import pytest

from emolab import lab, problems
from emolab.core import random_population, stream
from emolab.problems import (
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    enumerate_pareto_front,
    generate_nk_instance,
)


def dominates(a, b):
    """a is at least as good in both objectives and differs from b (maximization)."""
    return a[0] >= b[0] and a[1] >= b[1] and tuple(a) != tuple(b)


def all_bitstrings(n):
    """Every bitstring of length n as the rows of a (2^n, n) array, in numeric order."""
    return np.stack(bits(*(format(value, f"0{n}b") for value in range(1 << n))))


def rows(problem, bitstrings):
    """The objective vectors of the bitstrings, as tuples, from the problem's evaluator."""
    return [tuple(v) for v in problem.evaluator()(np.stack(bitstrings)).tolist()]


def bits(*texts):
    """'0'/'1' texts, position 0 leftmost, as uint8 bitstrings."""
    return [np.array([int(c) for c in text], dtype=np.uint8) for text in texts]


def nk_terms(instance, x):
    """The (2, n) contributions of bitstring x, one row per objective, in position order."""
    n, K = instance.n, instance.K
    own = x.astype(np.int64) << K
    powers = 1 << np.arange(K - 1, -1, -1, dtype=np.int64)
    rows = np.arange(n)
    terms = []
    for j in (0, 1):
        idx = own + x[instance.loci[j]].astype(np.int64) @ powers if K else own
        terms.append(instance.contributions[j, rows, idx])
    return np.stack(terms)


def nk_reference(instance, x):
    """The per-bitstring NK evaluation the batch evaluator replaced."""
    return tuple(nk_terms(instance, x).mean(axis=1).tolist())


def column_order_means(instance, x):
    """Bitstring x's objectives summed one position after another, then divided by n."""
    return tuple((np.cumsum(nk_terms(instance, x), axis=1)[:, -1] / instance.n).tolist())


class TestEvaluate:
    def test_oneminmax(self):
        assert rows(OneMinMax(10), bits("1" * 10, "0" * 10)) == [(0.0, 10.0), (10.0, 0.0)]
        assert rows(OneMinMax(4), bits("0110")) == [(2.0, 2.0)]

    def test_ojzj_extremes_and_valley(self):
        problem = OneJumpZeroJump(12, 2)
        assert rows(problem, bits("1" * 12, "0" * 12)) == [(14.0, 2.0), (2.0, 14.0)]
        # 11 ones: f1 falls into the valley, f2 = k + zeros
        assert rows(problem, bits("1" * 11 + "0")) == [(1.0, 3.0)]
        # single one: f2 falls into the valley
        assert rows(problem, bits("1" + "0" * 11)) == [(3.0, 1.0)]
        assert rows(problem, bits("1" * 6 + "0" * 6)) == [(8.0, 8.0)]

    def test_oneminmax_star(self):
        problem = OneMinMaxStar(10)
        assert rows(problem, bits("0" * 10, "1" * 10, "1" + "0" * 9)) == [
            (-10.0, 20.0), (0.0, 10.0), (9.0, 1.0)]

    def test_constant_nk_tables_give_constant_objectives(self):
        problem = generate_nk_instance(6, 2, seed=5)
        problem.contributions = np.full_like(problem.contributions, 0.375)
        assert rows(problem, bits("000000", "101011")) == [(0.375, 0.375)] * 2

    def test_omm_objectives_sum_to_n(self):
        rng = stream(3)
        for n in (1, 5, 13):
            problem = OneMinMax(n)
            for f in rows(problem, random_population(50, n, rng)):
                assert f[0] + f[1] == n


class TestBatchEvaluator:
    def test_rows_match_evaluate_for_every_problem(self):
        # a batch's rows are the rows of one-bitstring batches
        rng = stream(8)
        for problem in (OneMinMax(11), OneMinMaxStar(11), OneJumpZeroJump(11, 2),
                        generate_nk_instance(11, 3, seed=4)):
            batch = random_population(40, 11, rng)
            batch[0], batch[1] = 0, 1
            got = problem.evaluator()(batch)
            assert got.shape == (40, 2) and got.dtype == np.float64
            assert [tuple(v) for v in got.tolist()] == [rows(problem, [x])[0] for x in batch]

    def test_ones_counts_past_a_byte(self):
        # the counts are kept in the smallest type that holds n: n = 255 fits a byte, 256 does not
        for n in (255, 256, 300, 70_000):
            batch = np.zeros((4, n), dtype=np.uint8)
            batch[1], batch[2, :n - 1], batch[3, ::2] = 1, 1, 1
            ones = [0, n, n - 1, (n + 1) // 2]
            for problem in (OneMinMax(n), OneMinMaxStar(n), OneJumpZeroJump(n, 2)):
                assert problem.evaluator()(batch).tolist() == problem.ones_table()[ones].tolist()

    def test_nk_matches_per_bitstring_reference_exactly(self):
        # n = 8 and 24 end on a byte boundary; at (22, 15) indices reach about 2.9M
        rng = stream(19)
        for size in (300, 1):
            for n, K in ((5, 0), (9, 1), (16, 3), (25, 3), (20, 7), (13, 12), (8, 3), (24, 5),
                         (22, 15)):
                instance = generate_nk_instance(n, K, seed=n * 31 + K)
                batch = (rng.random((size, n)) < rng.random((size, 1))).astype(np.uint8)
                got = instance.evaluator()(batch)
                assert got.shape == (size, 2)
                assert [tuple(v) for v in got.tolist()] == \
                       [nk_reference(instance, x) for x in batch]

    @pytest.mark.parametrize("n", [12, 14, 16, 25])
    def test_nk_sum_over_n_is_the_mean_bit_for_bit(self, n):
        # hits compare objective vectors with ==, so every bit counts
        rng = stream(20 + n)
        instance = generate_nk_instance(n, 3, seed=n)
        for size in (1, 100, 1000):
            batch = (rng.random((size, n)) < rng.random((size, 1))).astype(np.uint8)
            mean = np.stack([nk_terms(instance, x) for x in batch]).mean(axis=2)
            assert instance.evaluator()(batch).tobytes() == mean.tobytes()


class TestClosedFormFronts:
    def test_oneminmax_front(self):
        front = OneMinMax(4).front()
        assert front == {(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0)}

    def test_ojzj_front(self):
        front = OneJumpZeroJump(8, 2).front()
        expected = {(4.0, 8.0), (5.0, 7.0), (6.0, 6.0), (7.0, 5.0), (8.0, 4.0),
                    (2.0, 10.0), (10.0, 2.0)}
        assert front == expected
        assert len(front) == 8 - 2 * 2 + 3

    def test_oneminmax_star_front(self):
        front = OneMinMaxStar(4).front()
        assert front == {(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (-4.0, 8.0)}


def evaluator_path_front(problem):
    """The enumeration loop that evaluated every block through evaluator(), kept as the reference."""
    n = problem.n
    objectives_of = problem.evaluator()
    shifts = np.arange(n - 1, -1, -1)
    front, values = np.empty((0, 2)), np.empty(0, dtype=np.int64)
    for start in range(0, 1 << n, 1 << 16):
        block = np.arange(start, min(start + (1 << 16), 1 << n), dtype=np.int64)
        bits = ((block[:, None] >> shifts) & 1).astype(np.uint8)
        front, values = problems._skyline(np.concatenate((front, objectives_of(bits))),
                                          np.concatenate((values, block)))
    witnesses = ((values[:, None] >> shifts) & 1).astype(np.uint8)
    return dict(zip(map(tuple, front.tolist()), witnesses))


def assert_same_front(front, expected):
    """Same vectors in the same order, each with the same witness."""
    assert list(front) == list(expected)
    for point, witness in front.items():
        assert np.array_equal(witness, expected[point])


def cheap_sums_differ_within_the_margin(problem):
    """Whether some row's cheap sum differs from n times its evaluated objectives, after
    asserting that on the first, second and last blocks none differs by more than the margin."""
    n, margin = problem.n, problems._nk_margin(problem)
    last = (1 << n) // problems.ENUMERATION_BLOCK - 1
    checked, differ = 0, False
    for index, (sums, start) in enumerate(problems._nk_sums(problem)):
        if index in (0, 1, last):
            values = np.arange(start, start + sums.shape[1])
            error = np.abs(sums.T - n * problem.evaluator()(problems._bits(values, n)))
            assert error.max() <= margin
            differ |= bool(error.any())
            checked += 1
    assert checked == 3
    return differ


class TestEnumerationOracle:
    def test_matches_closed_form_oneminmax(self):
        for n in range(1, 13):
            assert set(enumerate_pareto_front(OneMinMax(n))) == OneMinMax(n).front()

    def test_matches_closed_form_everywhere_small(self):
        problems = [OneMinMaxStar(n) for n in range(1, 13)]
        problems += [OneJumpZeroJump(n, 2) for n in range(8, 13)]
        problems += [OneJumpZeroJump(12, 3)]
        for problem in problems:
            assert set(enumerate_pareto_front(problem)) == problem.front()

    def test_ojzj_front_size(self):
        front = enumerate_pareto_front(OneJumpZeroJump(12, 3))
        assert len(front) == 12 - 2 * 3 + 3

    def test_size_guard(self):
        with pytest.raises(ValueError, match="enumeration is limited to n <= 25, got n=26"):
            enumerate_pareto_front(OneMinMax(26))

    def test_nk_points_nondominated_against_full_space(self):
        problem = generate_nk_instance(5, 2, seed=9)
        front = enumerate_pareto_front(problem)
        everything = rows(problem, all_bitstrings(5))
        for point in front:
            assert not any(dominates(other, point) for other in everything)
        # and nothing non-dominated is missing
        for vector in everything:
            if not any(dominates(other, vector) for other in everything):
                assert vector in front

    def test_witnesses_evaluate_to_their_point(self):
        problem = generate_nk_instance(7, 3, seed=2)
        front = enumerate_pareto_front(problem)
        for point, witness in front.items():
            assert not witness.flags.writeable
        assert rows(problem, list(front.values())) == list(front)

    @pytest.mark.parametrize("n", [12, 14, 16])
    def test_nk_witnesses_evaluate_to_exactly_their_vector(self, n):
        # the front's vectors are the evaluator's, bit for bit
        instance = generate_nk_instance(n, 3, seed=n)
        front = enumerate_pareto_front(instance)
        got = instance.evaluator()(np.stack(list(front.values())))
        assert got.tobytes() == np.array(list(front)).tobytes()

    def test_every_omm_solution_is_pareto_optimal(self):
        for n in (5, 9, 12):
            for problem in (OneMinMax(n), OneMinMaxStar(n)):
                front = problem.front()
                assert set(rows(problem, all_bitstrings(n))) <= front


    def test_blocks_merge_to_the_single_block_front(self, monkeypatch):
        problems_to_check = [generate_nk_instance(10, 3, seed=s) for s in range(4)]
        problems_to_check += [OneJumpZeroJump(10, 2), OneMinMaxStar(10)]
        whole = [enumerate_pareto_front(p) for p in problems_to_check]
        monkeypatch.setattr(problems, "ENUMERATION_BLOCK", 1 << 5)
        for problem, expected in zip(problems_to_check, whole):
            front = enumerate_pareto_front(problem)
            assert front.keys() == expected.keys()
            for point, witness in front.items():
                assert np.array_equal(witness, expected[point])

    def test_witness_is_numerically_smallest(self):
        problem = generate_nk_instance(8, 2, seed=40)
        front = enumerate_pareto_front(problem)
        first = {}
        everything = all_bitstrings(8)
        for f, x in zip(rows(problem, everything), everything):
            first.setdefault(f, x)
        for point, witness in front.items():
            assert np.array_equal(witness, first[point])

    @pytest.mark.parametrize("block", [problems.ENUMERATION_BLOCK, 1 << 16, 1 << 5])
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 8, 10, 13, 17])
    def test_nk_front_matches_the_evaluator_path(self, monkeypatch, n, block):
        # up to n = 4 a block has fewer low bits than the subset-matrix product covers
        monkeypatch.setattr(problems, "ENUMERATION_BLOCK", block)
        # at K = 7, 2^(K+1) entries a column outnumber a 2^5 block
        for K in range(n) if n <= 4 else (0, 1, 3, 7):
            for seed in (n, n + 100):
                problem = generate_nk_instance(n, K, seed=seed)
                assert_same_front(enumerate_pareto_front(problem), evaluator_path_front(problem))

    @pytest.mark.parametrize("block", [problems.ENUMERATION_BLOCK, 1 << 16, 1 << 5])
    def test_constant_nk_front_keeps_the_all_zeros_witness(self, monkeypatch, block):
        # every row equals the filter's pivot, so none is dropped before the skyline
        monkeypatch.setattr(problems, "ENUMERATION_BLOCK", block)
        problem = generate_nk_instance(10, 3, seed=5)
        problem.contributions = np.full_like(problem.contributions, 0.375)
        front = enumerate_pareto_front(problem)
        assert list(front) == [(0.375, 0.375)]
        assert not front[(0.375, 0.375)].any()
        assert_same_front(front, evaluator_path_front(problem))

    @pytest.mark.parametrize("block", [problems.ENUMERATION_BLOCK, 1 << 16, 1 << 5])
    def test_nk_front_on_a_dyadic_grid_keeps_every_tie(self, monkeypatch, block):
        # contributions in {0, 1/2}: every sum is exact, and distinct rows share
        # vectors, among them the pivot's and front vectors
        monkeypatch.setattr(problems, "ENUMERATION_BLOCK", block)
        problem = generate_nk_instance(12, 3, seed=0)
        problem.contributions = np.floor(problem.contributions * 2) / 2
        objectives = [tuple(v) for v in problem.evaluator()(all_bitstrings(12)).tolist()]
        best = max(objectives, key=sum)
        front = enumerate_pareto_front(problem)
        assert objectives.count(best) > 1
        assert max(objectives.count(point) for point in front) > 1
        assert_same_front(front, evaluator_path_front(problem))

    @pytest.mark.parametrize("block", [problems.ENUMERATION_BLOCK, 1 << 16, 1 << 5])
    def test_nk_front_where_column_sums_miss_the_mean_bits(self, monkeypatch, block):
        # summed column by column, some front vectors differ from the evaluator's
        # in the last bit, and the front must still carry the evaluator's bits
        monkeypatch.setattr(problems, "ENUMERATION_BLOCK", block)
        problem = generate_nk_instance(10, 3, seed=0)
        front = enumerate_pareto_front(problem)
        assert any(column_order_means(problem, witness) != point
                   for point, witness in front.items())
        assert_same_front(front, evaluator_path_front(problem))

    @pytest.mark.parametrize("n", [16, 18, 20])
    def test_nk_cheap_sums_are_within_the_margin(self, n):
        assert cheap_sums_differ_within_the_margin(generate_nk_instance(n, 3, seed=n))

    @pytest.mark.parametrize("K", [0, 3, 7])
    def test_nk_cheap_sums_on_alternating_tables(self, K):
        # entries near 1 where the index has an odd number of set bits and near 0
        # elsewhere: the largest coefficients, so the sums cancel the most
        problem = generate_nk_instance(16, K, seed=K)
        parity = np.zeros(2 << K, dtype=bool)
        for q in range(K + 1):
            parity ^= (np.arange(2 << K) >> q & 1).astype(bool)
        jitter = problem.contributions * 2.0 ** -10
        problem.contributions = np.where(parity, 1 - 2.0 ** -10 + jitter, jitter)
        assert cheap_sums_differ_within_the_margin(problem)
        assert_same_front(enumerate_pareto_front(problem), evaluator_path_front(problem))

    @pytest.mark.parametrize("block", [problems.ENUMERATION_BLOCK, 1 << 16, 1 << 5])
    def test_ones_count_fronts_match_the_evaluator_path(self, monkeypatch, block):
        monkeypatch.setattr(problems, "ENUMERATION_BLOCK", block)
        for problem in (OneMinMax(10), OneJumpZeroJump(10, 2), OneMinMaxStar(10)):
            assert_same_front(enumerate_pareto_front(problem), evaluator_path_front(problem))

    @pytest.mark.parametrize("problem", [OneMinMaxStar(14), OneJumpZeroJump(15, 3), OneMinMax(16)])
    def test_ones_count_fronts_over_several_default_blocks(self, problem):
        # 2, 4 and 8 blocks of ENUMERATION_BLOCK rows
        assert (1 << problem.n) // problems.ENUMERATION_BLOCK in (2, 4, 8)
        front = enumerate_pareto_front(problem)
        assert set(front) == problem.front()
        assert rows(problem, list(front.values())) == list(front)
        # each vector has one ones count, whose smallest bitstring sets the low bits
        for witness in front.values():
            assert int("".join(map(str, witness)), 2) == (1 << int(witness.sum())) - 1

    def test_n18_nk_enumeration_memory_is_bounded(self):
        problem = generate_nk_instance(18, 3, seed=18)
        tracemalloc.start()
        try:
            enumerate_pareto_front(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20

    def test_enumeration_peak_is_block_sized(self):
        # at 2^16-row blocks these peaks were 43.2 and 13.3 MB
        for problem in (generate_nk_instance(20, 3, seed=20), OneJumpZeroJump(20, 2)):
            tracemalloc.start()
            try:
                enumerate_pareto_front(problem)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 12 * 2 ** 20, problem


class TestNkInstances:
    def test_shapes_and_ranges(self):
        instance = generate_nk_instance(10, 3, seed=4)
        assert instance.loci.shape == (2, 10, 3)
        assert instance.contributions.shape == (2, 10, 16)
        assert np.all(instance.contributions >= 0.0)
        assert np.all(instance.contributions < 1.0)

    def test_loci_distinct_and_not_self(self):
        instance = generate_nk_instance(12, 4, seed=8)
        for j in range(2):
            for i in range(12):
                row = instance.loci[j, i]
                assert len(set(row.tolist())) == 4
                assert i not in row

    def test_k_zero_degenerate(self):
        problem = generate_nk_instance(5, 0, seed=1)
        assert problem.contributions.shape == (2, 5, 2)
        # objectives are linear in bits: flipping one bit changes each
        # objective by exactly that position's table delta / n
        f0, f1 = rows(problem, bits("00000", "10000"))
        for j in range(2):
            delta = (problem.contributions[j, 0, 1] - problem.contributions[j, 0, 0]) / 5
            assert f1[j] - f0[j] == pytest.approx(delta)

    def test_deterministic_in_seed(self):
        a = generate_nk_instance(8, 3, seed=77)
        b = generate_nk_instance(8, 3, seed=77)
        assert np.array_equal(a.loci, b.loci)
        assert np.array_equal(a.contributions, b.contributions)
        c = generate_nk_instance(8, 3, seed=78)
        assert not np.array_equal(a.contributions, c.contributions)

    @pytest.mark.parametrize("n, K, seed, loci, contributions", [
        (2, 1, 0, "af8a44699e0fe2cbe8fcb03e513ef95500dcd533abce01646342d7d2d5dbc5d4",
         "72af6ec86f4688b3b646f65f99d8748d2a24d129bf793ee8d0508479d1bebd2e"),
        (5, 0, 3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
         "84fdfe56198b3964dd00b9b540b8fe8960e883ddad1c451e012a2c1682c3ba6c"),
        (16, 3, 16, "e9349c8f1c43ed87189b50363cfb8a25a4d83d2937a21058e5db9f8bacc171de",
         "e8606b59e3cec4514d3fd1e9f9e75fe5d23e800b6b8421a1c000b01da1886b9c"),
        (25, 3, 7, "4d56dd2e24a3ed8fbfd7603e80adb234730545eed82b8b9d795b248467cbe5bd",
         "4c87c17c9fe16ccb8da6a938a053e13baec3a1e4ab7a55941ad476c8d20087af"),
        (40, 8, 11, "0cbe6de335f9e613ca77ebfa5db25ab9638a6fc8e4b94ce20ae0f876a7df655d",
         "4fd278b092038c4e2d6dc74d0db2e68b8c5dd590924555a97387e3870d6997bc"),
    ])
    def test_instances_keep_their_bytes(self, n, K, seed, loci, contributions):
        # pinned while the loci were drawn from np.delete(np.arange(n), i)
        instance = generate_nk_instance(n, K, seed)
        assert hashlib.sha256(instance.loci.tobytes()).hexdigest() == loci
        assert hashlib.sha256(instance.contributions.tobytes()).hexdigest() == contributions

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            generate_nk_instance(5, 5, seed=0)

    @pytest.mark.parametrize("case", ["table too wide", "locus out of range", "locus on itself",
                                      "value of 1.5", "NaN value", "float loci", "repeated locus",
                                      "K not below n"])
    def test_malformed_arrays_are_rejected_when_built(self, case):
        K = 2 if case == "repeated locus" else 1
        good = generate_nk_instance(4, K, seed=3)
        problems.NkLandscape(4, K, 3, good.loci, good.contributions)  # the originals build
        loci, table = good.loci.copy(), good.contributions.copy()
        if case == "table too wide":
            table = np.concatenate((table, table), axis=2)  # 8 entries where K = 1 needs 4
        elif case == "locus out of range":
            loci[0, 2, 0] = 7
        elif case == "locus on itself":
            loci[1, 3, 0] = 3
        elif case == "value of 1.5":
            table[0, 0, 0] = 1.5
        elif case == "NaN value":
            table[1, 2, 3] = np.nan
        elif case == "float loci":
            loci = loci.astype(np.float64)
        elif case == "repeated locus":
            loci[0, 1, 1] = loci[0, 1, 0]
        else:
            K = 4
        with pytest.raises(ValueError):
            problems.NkLandscape(4, K, 3, loci, table)

    def test_nk_objectives_in_unit_interval_and_pure(self):
        problem = generate_nk_instance(9, 3, seed=6)
        rng = stream(2)
        batch = random_population(100, 9, rng)
        first = rows(problem, batch)
        for f in first:
            assert 0.0 <= f[0] < 1.0 and 0.0 <= f[1] < 1.0
        assert rows(problem, batch) == first


class TestClassifyOjzj:
    """Every OneJumpZeroJump solution is classified by front membership."""

    def test_sum_property_iff_pareto_optimal(self):
        for n, k in ((8, 2), (12, 2), (12, 3)):
            problem = OneJumpZeroJump(n, k)
            front = problem.front()
            everything = all_bitstrings(n)
            for f, x in zip(rows(problem, everything), everything):
                ones = int(x.sum())
                # the Pareto set: the inner part k..n-k ones, and the two extremes
                optimal = k <= ones <= n - k or ones in (0, n)
                assert (f in front) == optimal == (f[0] + f[1] == n + 2 * k)

    def test_not_optimal_iff_dominated_by_front(self):
        for n, k in ((8, 2), (12, 2)):
            problem = OneJumpZeroJump(n, k)
            front = problem.front()
            for f in rows(problem, all_bitstrings(n)):
                dominated = any(dominates(p, f) for p in front)
                assert dominated == (f not in front)


class TestDefaultReferencePoints:
    def test_synthetic(self):
        assert OneMinMax(50).reference_point() == (0.0, 50.0)
        assert OneJumpZeroJump(30, 2).reference_point() == (32.0, 2.0)
        assert OneMinMaxStar(30).reference_point() == (-30.0, 60.0)

    def test_nk_reference_is_front_member(self):
        problem = generate_nk_instance(6, 2, seed=12)
        front = enumerate_pareto_front(problem)
        ref = problem.reference_point(stream(5))
        assert ref in front
        assert problem.reference_point(stream(5)) == ref

    def test_nk_requires_stream(self):
        problem = generate_nk_instance(6, 2, seed=12)
        with pytest.raises(ValueError):
            problem.reference_point()


class TestProblemValidation:
    def test_ojzj_k_bounds(self):
        with pytest.raises(ValueError):
            OneJumpZeroJump(12, 4)
        with pytest.raises(ValueError):
            OneJumpZeroJump(7, 2)
        OneJumpZeroJump(8, 2)

    def test_positive_sizes(self):
        with pytest.raises(ValueError):
            OneMinMax(0)
        with pytest.raises(ValueError):
            OneMinMaxStar(0)


class TestProblemTypes:
    def test_subclasses_stay_distinct_types(self):
        assert OneMinMax(8) != OneMinMaxStar(8)
        assert OneMinMax(8) == OneMinMax(8) and OneMinMaxStar(8) == OneMinMaxStar(8)
        # sweep workers receive the problems pickled
        for problem in (OneMinMax(8), OneMinMaxStar(8), OneJumpZeroJump(8, 2)):
            copy = pickle.loads(pickle.dumps(problem))
            assert type(copy) is type(problem) and copy == problem
        expected = {"omm": OneMinMax, "ojzj": OneJumpZeroJump, "ommstar": OneMinMaxStar,
                    "nk": problems.NkLandscape}
        for family, plan in lab.preset_plans().items():
            assert type(lab.build_problem(plan, plan.n_values[0])) is expected[family]
