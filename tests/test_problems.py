"""Benchmarks, closed-form fronts, the enumeration oracle, and NK instances."""

import pickle
import tracemalloc

import numpy as np
import pytest

from emolab import lab, problems
from emolab.core import bits_from_str, random_population, stream
from emolab.problems import (
    EnumerationLimitError,
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
    return np.stack([bits_from_str(format(value, f"0{n}b")) for value in range(1 << n)])


def rows(problem, bitstrings):
    """The objective vectors of the bitstrings, as tuples, from the problem's evaluator."""
    return [tuple(v) for v in problem.evaluator()(np.stack(bitstrings)).tolist()]


def bits(*texts):
    return [bits_from_str(text) for text in texts]


def nk_reference(instance, x):
    """The per-bitstring NK evaluation the batch evaluator replaced."""
    n, K = instance.n, instance.K
    own = x.astype(np.int64) << K
    powers = 1 << np.arange(K - 1, -1, -1, dtype=np.int64)
    rows = np.arange(n)
    values = []
    for j in (0, 1):
        idx = own + x[instance.loci[j]].astype(np.int64) @ powers if K else own
        values.append(float(instance.contributions[j, rows, idx].mean()))
    return tuple(values)


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
        # n = 8 and 24 end on a byte boundary of the evaluator's packed genomes
        rng = stream(19)
        for size in (300, 1):
            for n, K in ((5, 0), (9, 1), (16, 3), (25, 3), (20, 7), (13, 12), (8, 3), (24, 5)):
                instance = generate_nk_instance(n, K, seed=n * 31 + K)
                batch = (rng.random((size, n)) < rng.random((size, 1))).astype(np.uint8)
                got = instance.evaluator()(batch)
                assert got.shape == (size, 2)
                assert [tuple(v) for v in got.tolist()] == \
                       [nk_reference(instance, x) for x in batch]


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
        with pytest.raises(EnumerationLimitError):
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

    @pytest.mark.parametrize("block", [problems.ENUMERATION_BLOCK, 1 << 5])
    @pytest.mark.parametrize("n", [8, 10, 13, 17])
    def test_nk_front_matches_the_evaluator_path(self, monkeypatch, n, block):
        monkeypatch.setattr(problems, "ENUMERATION_BLOCK", block)
        for K in (0, 1, 3):
            for seed in (n, n + 100):
                problem = generate_nk_instance(n, K, seed=seed)
                assert_same_front(enumerate_pareto_front(problem), evaluator_path_front(problem))

    @pytest.mark.parametrize("block", [problems.ENUMERATION_BLOCK, 1 << 5])
    def test_constant_nk_front_keeps_the_all_zeros_witness(self, monkeypatch, block):
        # every row equals the prefilter's pivot, so none is dropped before the skyline
        monkeypatch.setattr(problems, "ENUMERATION_BLOCK", block)
        problem = generate_nk_instance(10, 3, seed=5)
        problem.contributions = np.full_like(problem.contributions, 0.375)
        front = enumerate_pareto_front(problem)
        assert list(front) == [(0.375, 0.375)]
        assert not front[(0.375, 0.375)].any()
        assert_same_front(front, evaluator_path_front(problem))

    @pytest.mark.parametrize("block", [problems.ENUMERATION_BLOCK, 1 << 5])
    def test_ones_count_fronts_match_the_evaluator_path(self, monkeypatch, block):
        monkeypatch.setattr(problems, "ENUMERATION_BLOCK", block)
        for problem in (OneMinMax(10), OneJumpZeroJump(10, 2), OneMinMaxStar(10)):
            assert_same_front(enumerate_pareto_front(problem), evaluator_path_front(problem))

    def test_n18_nk_enumeration_memory_is_bounded(self):
        problem = generate_nk_instance(18, 3, seed=18)
        tracemalloc.start()
        try:
            enumerate_pareto_front(problem)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 * 2 ** 20


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

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            generate_nk_instance(5, 5, seed=0)

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
