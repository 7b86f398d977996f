"""Benchmarks, closed-form fronts, the enumeration oracle, and NK instances."""

import tracemalloc

import numpy as np
import pytest

from emolab import problems
from emolab.core import bits_from_str, dominates, random_bitstring, stream
from emolab.problems import (
    ClosedFormUnavailableError,
    EnumerationLimitError,
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    batch_evaluator,
    default_reference_point,
    enumerate_pareto_front,
    evaluate,
    generate_nk_instance,
    pareto_front_closed_form,
)


def all_bitstrings(n):
    for value in range(1 << n):
        yield bits_from_str(format(value, f"0{n}b"))


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
        assert evaluate(OneMinMax(10), bits_from_str("1" * 10)) == (0.0, 10.0)
        assert evaluate(OneMinMax(10), bits_from_str("0" * 10)) == (10.0, 0.0)
        assert evaluate(OneMinMax(4), bits_from_str("0110")) == (2.0, 2.0)

    def test_ojzj_extremes_and_valley(self):
        problem = OneJumpZeroJump(12, 2)
        assert evaluate(problem, bits_from_str("1" * 12)) == (14.0, 2.0)
        assert evaluate(problem, bits_from_str("0" * 12)) == (2.0, 14.0)
        # 11 ones: f1 falls into the valley, f2 = k + zeros
        assert evaluate(problem, bits_from_str("1" * 11 + "0")) == (1.0, 3.0)
        # single one: f2 falls into the valley
        assert evaluate(problem, bits_from_str("1" + "0" * 11)) == (3.0, 1.0)
        assert evaluate(problem, bits_from_str("1" * 6 + "0" * 6)) == (8.0, 8.0)

    def test_oneminmax_star(self):
        problem = OneMinMaxStar(10)
        assert evaluate(problem, bits_from_str("0" * 10)) == (-10.0, 20.0)
        assert evaluate(problem, bits_from_str("1" * 10)) == (0.0, 10.0)
        assert evaluate(problem, bits_from_str("1" + "0" * 9)) == (9.0, 1.0)

    def test_constant_nk_tables_give_constant_objectives(self):
        problem = generate_nk_instance(6, 2, seed=5)
        problem.contributions = np.full_like(problem.contributions, 0.375)
        for x in (bits_from_str("000000"), bits_from_str("101011")):
            assert evaluate(problem, x) == (0.375, 0.375)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            evaluate(OneMinMax(5), bits_from_str("0101"))

    def test_omm_objectives_sum_to_n(self):
        rng = stream(3)
        for n in (1, 5, 13):
            problem = OneMinMax(n)
            for _ in range(50):
                f = evaluate(problem, random_bitstring(n, rng))
                assert f[0] + f[1] == n


class TestBatchEvaluator:
    def test_rows_match_evaluate_for_every_problem(self):
        rng = stream(8)
        for problem in (OneMinMax(11), OneMinMaxStar(11), OneJumpZeroJump(11, 2),
                        generate_nk_instance(11, 3, seed=4)):
            batch = np.stack([random_bitstring(11, rng) for _ in range(40)])
            batch[0], batch[1] = 0, 1
            got = batch_evaluator(problem)(batch)
            assert got.shape == (40, 2) and got.dtype == np.float64
            assert [tuple(v) for v in got.tolist()] == [evaluate(problem, x) for x in batch]

    def test_nk_matches_per_bitstring_reference_exactly(self):
        rng = stream(19)
        for n, K in ((5, 0), (9, 1), (16, 3), (25, 3), (20, 7), (13, 12)):
            instance = generate_nk_instance(n, K, seed=n * 31 + K)
            batch = (rng.random((300, n)) < rng.random((300, 1))).astype(np.uint8)
            got = batch_evaluator(instance)(batch)
            assert [tuple(v) for v in got.tolist()] == [nk_reference(instance, x) for x in batch]


class TestClosedFormFronts:
    def test_oneminmax_front(self):
        front = pareto_front_closed_form(OneMinMax(4))
        assert front == {(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (4.0, 0.0)}

    def test_ojzj_front(self):
        front = pareto_front_closed_form(OneJumpZeroJump(8, 2))
        expected = {(4.0, 8.0), (5.0, 7.0), (6.0, 6.0), (7.0, 5.0), (8.0, 4.0),
                    (2.0, 10.0), (10.0, 2.0)}
        assert front == expected
        assert len(front) == 8 - 2 * 2 + 3

    def test_oneminmax_star_front(self):
        front = pareto_front_closed_form(OneMinMaxStar(4))
        assert front == {(0.0, 4.0), (1.0, 3.0), (2.0, 2.0), (3.0, 1.0), (-4.0, 8.0)}

    def test_nk_has_no_closed_form(self):
        problem = generate_nk_instance(5, 2, seed=1)
        with pytest.raises(ClosedFormUnavailableError):
            pareto_front_closed_form(problem)


class TestEnumerationOracle:
    def test_matches_closed_form_oneminmax(self):
        for n in range(1, 13):
            assert set(enumerate_pareto_front(OneMinMax(n))) == pareto_front_closed_form(OneMinMax(n))

    def test_matches_closed_form_everywhere_small(self):
        problems = [OneMinMaxStar(n) for n in range(1, 13)]
        problems += [OneJumpZeroJump(n, 2) for n in range(8, 13)]
        problems += [OneJumpZeroJump(12, 3)]
        for problem in problems:
            assert set(enumerate_pareto_front(problem)) == pareto_front_closed_form(problem)

    def test_ojzj_front_size(self):
        front = enumerate_pareto_front(OneJumpZeroJump(12, 3))
        assert len(front) == 12 - 2 * 3 + 3

    def test_size_guard(self):
        with pytest.raises(EnumerationLimitError):
            enumerate_pareto_front(OneMinMax(26))

    def test_nk_points_nondominated_against_full_space(self):
        problem = generate_nk_instance(5, 2, seed=9)
        front = enumerate_pareto_front(problem)
        everything = [evaluate(problem, x) for x in all_bitstrings(5)]
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
            assert evaluate(problem, witness) == point

    def test_every_omm_solution_is_pareto_optimal(self):
        for n in (5, 9, 12):
            for problem in (OneMinMax(n), OneMinMaxStar(n)):
                front = pareto_front_closed_form(problem)
                for x in all_bitstrings(n):
                    assert evaluate(problem, x) in front


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
        for x in all_bitstrings(8):
            first.setdefault(evaluate(problem, x), x)
        for point, witness in front.items():
            assert np.array_equal(witness, first[point])

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
        base = bits_from_str("00000")
        f0 = evaluate(problem, base)
        flipped = bits_from_str("10000")
        f1 = evaluate(problem, flipped)
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
        for _ in range(100):
            x = random_bitstring(9, rng)
            f = evaluate(problem, x)
            assert 0.0 <= f[0] < 1.0 and 0.0 <= f[1] < 1.0
            assert evaluate(problem, x) == f


class TestClassifyOjzj:
    """Every OneJumpZeroJump solution is classified by front membership."""

    def test_sum_property_iff_pareto_optimal(self):
        for n, k in ((8, 2), (12, 2), (12, 3)):
            problem = OneJumpZeroJump(n, k)
            front = pareto_front_closed_form(problem)
            for x in all_bitstrings(n):
                f = evaluate(problem, x)
                ones = int(x.sum())
                # the Pareto set: the inner part k..n-k ones, and the two extremes
                optimal = k <= ones <= n - k or ones in (0, n)
                assert (f in front) == optimal == (f[0] + f[1] == n + 2 * k)

    def test_not_optimal_iff_dominated_by_front(self):
        for n, k in ((8, 2), (12, 2)):
            problem = OneJumpZeroJump(n, k)
            front = pareto_front_closed_form(problem)
            for x in all_bitstrings(n):
                f = evaluate(problem, x)
                dominated = any(dominates(p, f) for p in front)
                assert dominated == (f not in front)


class TestDefaultReferencePoints:
    def test_synthetic(self):
        assert default_reference_point(OneMinMax(50)) == (0.0, 50.0)
        assert default_reference_point(OneJumpZeroJump(30, 2)) == (32.0, 2.0)
        assert default_reference_point(OneMinMaxStar(30)) == (-30.0, 60.0)

    def test_nk_reference_is_front_member(self):
        problem = generate_nk_instance(6, 2, seed=12)
        front = enumerate_pareto_front(problem)
        ref = default_reference_point(problem, stream(5))
        assert ref in front
        assert default_reference_point(problem, stream(5)) == ref

    def test_nk_requires_stream(self):
        problem = generate_nk_instance(6, 2, seed=12)
        with pytest.raises(ValueError):
            default_reference_point(problem)


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
