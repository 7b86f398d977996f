"""The generation loop: initialization, generations, stopping, and accounting."""

import dataclasses
import hashlib
import io
import math
import os
import tracemalloc
import weakref
from decimal import Decimal

import numpy as np
import pytest

from emolab import evolve
from emolab.core import bitwise_mutate, random_population, stream
from emolab.evolve import AlgorithmConfig, GenerationTrace, RunResult, run
from emolab.problems import (
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    generate_nk_instance,
)
from emolab.survival import CrowdingDistance, ReferencePointDistance
from test_run_paths import Plain, observed_run


def row_draw(n, rng):
    """One row of n uniform bits as numpy draws it; random_population matches it row by row."""
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def omm_config(n, pop_size, policy=None, **kwargs):
    reference = (0.0, float(n))
    if policy is None:
        policy = ReferencePointDistance(reference)
    return AlgorithmConfig(policy=policy, pop_size=pop_size,
                           reference_point=reference, **kwargs)


def observed(problem, config, seed):
    """Every RunState that run hands its observer, the initialized one first."""
    states = []
    run(problem, config, seed, on_generation=states.append)
    return states


def first_hit_reference(objectives, reference):
    """The list search _first_hit replaced: the first row equal to the reference wins."""
    rows = objectives.tolist()
    return rows.index(list(reference)) if list(reference) in rows else None


class TestFirstHit:
    @pytest.mark.parametrize("rows, expected", [
        ([(1, 4), (0, 5), (2, 3), (0, 5)], 1),
        ([(0, 5), (0, 5), (1, 4)], 0),
        ([(1, 4), (2, 3), (5, 0)], None),
        ([(0, 4), (5, 5), (1, 5)], None),  # one coordinate matching is not a hit
        ([(1, 4), (-0.0, 5)], 1),  # -0.0 equals 0.0
    ], ids=["several hits", "hit at row 0", "no hit", "half matches", "negative zero"])
    def test_first_matching_row_wins(self, rows, expected):
        objectives = np.array(rows, dtype=np.float64)
        assert evolve._first_hit(objectives, (0.0, 5.0)) == expected
        assert first_hit_reference(objectives, (0.0, 5.0)) == expected

    def test_float_vectors_match_the_list_search(self):
        rng = stream(606)
        instance = generate_nk_instance(10, 3, seed=4)
        evaluate = instance.evaluator()
        for size in (1, 7, 64):
            objectives = evaluate(rng.integers(0, 2, size=(size, 10), dtype=np.uint8))
            for row in sorted({0, size // 2, size - 1}):
                reference = tuple(objectives[row].tolist())
                assert evolve._first_hit(objectives, reference) == \
                    first_hit_reference(objectives, reference)
            nearby = tuple(np.nextafter(objectives[0], 2.0).tolist())
            assert evolve._first_hit(objectives, nearby) == \
                first_hit_reference(objectives, nearby)


class TestInitialize:
    def test_counts_initial_evaluations(self):
        [state] = observed(OneMinMax(6), omm_config(6, 4, max_evaluations=4), seed=1)
        assert state.evaluations == 4
        assert state.generation == 0
        assert state.genomes.shape == (4, 6)
        assert state.objectives.shape == (4, 2)
        assert state.birth.tolist() == [0, 1, 2, 3]

    def test_immediate_hit_with_single_bit(self):
        # find a seed whose single random bit is 1, giving objectives (0, 1)
        problem = OneMinMax(1)
        config = omm_config(1, 1)
        seed = next(s for s in range(100) if row_draw(1, stream(s))[0] == 1)
        [state] = observed(problem, config, seed)
        assert state.evaluations_to_hit == 1
        assert run(problem, config, seed).evaluations_to_hit == 1

    def test_deterministic(self):
        config = omm_config(10, 5, max_evaluations=5)
        [a] = observed(OneMinMax(10), config, seed=3)
        [b] = observed(OneMinMax(10), config, seed=3)
        assert np.array_equal(a.genomes, b.genomes)
        assert np.array_equal(a.objectives, b.objectives)
        # the starting population is the first draw of the run's stream
        assert np.array_equal(a.genomes, random_population(5, 10, stream(3)))

    def test_config_validation(self):
        with pytest.raises(ValueError):
            AlgorithmConfig(policy=CrowdingDistance(), pop_size=0,
                            reference_point=(0.0, 1.0))
        with pytest.raises(ValueError):
            AlgorithmConfig(policy=CrowdingDistance(), pop_size=1,
                            reference_point=(0.0, 1.0, 2.0))
        with pytest.raises(ValueError):
            AlgorithmConfig(policy=CrowdingDistance(), pop_size=1,
                            reference_point=(0.0, 1.0), mutation_rate=1.5)
        with pytest.raises(ValueError):
            AlgorithmConfig(policy=CrowdingDistance(), pop_size=1,
                            reference_point=(0.0, 1.0), max_evaluations=0)
        with pytest.raises(TypeError):
            AlgorithmConfig(policy="refpoint", pop_size=1, reference_point=(0.0, 1.0))

    # each was once accepted, and then ran on the array engine (2, 2.5), failed in the N = 1
    # kernel (1, 2.5) or failed in the run
    @pytest.mark.parametrize("pop_size, cap", [(2, 2.5), (1, 2.5), (2.5, None), (True, None),
                                               (2.0, 10), (2, True), (1, np.float64(3.0))])
    def test_sizes_and_budgets_that_are_not_integers_fail_when_built(self, pop_size, cap):
        with pytest.raises(ValueError, match="must be positive integers"):
            AlgorithmConfig(policy=CrowdingDistance(), pop_size=pop_size,
                            reference_point=(0.0, 1.0), max_evaluations=cap)

    @pytest.mark.parametrize("pop_size", [1, 3])
    def test_numpy_integer_sizes_and_budgets_run_on_every_path(self, pop_size):
        config = omm_config(8, np.int64(pop_size), max_evaluations=np.int32(40))
        expected = run(OneMinMax(8), omm_config(8, pop_size, max_evaluations=40), seed=3)
        assert run(OneMinMax(8), config, seed=3) == expected
        assert observed(OneMinMax(8), config, seed=3)[-1].evaluations == expected.evaluations

    # float() reads the last three as (1.0, 2.0); the policy's check refuses them too
    @pytest.mark.parametrize("target", [("a", "b"), (None, 1), "12", ("1", "2"), (b"1", 2.0),
                                        (Decimal(1), 2)],
                             ids=["strings", "None", "string", "numeric-strings", "bytes",
                                  "Decimal"])
    def test_a_target_that_is_not_two_numbers_fails_when_built(self, target):
        with pytest.raises(ValueError, match="must be two numbers"):
            AlgorithmConfig(policy=CrowdingDistance(), pop_size=2, reference_point=target)

    def test_equal_points_in_any_container_give_one_config(self):
        configs = [AlgorithmConfig(policy=ReferencePointDistance(container([1, 7.0])), pop_size=2,
                                   reference_point=container([0, 8.0]))
                   for container in (tuple, list, np.array)]
        assert configs[0] == configs[1] == configs[2]
        assert len({hash(config) for config in configs}) == 1
        assert configs[2].reference_point == (0.0, 8.0)
        assert [type(v) for v in configs[2].reference_point] == [float, float]


class TestGenerations:
    def test_evaluations_increase_by_population_size(self):
        config = AlgorithmConfig(policy=CrowdingDistance(), pop_size=6,
                                 reference_point=(-1.0, -1.0), max_evaluations=24)
        states = observed(OneMinMax(8), config, seed=2)
        assert [s.evaluations for s in states] == [6, 12, 18, 24]
        for state in states:
            assert len(state.genomes) == len(state.objectives) == len(state.birth) == 6

    def test_zero_rate_offspring_duplicate_parents(self):
        # with nothing flipped and a retention-sized population (N >= 4(n+1)),
        # the set of objective vectors is preserved and nothing new appears
        n = 4
        size = 4 * (n + 1)
        config = AlgorithmConfig(policy=CrowdingDistance(), pop_size=size,
                                 reference_point=(-1.0, -1.0), mutation_rate=0.0,
                                 max_evaluations=2 * size)
        before, after = observed(OneMinMax(n), config, seed=5)
        assert set(map(tuple, after.objectives.tolist())) == \
            set(map(tuple, before.objectives.tolist()))

    def test_single_parent_reference_policy_tie_prefers_parent(self):
        config = AlgorithmConfig(policy=ReferencePointDistance((0.0, 6.0)), pop_size=1,
                                 reference_point=(-1.0, -1.0), mutation_rate=0.0,
                                 max_evaluations=2)
        state, new_state = observed(OneMinMax(6), config, seed=9)
        # child is an exact copy: equal distance, parent wins on birth index
        assert new_state.birth.tolist() == state.birth.tolist() == [0]
        assert np.array_equal(new_state.genomes, state.genomes)

    def test_single_parent_keeps_closer_of_pair(self):
        config = omm_config(12, 1, max_evaluations=41)
        ref = config.reference_point
        distances = [math.dist(s.objectives[0].tolist(), ref)
                     for s in observed(OneMinMax(12), config, seed=4)]
        assert len(distances) > 1
        assert all(b <= a for a, b in zip(distances, distances[1:]))


class TestRun:
    def test_hit_at_initialization_costs_at_most_n_evals(self):
        problem = OneMinMax(3)
        config = omm_config(3, 40, policy=CrowdingDistance())
        result = run(problem, config, seed=8)
        assert result.hit
        assert result.evaluations_to_hit <= 40

    def test_two_state_chain_expectation(self):
        # single bit, rate 1/n = 1: hit at evaluation 1 with prob 1/2, else
        # the forced flip hits at evaluation 2; the chain's expectation is 1.5
        problem = OneMinMax(1)
        config = omm_config(1, 1)
        values = [run(problem, config, seed).evaluations_to_hit for seed in range(3000)]
        assert max(values) <= 2
        mean = sum(values) / len(values)
        assert abs(mean - 1.5) < 0.05
        assert mean <= 2 * math.e

    def test_cap_crossing_at_generation_boundary(self):
        problem = OneMinMax(6)
        config = AlgorithmConfig(policy=CrowdingDistance(), pop_size=8,
                                 reference_point=(-1.0, -1.0), max_evaluations=100)
        result = run(problem, config, seed=1)
        assert not result.hit
        assert result.evaluations_to_hit is None
        assert result.evaluations == 104  # 8 + 12 * 8, first boundary past the cap
        assert result.generations == 12

    def test_deterministic_and_pure(self):
        problem = OneJumpZeroJump(12, 2)
        config = AlgorithmConfig(policy=ReferencePointDistance((14.0, 2.0)), pop_size=4,
                                 reference_point=(14.0, 2.0))
        first = run(problem, config, seed=21)
        second = run(problem, config, seed=21)
        assert first == second

    def test_evaluation_accounting_every_generation(self):
        problem = OneMinMax(10)
        config = omm_config(10, 7, policy=CrowdingDistance())
        totals = []
        run(problem, config, seed=6,
            on_generation=lambda s: totals.append((s.generation, s.evaluations,
                                                   len(s.genomes))))
        for generation, evaluations, size in totals:
            assert evaluations == 7 * (generation + 1)
            assert size == 7

    def test_reference_elitism_distance_never_increases(self):
        problem = OneMinMax(14)
        reference = (0.0, 14.0)
        config = AlgorithmConfig(policy=ReferencePointDistance(reference), pop_size=5,
                                 reference_point=reference)
        for seed in range(10):
            dists = []
            run(problem, config, seed,
                on_generation=lambda s: dists.append(
                    min(math.dist(v, reference)
                        for v in s.objectives.tolist())))
            assert all(b <= a for a, b in zip(dists, dists[1:]))

    def test_front_coverage_never_shrinks_with_large_population(self):
        n = 10
        problem = OneMinMax(n)
        front = problem.front()
        config = omm_config(n, 4 * (n + 1), policy=CrowdingDistance())
        for seed in range(5):
            covered = []
            run(problem, config, seed,
                on_generation=lambda s: covered.append(
                    set(map(tuple, s.objectives.tolist())) & front))
            for earlier, later in zip(covered, covered[1:]):
                assert earlier <= later


    def test_population_arrays_stay_row_aligned(self):
        # every row's objectives belong to its genome, and birth indices are
        # distinct evaluation numbers already spent
        problem = OneJumpZeroJump(12, 2)
        config = AlgorithmConfig(policy=CrowdingDistance(), pop_size=9,
                                 reference_point=(14.0, 2.0), max_evaluations=400)
        states = []
        run(problem, config, seed=13, on_generation=states.append)
        for s in states:
            assert s.objectives.tolist() == problem.evaluator()(s.genomes).tolist()
            assert len(set(s.birth.tolist())) == len(s.birth) == 9
            assert s.birth.max() < s.evaluations
        # an observer reads a snapshot and cannot change the run through its fields
        assert [f.name for f in dataclasses.fields(states[0])] == [
            "genomes", "objectives", "birth", "generation", "evaluations", "evaluations_to_hit"]
        with pytest.raises(dataclasses.FrozenInstanceError):
            states[0].generation = 1


def observe_nothing(state):
    """An observer that changes nothing."""


@pytest.fixture
def kernel_calls(monkeypatch):
    """Counts the runs that go through the N = 1 kernel."""
    calls = []
    kernel = evolve._run_single

    def counted(*args):
        calls.append(args)
        return kernel(*args)

    monkeypatch.setattr(evolve, "_run_single", counted)
    return calls


@pytest.fixture
def tables_built(monkeypatch):
    """The problems whose ones table is built, in order, starting from an empty rule entry.
    It counts OneMinMax and OneMinMax*, which builds its table through OneMinMax's."""
    built, ones_table = [], OneMinMax.ones_table
    monkeypatch.setattr(OneMinMax, "ones_table",
                        lambda problem: built.append(problem) or ones_table(problem))
    monkeypatch.setattr(evolve, "_last_rule", [None] * 4)
    return built


def assert_kernel_matches_array_engine(problem, config, seeds, kernel_calls):
    """Each seed's run goes through the kernel, unobserved and observed, and gives the
    RunResult and the RunStates of the array engine's run of Plain(problem), which has no
    ones_table()."""
    results = []
    for seed in seeds:
        before = len(kernel_calls)
        result = run(problem, config, seed)
        observed = observed_run(problem, config, seed)
        assert len(kernel_calls) == before + 2
        assert observed == observed_run(Plain(problem), config, seed)
        assert observed[0] == result
        assert len(kernel_calls) == before + 2
        results.append(result)
    return results


def off_front(reference):
    """A survival reference beside the target that no solution reaches."""
    return (reference[0] + 1.5, reference[1] - 0.5)


# OneJumpZeroJump(12, 3) starts inside a valley at these seeds (3 of the first 200)
VALLEY_SEEDS = (5, 81, 140)


class TestSingleParentKernel:
    """An N = 1 run on a synthetic problem takes the (1+1) kernel, observed or not;
    the array engine, reached by the problem wrapped without ones_table(), is its oracle."""

    @pytest.mark.parametrize("rate", [None, 0.0, 1.0], ids=["1/n", "0", "1"])
    @pytest.mark.parametrize("policy", ["crowding", "refpoint", "refpoint-off-front"])
    @pytest.mark.parametrize("problem", [OneMinMax(12), OneJumpZeroJump(12, 3),
                                         OneMinMaxStar(10)], ids=["omm", "ojzj", "ommstar"])
    def test_matches_array_engine(self, problem, policy, rate, kernel_calls):
        reference = problem.reference_point()
        if policy == "crowding":
            survival = CrowdingDistance()
        elif policy == "refpoint":
            survival = ReferencePointDistance(reference)
        else:
            survival = ReferencePointDistance(off_front(reference))
        seeds = range(4)
        if isinstance(problem, OneJumpZeroJump):
            # only a parent inside a valley can be dominated by its child
            n, k = problem.n, problem.k
            starts = [int(row_draw(n, stream(s)).sum()) for s in VALLEY_SEEDS]
            assert all(0 < ones < k or n - k < ones < n for ones in starts)
            seeds = [*seeds, *VALLEY_SEEDS]
        for cap in (1, 700):
            config = AlgorithmConfig(policy=survival, pop_size=1, reference_point=reference,
                                     mutation_rate=rate, max_evaluations=cap)
            results = assert_kernel_matches_array_engine(problem, config, seeds,
                                                         kernel_calls)
            if cap == 1:
                assert all(r.evaluations == 1 and r.generations == 0 for r in results)

    def test_uncapped_onemax_reaches_the_target(self, kernel_calls):
        config = omm_config(30, 1)
        results = assert_kernel_matches_array_engine(OneMinMax(30), config, range(10),
                                                     kernel_calls)
        assert all(r.hit and r.evaluations_to_hit == r.evaluations for r in results)

    def test_blocks_shorter_than_the_generation_limit(self, kernel_calls):
        # at n = 2000 a block holds fewer generations than _BLOCK_GENERATIONS
        n = 2000
        assert evolve._BLOCK_UNIFORMS // n < evolve._BLOCK_GENERATIONS
        config = omm_config(n, 1, max_evaluations=300)
        assert_kernel_matches_array_engine(OneMinMax(n), config, range(2), kernel_calls)

    def test_hit_during_initialization(self, kernel_calls):
        results = assert_kernel_matches_array_engine(OneMinMax(1), omm_config(1, 1),
                                                     range(10), kernel_calls)
        # the single random bit is 1 in some seeds: a hit at evaluation 1
        assert {(r.hit, r.evaluations_to_hit, r.evaluations, r.generations)
                for r in results} == {(True, 1, 1, 0), (True, 2, 2, 1)}

    @pytest.mark.parametrize("n", [7, 8, 9, 63, 64, 65, 130])
    def test_matches_array_engine_across_sizes(self, n, kernel_calls):
        # at n <= 8 every count change lies inside the candidate band (_BAND = 8),
        # from n = 9 on a change can fall on its end entries; 63..65 put the flip
        # product's rows on either side of 64 columns, and OJZJ's k grows to 8 at
        # n = 130. The cap spans three blocks, and at 0.2/n most rows flip no bit. Runs
        # aimed at the problem's reference point mostly reach the cap, so each
        # problem is also run towards a vector near the middle, which most hit.
        problems = [OneMinMax(n), OneMinMaxStar(n)]
        if n >= 8:
            problems.append(OneJumpZeroJump(n, max(2, n // 16)))
        for problem in problems:
            middle = tuple(problem.ones_table()[n // 2 + 2].tolist())
            for target in (problem.reference_point(), middle):
                for survival in (CrowdingDistance(), ReferencePointDistance(target),
                                 ReferencePointDistance(off_front(target))):
                    for rate in (None, 0.2 / n, 1.0):
                        config = AlgorithmConfig(policy=survival, pop_size=1,
                                                 reference_point=target, mutation_rate=rate,
                                                 max_evaluations=520)
                        assert_kernel_matches_array_engine(problem, config, range(2),
                                                           kernel_calls)

    def test_reference_tie_keeps_the_parent(self, kernel_calls):
        # (1, 7) and (2, 6) are equally near the survival reference and nearer
        # than any other vector, and the target (0, 8) is one flip from (1, 7)
        problem = OneMinMax(8)
        tie = (0.5, 5.5)
        distances = sorted(math.dist(v, tie) for v in problem.front())
        assert distances[0] == distances[1] == math.dist((1, 7), tie) < distances[2]
        config = AlgorithmConfig(policy=ReferencePointDistance(tie), pop_size=1,
                                 reference_point=problem.reference_point(),
                                 max_evaluations=2000)
        results = assert_kernel_matches_array_engine(problem, config, range(8), kernel_calls)
        assert all(r.hit for r in results)

    # (problem, seed, row of its block that holds the hit); at these n a block
    # is _BLOCK_GENERATIONS rows and block b starts after evaluation 1 + b * rows
    @pytest.mark.parametrize("problem, seed, row", [
        (OneMinMax(64), 754, 0), (OneMinMax(64), 173, -1),
        (OneJumpZeroJump(8, 2), 2470, 0), (OneJumpZeroJump(8, 2), 179, -1),
    ], ids=["omm-first", "omm-last", "ojzj-first", "ojzj-last"])
    def test_hit_on_the_edge_of_a_block(self, problem, seed, row, kernel_calls):
        rows = evolve._BLOCK_GENERATIONS
        reference = problem.reference_point()
        config = AlgorithmConfig(policy=ReferencePointDistance(reference), pop_size=1,
                                 reference_point=reference)
        [result] = assert_kernel_matches_array_engine(problem, config, [seed], kernel_calls)
        assert result.hit and result.evaluations_to_hit > rows
        assert (result.evaluations_to_hit - 2) % rows == row % rows

    def test_large_n_memory_is_bounded(self):
        # the ones table's two columns are the largest objects; the peak was
        # 24.4 MiB with a tuple per ones count, and a distance per count adds 6 MiB
        config = omm_config(200_000, 1, max_evaluations=20)
        tracemalloc.start()
        try:
            result = run(OneMinMax(200_000), config, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.evaluations == 20
        assert peak < 17 * 2 ** 20

    def test_a_cells_runs_build_the_ones_table_once(self, tables_built):
        problem = OneMinMaxStar(10)  # a cell hands one problem object to all its runs
        reference = problem.reference_point()
        config = AlgorithmConfig(policy=ReferencePointDistance(reference), pop_size=1,
                                 reference_point=reference, max_evaluations=30)
        for seed in range(3):
            run(problem, config, seed)
        assert len(tables_built) == 1 and tables_built[0] is problem
        # an equal problem that is another object builds its own rule
        twin = OneMinMaxStar(10)
        run(twin, config, 0)
        assert twin == problem and len(tables_built) == 2 and tables_built[1] is twin
        # a problem of the same size has its own rule, so the relocated
        # all-zeros vector stays OneMinMax*'s
        assert not evolve._count_rule(OneMinMax(10), reference, reference)[0](1, 0)
        # the relocated vector is the target, and it replaces the parent
        assert evolve._count_rule(problem, reference, reference)[0](1, 0) == evolve._HIT | 1
        assert len(tables_built) == 4

    def test_a_cells_runs_share_one_candidate_table(self, tables_built):
        problem = OneMinMaxStar(10)
        target = problem.reference_point()
        config = AlgorithmConfig(policy=ReferencePointDistance(target), pop_size=1,
                                 reference_point=target, max_evaluations=30)
        for seed in range(3):
            run(problem, config, seed)
        rule = evolve._count_rule(problem, target, target)
        assert len(tables_built) == 1
        # an observed run shares the rule too, and reads its states' vectors off its columns
        run(problem, config, 3, on_generation=observe_nothing)
        assert evolve._count_rule(problem, target, target) == rule
        assert len(tables_built) == 1
        # OneMinMax*'s relocated all-zeros vector is one flip from a one-bit parent
        verdict, marks, _ = rule
        assert verdict(1, 0) == evolve._HIT | 1 and marks(1)[evolve._BAND]
        # an off-front survival reference, and OneMinMax of the same n, get their own tables
        omm = OneMinMax(10)
        for other, reference in ((problem, off_front(target)), (omm, target)):
            run(other, dataclasses.replace(config, policy=ReferencePointDistance(reference)), 0)
        assert len(tables_built) == 3 and tables_built[1] is problem and tables_built[2] is omm
        verdict, marks, _ = evolve._count_rule(omm, target, target)
        assert not verdict(1, 0) and not marks(1)[evolve._BAND]
        assert len(tables_built) == 3  # the last run's rule, reused

    def test_the_rule_entry_holds_one_problem(self):
        # the entry keeps the last N = 1 problem and its rule alive, and no other
        first = OneMinMax(10)
        run(first, omm_config(10, 1, max_evaluations=30), 0)
        first_alive = weakref.ref(first)
        del first
        assert first_alive() is not None
        run(OneMinMax(12), omm_config(12, 1, max_evaluations=30), 0)
        assert first_alive() is None

    @pytest.mark.parametrize("band", [evolve._BAND, 0], ids=["band", "no-band"])
    @pytest.mark.parametrize("rate", [0.5, 1.0])
    @pytest.mark.parametrize("n", [64, 130])
    def test_count_changes_outside_the_band(self, n, rate, band, kernel_calls, monkeypatch):
        # at rate 0.5 many children lie more than _BAND ones from their parent,
        # and with a band of 0 every child that changes the count does; the
        # scan visits them without the table. The cap spans four blocks.
        rng = stream(0)
        weights = 1 - 2 * random_population(1, n, rng)[0].astype(int)
        changes = (rng.random((evolve._BLOCK_GENERATIONS, n)) < rate) @ weights
        assert rate == 1.0 or np.any(abs(changes) > evolve._BAND)
        monkeypatch.setattr(evolve, "_BAND", band)
        # empty the rule entry, whose rows were built for another band
        monkeypatch.setattr(evolve, "_last_rule", [None] * 4)
        for problem in (OneMinMax(n), OneMinMaxStar(n), OneJumpZeroJump(n, 4)):
            middle = tuple(problem.ones_table()[n // 2 + 2].tolist())
            for target in (problem.reference_point(), middle):
                for survival in (CrowdingDistance(), ReferencePointDistance(target),
                                 ReferencePointDistance(off_front(target))):
                    config = AlgorithmConfig(policy=survival, pop_size=1,
                                             reference_point=target, mutation_rate=rate,
                                             max_evaluations=3 * evolve._BLOCK_GENERATIONS + 2)
                    assert_kernel_matches_array_engine(problem, config, range(2), kernel_calls)
                    marks = evolve._count_rule(problem, survival.reference, target)[1]
                    assert len(marks(n // 2)) == 2 * band + 3

    @pytest.mark.parametrize("seed", [514, 551])
    def test_replacement_on_the_last_row_of_a_block(self, seed, kernel_calls):
        # block 0 holds evaluations 2..257: at these seeds the child of evaluation
        # 257, the block's last row, replaces the parent, and so does the child of
        # evaluation 258, the first row of block 1, scanned against the new parent
        problem, rows = OneMinMax(64), evolve._BLOCK_GENERATIONS
        config = omm_config(64, 1, max_evaluations=3 * rows + 2)
        assert_kernel_matches_array_engine(problem, config, [seed], kernel_calls)
        births = [int(state.birth[0]) for state in observed(problem, config, seed)]
        # the state after generation g holds the parent born in evaluation births[g] + 1
        assert births[rows:rows + 2] == [rows, rows + 1]

    @pytest.mark.parametrize("container", [tuple, list, np.array], ids=["tuple", "list", "array"])
    def test_reference_points_in_any_container(self, container, kernel_calls):
        # a policy and a config keep float pairs, so a list or an array gives the tuple's run
        problem = OneMinMax(6)
        target = container([0.0, 6.0])
        for survival in (CrowdingDistance(), ReferencePointDistance(target),
                         ReferencePointDistance(container(off_front((0.0, 6.0))))):
            config = AlgorithmConfig(policy=survival, pop_size=1, reference_point=target,
                                     max_evaluations=200)
            assert_kernel_matches_array_engine(problem, config, range(3), kernel_calls)

    def test_nk_observed_and_larger_runs_use_the_array_engine(self, kernel_calls):
        nk = generate_nk_instance(8, 2, seed=3)
        reference = nk.reference_point(stream(11))
        for on_generation in (None, observe_nothing):
            run(nk, AlgorithmConfig(policy=ReferencePointDistance(reference), pop_size=1,
                                    reference_point=reference, max_evaluations=50), seed=0,
                on_generation=on_generation)
            run(OneMinMax(8), omm_config(8, 2, max_evaluations=50), seed=0,
                on_generation=on_generation)
        assert not kernel_calls
        # an observer does not choose the engine: an observed N = 1 OneMinMax run takes the kernel
        run(OneMinMax(8), omm_config(8, 1, max_evaluations=50), seed=0,
            on_generation=observe_nothing)
        assert len(kernel_calls) == 1


def target_for(problem, size, seed, case):
    """A target that ends an N = size run at `seed` as `case` says, whatever its policy."""
    rng, evaluate = stream(seed), problem.evaluator()
    parents = random_population(size, problem.n, rng)
    initial = evaluate(parents)
    if case == "hit at initialization":
        return tuple(initial[-1].tolist())
    if case == "hit in generation 1":
        # the run's stream replayed: its next draws are the first generation's flips
        offspring = evaluate(bitwise_mutate(parents, 1 / problem.n, rng))
        seen = set(map(tuple, initial.tolist()))
        return next(v for v in map(tuple, offspring.tolist()) if v not in seen)
    return (-1.0, -1.0)  # no solution reaches it


class TestUnobservedRunsStopAtTheirLastEvaluation:
    """An unobserved run returns after the evaluations of the generation that
    ends it, without selecting its survivors; an observer sees every one."""

    POP = 12
    CAPS = {"cap reached": 10 * POP, "cap off a multiple of N": 10 * POP + 5,
            "hit in generation 1": None, "hit at initialization": None}

    @pytest.mark.parametrize("case", list(CAPS))
    @pytest.mark.parametrize("policy", ["crowding", "refpoint"])
    @pytest.mark.parametrize("problem", [OneMinMax(40), generate_nk_instance(10, 3, seed=4)],
                             ids=["omm", "nk"])
    def test_matches_an_observed_run(self, problem, policy, case, monkeypatch):
        selections = []
        select = evolve.survival_select

        def counted(*args):
            selections.append(len(args[0]))
            return select(*args)

        monkeypatch.setattr(evolve, "survival_select", counted)
        cap = self.CAPS[case]
        for seed in range(3):
            target = target_for(problem, self.POP, seed, case)
            survival = CrowdingDistance() if policy == "crowding" else \
                ReferencePointDistance(target)
            config = AlgorithmConfig(policy=survival, pop_size=self.POP,
                                     reference_point=target, max_evaluations=cap)
            selections.clear()
            result = run(problem, config, seed)
            unobserved = len(selections)
            selections.clear()
            assert result == run(problem, config, seed, on_generation=observe_nothing)
            assert len(selections) == result.generations
            assert unobserved == max(result.generations - 1, 0)
            if cap is not None:
                assert not result.hit
                assert result.evaluations == -(-cap // self.POP) * self.POP
            elif case == "hit in generation 1":
                assert result.hit and result.generations == 1
                assert self.POP < result.evaluations_to_hit <= 2 * self.POP
            else:
                assert result.hit and result.generations == 0
                assert result.evaluations_to_hit <= self.POP


class TestObserversGetReadOnlyStates:
    """A state's arrays are read-only on both engines, so an observer cannot change the
    run it watches: on the array engine they are its population, and the N = 1 kernel
    hands one set of arrays to all the states of one parent."""

    STAR = OneMinMaxStar(30).reference_point()
    # problem, config, seed, then the RunResult and the count and sha256 of the states as
    # copy_and_clear reads them, recorded while the arrays were still writable
    CASES = {
        "array engine": (OneMinMax(20), omm_config(20, 4, CrowdingDistance(), max_evaluations=400),
                         1, RunResult(True, 251, 252, 62), 63,
                         "5ae465856f477101c9141ca4660f25818cb97641e1a9c1db592ac3c6a1a45dd3"),
        "kernel": (OneMinMaxStar(30),
                   AlgorithmConfig(policy=ReferencePointDistance(STAR), pop_size=1,
                                   reference_point=STAR, max_evaluations=300),
                   7, RunResult(False, None, 300, 299), 300,
                   "93073fd8eca523cf16e7ca8c543f4331e5ab82e3e5909144d86c16b9a610fb3d"),
    }

    @pytest.mark.parametrize("field", ["genomes", "objectives", "birth"])
    @pytest.mark.parametrize("engine", list(CASES))
    def test_a_write_raises(self, engine, field, kernel_calls):
        problem, config, seed, *_ = self.CASES[engine]

        def write(state):
            getattr(state, field)[...] = 0

        with pytest.raises(ValueError, match="read-only"):
            run(problem, config, seed, on_generation=write)
        assert len(kernel_calls) == (engine == "kernel")

    @pytest.mark.parametrize("engine", list(CASES))
    def test_an_observer_that_copies_sees_the_run_unchanged(self, engine):
        problem, config, seed, result, count, digest = self.CASES[engine]
        state_digest, states = hashlib.sha256(), []

        def copy_and_clear(state):
            arrays = [array.copy() for array in (state.genomes, state.objectives, state.birth)]
            for array in arrays:
                state_digest.update(array.tobytes())
            state_digest.update(repr((state.generation, state.evaluations,
                                      state.evaluations_to_hit, arrays[0].shape,
                                      *(array.dtype.str for array in arrays))).encode())
            for array in arrays:  # a copy is the observer's own to change
                array[...] = 0
            states.append(state)

        assert run(problem, config, seed, on_generation=copy_and_clear) == result
        assert run(problem, config, seed) == result
        assert len(states) == count and state_digest.hexdigest() == digest


class TestGenerationTrace:
    def test_rows_match_run_length(self):
        problem = OneMinMax(8)
        config = omm_config(8, 4)
        out = io.StringIO()
        trace = GenerationTrace(problem, config.reference_point, out)
        assert out.getvalue() == "generation,min_distance,front_points\n"
        result = run(problem, config, seed=3, on_generation=trace)
        assert trace.rows == result.generations + 1
        lines = out.getvalue().splitlines()
        assert len(lines) == trace.rows + 1
        assert lines[1].startswith("0,")
        assert lines[-1].split(",")[:2] == [str(result.generations), "0.0"]  # a hit is distance 0

    def test_memory_does_not_grow_with_the_cap(self):
        # rows go to the file as they come; holding them took about 110 B a generation
        def traced_peak(cap):
            problem = OneMinMaxStar(30)
            reference = problem.reference_point()
            config = AlgorithmConfig(policy=ReferencePointDistance(reference), pop_size=1,
                                     reference_point=reference, max_evaluations=cap)
            with open(os.devnull, "w", encoding="utf-8", newline="") as out:
                tracemalloc.start()
                try:
                    trace = GenerationTrace(problem, reference, out)
                    result = run(problem, config, seed=7, on_generation=trace)
                    peak = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
            assert not result.hit and result.evaluations == cap
            assert trace.rows == result.generations + 1 == cap
            return peak

        traced_peak(50)  # one-time allocations of a first traced run stay out of the comparison
        assert traced_peak(3000) - traced_peak(500) < 32 * 2 ** 10
