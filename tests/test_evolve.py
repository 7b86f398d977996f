"""The generation loop: initialization, stepping, stopping, and accounting."""

import math
import tracemalloc

import numpy as np
import pytest

from emolab import evolve
from emolab.core import stream
from emolab.evolve import (
    AlgorithmConfig,
    GenerationTrace,
    initialize,
    run,
    step_generation,
)
from emolab.problems import (
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    generate_nk_instance,
)
from emolab.survival import CrowdingDistance, ReferencePointDistance


def row_draw(n, rng):
    """One row of n uniform bits as numpy draws it; random_population matches it row by row."""
    return rng.integers(0, 2, size=n, dtype=np.uint8)


def omm_config(n, pop_size, policy=None, **kwargs):
    reference = (0.0, float(n))
    if policy is None:
        policy = ReferencePointDistance(reference)
    return AlgorithmConfig(policy=policy, pop_size=pop_size,
                           reference_point=reference, **kwargs)


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
    ], ids=["several hits", "hit at row 0", "no hit", "half matches"])
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
        state = initialize(OneMinMax(6), omm_config(6, 4), seed=1)
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
        state = initialize(problem, config, seed)
        assert state.hit and state.evaluations_to_hit == 1

    def test_deterministic(self):
        a = initialize(OneMinMax(10), omm_config(10, 5), seed=3)
        b = initialize(OneMinMax(10), omm_config(10, 5), seed=3)
        assert np.array_equal(a.genomes, b.genomes)
        assert np.array_equal(a.objectives, b.objectives)

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


class TestStepGeneration:
    def test_evaluations_increase_by_population_size(self):
        problem = OneMinMax(8)
        config = omm_config(8, 6, policy=CrowdingDistance())
        state = initialize(problem, config, seed=2)
        for expected in (12, 18, 24):
            state = step_generation(state, problem, config)
            assert state.evaluations == expected
            assert len(state.genomes) == len(state.objectives) == len(state.birth) == 6

    def test_zero_rate_offspring_duplicate_parents(self):
        # with nothing flipped and a retention-sized population (N >= 4(n+1)),
        # the set of objective vectors is preserved and nothing new appears
        n = 4
        problem = OneMinMax(n)
        config = omm_config(n, 4 * (n + 1), policy=CrowdingDistance(), mutation_rate=0.0)
        state = initialize(problem, config, seed=5)
        before = set(map(tuple, state.objectives.tolist()))
        after_state = step_generation(state, problem, config)
        after = set(map(tuple, after_state.objectives.tolist()))
        assert after == before

    def test_single_parent_reference_policy_tie_prefers_parent(self):
        problem = OneMinMax(6)
        config = omm_config(6, 1, mutation_rate=0.0)
        state = initialize(problem, config, seed=9)
        new_state = step_generation(state, problem, config)
        # child is an exact copy: equal distance, parent wins on birth index
        assert new_state.birth.tolist() == state.birth.tolist() == [0]
        assert np.array_equal(new_state.genomes, state.genomes)

    def test_single_parent_keeps_closer_of_pair(self):
        problem = OneMinMax(12)
        config = omm_config(12, 1)
        state = initialize(problem, config, seed=4)
        for _ in range(40):
            previous = state.objectives[0].tolist()
            state = step_generation(state, problem, config)
            survivor = state.objectives[0].tolist()
            ref = config.reference_point
            assert math.dist(survivor, ref) <= math.dist(previous, ref)


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


def observe_nothing(state):
    """An observer that forces run onto the array engine and changes nothing."""


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


def assert_kernel_matches_array_engine(problem, config, seeds, kernel_calls):
    results = []
    for seed in seeds:
        before = len(kernel_calls)
        result = run(problem, config, seed)
        assert len(kernel_calls) == before + 1
        assert result == run(problem, config, seed, on_generation=observe_nothing)
        assert len(kernel_calls) == before + 1
        results.append(result)
    return results


def off_front(reference):
    """A survival reference beside the target that no solution reaches."""
    return (reference[0] + 1.5, reference[1] - 0.5)


# OneJumpZeroJump(12, 3) starts inside a valley at these seeds (3 of the first 200)
VALLEY_SEEDS = (5, 81, 140)


class TestSingleParentKernel:
    """An unobserved N = 1 run on a synthetic problem takes the (1+1) kernel;
    the array engine, forced by an observer, is its oracle."""

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
    def test_matches_array_engine_across_packing_widths(self, n, kernel_calls):
        # masks of 7..9 bits straddle a byte and of 63..65 bits a 64-bit word;
        # the cap spans three blocks, and at 0.2/n most rows flip no bit. Runs
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

    def test_a_cells_runs_build_the_ones_columns_once(self, monkeypatch):
        built = []
        ones_table = OneMinMaxStar.ones_table

        def counted(problem):
            built.append(problem)
            return ones_table(problem)

        monkeypatch.setattr(OneMinMaxStar, "ones_table", counted)
        evolve._ones_columns.cache_clear()
        reference = OneMinMaxStar(10).reference_point()
        config = AlgorithmConfig(policy=ReferencePointDistance(reference), pop_size=1,
                                 reference_point=reference, max_evaluations=30)
        for seed in range(3):
            run(OneMinMaxStar(10), config, seed)
        assert built == [OneMinMaxStar(10)]
        # a problem of the same size has its own columns, so the relocated
        # all-zeros vector stays OneMinMax*'s
        assert evolve._ones_columns(OneMinMax(10))[0][0] == 10.0
        assert evolve._ones_columns(OneMinMaxStar(10))[0][0] == -10.0
        assert len(built) == 2

    def test_nk_observed_and_larger_runs_use_the_array_engine(self, monkeypatch):
        def refuse(*args):
            raise AssertionError("the N = 1 kernel ran")

        monkeypatch.setattr(evolve, "_run_single", refuse)
        nk = generate_nk_instance(8, 2, seed=3)
        reference = nk.reference_point(stream(11))
        run(nk, AlgorithmConfig(policy=ReferencePointDistance(reference), pop_size=1,
                                reference_point=reference, max_evaluations=50), seed=0)
        run(OneMinMax(8), omm_config(8, 1, max_evaluations=50), seed=0,
            on_generation=observe_nothing)
        run(OneMinMax(8), omm_config(8, 2, max_evaluations=50), seed=0)


class TestGenerationTrace:
    def test_rows_match_run_length(self, tmp_path):
        problem = OneMinMax(8)
        config = omm_config(8, 4)
        trace = GenerationTrace(problem, config.reference_point)
        result = run(problem, config, seed=3, on_generation=trace)
        assert len(trace.rows) == result.generations + 1
        assert trace.rows[-1][1] == 0.0  # hit means distance reached zero
        out = tmp_path / "trace.csv"
        trace.write_csv(out)
        lines = out.read_text().splitlines()
        assert lines[0] == "generation,min_distance,front_points"
        assert len(lines) == len(trace.rows) + 1
