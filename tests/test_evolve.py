"""The generation loop: initialization, stepping, stopping, and accounting."""

import math

import numpy as np
import pytest

from emolab.core import random_bitstring, stream
from emolab.evolve import (
    AlgorithmConfig,
    GenerationTrace,
    initialize,
    run,
    step_generation,
)
from emolab.problems import OneJumpZeroJump, OneMinMax, evaluate, pareto_front_closed_form
from emolab.survival import CrowdingDistance, ReferencePointDistance


def omm_config(n, pop_size, policy=None, **kwargs):
    reference = (0.0, float(n))
    if policy is None:
        policy = ReferencePointDistance(reference)
    return AlgorithmConfig(policy=policy, pop_size=pop_size,
                           reference_point=reference, **kwargs)


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
        seed = next(s for s in range(100) if random_bitstring(1, stream(s))[0] == 1)
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
        front = pareto_front_closed_form(problem)
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
            assert s.objectives.tolist() == [list(evaluate(problem, g)) for g in s.genomes]
            assert len(set(s.birth.tolist())) == len(s.birth) == 9
            assert s.birth.max() < s.evaluations


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
