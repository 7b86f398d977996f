"""Non-dominated sorting, crowding distance, and capacity-N truncation."""

import math

import numpy as np
import pytest

from emolab.core import dominates, random_bitstring, stream
from emolab.problems import (
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    evaluate,
    generate_nk_instance,
)
from emolab.survival import (
    CrowdingDistance,
    ReferencePointDistance,
    crowding_distance_assign,
    fast_nondominated_sort,
    reference_distances,
    survival_select,
)


def individuals(objective_vectors):
    """A pool as parallel arrays: objectives (P x 2) and birth = list position."""
    objectives = np.array([[float(v) for v in o] for o in objective_vectors],
                          dtype=np.float64).reshape(-1, 2)
    return objectives, np.arange(len(objectives))


def vectors(objectives, rows):
    return [tuple(objectives[i].tolist()) for i in rows]


def fronts_of(ranks):
    """Row indices per front, in pool order, from 1-based ranks."""
    return [np.flatnonzero(ranks == r).tolist() for r in range(1, int(ranks.max(initial=0)) + 1)]


def strip_partition(objectives):
    """Brute-force oracle: repeatedly remove the non-dominated subset."""
    points = [tuple(v) for v in objectives.tolist()]
    remaining = list(range(len(points)))
    fronts = []
    while remaining:
        front = [p for p in remaining
                 if not any(dominates(points[q], points[p]) for q in remaining)]
        front_ids = set(front)
        fronts.append(front)
        remaining = [p for p in remaining if p not in front_ids]
    return fronts


def crowding_reference(objectives, birth):
    """The per-individual loop the vectorized crowding distance replaced."""
    points = objectives.tolist()
    dist = [0.0] * len(points)
    for i in range(objectives.shape[1]):
        order = sorted(range(len(points)), key=lambda r: (points[r][i], birth[r]))
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        span = points[order[-1]][i] - points[order[0]][i]
        if span == 0:
            continue
        for j in range(1, len(points) - 1):
            dist[order[j]] += (points[order[j + 1]][i] - points[order[j - 1]][i]) / span
    return dist


def select_reference(objectives, birth, capacity, policy):
    """Survivor order of the per-individual engine: whole fronts in pool
    order, then the critical front sorted by (key, birth)."""
    survivors = []
    for front in strip_partition(objectives):
        if len(survivors) + len(front) <= capacity:
            survivors.extend(front)
            if len(survivors) == capacity:
                break
            continue
        sub = objectives[front]
        if isinstance(policy, CrowdingDistance):
            keys = [-d for d in crowding_reference(sub, birth[front])]
        else:
            keys = [math.dist(v, policy.reference) for v in sub.tolist()]
        ordered = sorted(range(len(front)), key=lambda r: (keys[r], birth[front][r]))
        survivors.extend(front[r] for r in ordered[:capacity - len(survivors)])
        break
    return survivors


def random_population(rng):
    """A pool drawn from one of the four benchmark objective spaces."""
    choice = rng.integers(4)
    if choice == 0:
        problem = OneMinMax(int(rng.integers(2, 9)))
    elif choice == 1:
        problem = OneJumpZeroJump(8, 2)
    elif choice == 2:
        problem = OneMinMaxStar(int(rng.integers(2, 9)))
    else:
        problem = generate_nk_instance(6, 2, seed=int(rng.integers(1000)))
    size = int(rng.integers(1, 33))
    objectives = [evaluate(problem, random_bitstring(problem.n, rng)) for _ in range(size)]
    return individuals(objectives)


class TestFastNondominatedSort:
    def test_three_vector_example(self):
        objectives, _ = individuals([(2, 2), (1, 1), (0, 3)])
        ranks = fast_nondominated_sort(objectives)
        assert [set(vectors(objectives, f)) for f in fronts_of(ranks)] == [
            {(2.0, 2.0), (0.0, 3.0)}, {(1.0, 1.0)}]
        assert ranks.tolist() == [1, 2, 1]

    def test_all_equal_single_front(self):
        fronts = fronts_of(fast_nondominated_sort(individuals([(3, 3)] * 5)[0]))
        assert len(fronts) == 1 and len(fronts[0]) == 5

    def test_chain_gives_singleton_fronts(self):
        objectives, _ = individuals([(3, 3), (2, 2), (1, 1)])
        fronts = fronts_of(fast_nondominated_sort(objectives))
        assert [vectors(objectives, f) for f in fronts] == [
            [(3.0, 3.0)], [(2.0, 2.0)], [(1.0, 1.0)]]

    def test_empty_population(self):
        assert len(fast_nondominated_sort([])) == 0

    def test_matches_strip_oracle_on_random_populations(self):
        rng = stream(20_240)
        for _ in range(200):
            objectives, birth = random_population(rng)
            ranks = fast_nondominated_sort(objectives)
            oracle = strip_partition(objectives)
            assert [sorted(birth[f].tolist()) for f in fronts_of(ranks)] == \
                   [sorted(birth[f].tolist()) for f in oracle]
            # ranks are the 1-based front indices
            for index, front in enumerate(oracle, start=1):
                assert all(ranks[i] == index for i in front)


class TestCrowdingDistance:
    def test_five_point_hand_trace(self):
        objectives, birth = individuals([(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)])
        dist = crowding_distance_assign(objectives, birth)
        assert dist[0] == math.inf
        assert dist[4] == math.inf
        assert dist[1] == pytest.approx(1.0)
        assert dist[2] == pytest.approx(1.0)
        assert dist[3] == pytest.approx(1.0)

    def test_singleton_front(self):
        objectives, birth = individuals([(2, 2)])
        assert crowding_distance_assign(objectives, birth)[0] == math.inf

    def test_pair_front_both_infinite(self):
        dist = crowding_distance_assign(*individuals([(1, 3), (3, 1)]))
        assert all(v == math.inf for v in dist)

    def test_constant_objective_contributes_zero(self):
        # f2 identical everywhere: only f1 gaps count for the interior
        dist = crowding_distance_assign(*individuals([(0, 5), (1, 5), (2, 5), (4, 5)]))
        assert dist[0] == math.inf
        assert dist[3] == math.inf
        assert dist[1] == pytest.approx((2 - 0) / 4)
        assert dist[2] == pytest.approx((4 - 1) / 4)

    def test_matches_loop_reference_exactly(self):
        rng = stream(4_242)
        for _ in range(200):
            objectives, birth = random_population(rng)
            birth = rng.permutation(len(birth))
            front = np.flatnonzero(fast_nondominated_sort(objectives) == 1)
            got = crowding_distance_assign(objectives[front], birth[front])
            assert got.tolist() == crowding_reference(objectives[front], birth[front])


class TestReferenceDistances:
    def test_examples(self):
        objectives, _ = individuals([(3, 7), (0, 10)])
        dist = reference_distances(objectives, (0.0, 10.0))
        assert dist[0] == pytest.approx(math.sqrt(18))
        assert dist[1] == 0.0

    def test_ojzj_vectors(self):
        objectives, _ = individuals([(10, 4), (8, 6)])
        dist = reference_distances(objectives, (12.0, 2.0))
        assert dist[0] == pytest.approx(math.sqrt(8))
        assert dist[1] == pytest.approx(math.sqrt(32))
        assert dist[0] < dist[1]

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            reference_distances(individuals([(1, 2)])[0], (1.0, 2.0, 3.0))


class TestSurvivalSelect:
    def test_reference_policy_keeps_closest(self):
        objectives, birth = individuals([(5, 5), (3, 7)])
        kept = survival_select(objectives, birth, 1, ReferencePointDistance((0.0, 10.0)))
        assert vectors(objectives, kept) == [(3.0, 7.0)]

    def test_whole_front_admitted_regardless_of_policy(self):
        # F1 = {(0,3), (3,0)}, F2 = {(0,2), (2,0)}
        objectives, birth = individuals([(0, 3), (3, 0), (0, 2), (2, 0)])
        for policy in (CrowdingDistance(), ReferencePointDistance((0.0, 0.0))):
            kept = survival_select(objectives, birth, 2, policy)
            assert set(vectors(objectives, kept)) == {(0.0, 3.0), (3.0, 0.0)}

    def test_crowding_keeps_extremes(self):
        objectives, birth = individuals([(0, 4), (2, 2), (4, 0)])
        kept = survival_select(objectives, birth, 2, CrowdingDistance())
        assert set(vectors(objectives, kept)) == {(0.0, 4.0), (4.0, 0.0)}

    def test_exact_fit_admits_front_without_truncation(self):
        objectives, birth = individuals([(0, 3), (3, 0), (1, 1)])  # F1 size 2 == capacity
        kept = survival_select(objectives, birth, 2, CrowdingDistance())
        assert set(vectors(objectives, kept)) == {(0.0, 3.0), (3.0, 0.0)}

    def test_capacity_errors(self):
        objectives, birth = individuals([(1, 1)])
        with pytest.raises(ValueError):
            survival_select(objectives, birth, 2, CrowdingDistance())
        with pytest.raises(ValueError):
            survival_select(objectives, birth, 0, CrowdingDistance())

    def test_tie_break_prefers_earlier_birth(self):
        objectives, birth = individuals([(1, 1), (1, 1), (1, 1)])
        kept = survival_select(objectives, birth, 1, ReferencePointDistance((1.0, 1.0)))
        assert birth[kept[0]] == 0
        kept = survival_select(objectives, birth, 1, CrowdingDistance())
        assert birth[kept[0]] == 0

    def test_properties_on_random_populations(self):
        rng = stream(777)
        for trial in range(120):
            objectives, birth = random_population(rng)
            pool = len(birth)
            capacity = int(rng.integers(1, pool + 1))
            reference = (float(rng.normal()), float(rng.normal()))
            policy = (CrowdingDistance() if trial % 2 == 0
                      else ReferencePointDistance(reference))
            kept = survival_select(objectives, birth, capacity, policy).tolist()
            ranks = fast_nondominated_sort(objectives)
            # exactly capacity survivors, all drawn from the input, no repeats
            assert len(kept) == capacity
            assert len(set(kept)) == capacity
            assert set(kept) <= set(range(pool))
            # front-order respect: no discarded individual from a strictly
            # earlier front dominates a survivor
            discarded = [i for i in range(pool) if i not in kept]
            for d in discarded:
                for s in kept:
                    if ranks[d] < ranks[s]:
                        assert not dominates(tuple(objectives[d]), tuple(objectives[s]))
            # under the reference policy, if a globally closest individual is
            # non-dominated it always survives
            if isinstance(policy, ReferencePointDistance):
                dist = [math.dist(v, reference) for v in objectives.tolist()]
                closest = min(dist)
                best = [i for i in range(pool) if dist[i] == closest]
                if any(ranks[i] == 1 for i in best):
                    assert any(dist[i] == closest for i in kept)

    def test_survivor_order_matches_loop_reference(self):
        # the order of survivors assigns the next generation's mutation draws
        rng = stream(9_090)
        for trial in range(200):
            objectives, birth = random_population(rng)
            birth = rng.permutation(len(birth))
            capacity = int(rng.integers(1, len(birth) + 1))
            policy = (CrowdingDistance() if trial % 2 == 0
                      else ReferencePointDistance((float(rng.normal()), float(rng.normal()))))
            kept = survival_select(objectives, birth, capacity, policy)
            assert kept.tolist() == select_reference(objectives, birth, capacity, policy)

    def test_reference_policy_minimum_always_survives_on_single_front(self):
        # every OneMinMax population is a single front, the regime the
        # no-loss mechanism relies on
        rng = stream(31)
        problem = OneMinMax(9)
        reference = (0.0, 9.0)
        for _ in range(60):
            size = int(rng.integers(1, 25))
            objectives, birth = individuals(
                [evaluate(problem, random_bitstring(9, rng)) for _ in range(size)])
            capacity = int(rng.integers(1, size + 1))
            kept = survival_select(objectives, birth, capacity, ReferencePointDistance(reference))
            dist = [math.dist(v, reference) for v in objectives.tolist()]
            assert min(dist[i] for i in kept) == min(dist)

    def test_deterministic_for_identical_input_order(self):
        rng = stream(55)
        pop_objs = [tuple(map(float, rng.integers(0, 5, size=2))) for _ in range(20)]
        a = survival_select(*individuals(pop_objs), 7, CrowdingDistance())
        b = survival_select(*individuals(pop_objs), 7, CrowdingDistance())
        assert a.tolist() == b.tolist()
