"""Non-dominated sorting, crowding distance, and capacity-N truncation."""

import math
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

from emolab import core, survival
from emolab.core import stream
from emolab.problems import (
    OneJumpZeroJump,
    OneMinMax,
    OneMinMaxStar,
    generate_nk_instance,
)
from emolab.survival import (
    CrowdingDistance,
    ReferencePointDistance,
    reference_distances,
    survival_select,
)


def dominates(a, b):
    """a is at least as good in both objectives and differs from b (maximization)."""
    return a[0] >= b[0] and a[1] >= b[1] and tuple(a) != tuple(b)


def individuals(objective_vectors):
    """A pool as parallel arrays: objectives (P x 2) and birth = list position."""
    objectives = np.array([[float(v) for v in o] for o in objective_vectors],
                          dtype=np.float64).reshape(-1, 2)
    return objectives, np.arange(len(objectives))


def vectors(objectives, rows):
    return [tuple(objectives[i].tolist()) for i in rows]


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


def selects_whole_fronts(objectives, birth, fronts):
    """Whether selection keeps exactly F1..Fk, each in pool order, at every
    capacity |F1| + ... + |Fk| that ends on a boundary of `fronts`: there it
    admits whole fronts by their ranks, whatever the policy."""
    admitted = []
    for front in fronts:
        admitted.extend(front)
        if survival_select(objectives, birth, len(admitted), CrowdingDistance()).tolist() != admitted:
            return False
    return True


def front_crowding(objectives, birth):
    """Crowding distance of every row of one front, in row order, from the
    kernel a selection runs on its critical front's sort."""
    order, ordered, first = survival._sorted_runs(objectives, np.argsort(birth, kind="stable"))
    dist = np.empty(len(order))
    dist[order] = survival._crowding(ordered, first)
    return dist


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


def select_from_ranks(objectives, birth, capacity, policy, ranks):
    """select_reference with the fronts given as 1-based ranks, for pools
    past the strip oracle's reach."""
    by_rank = np.argsort(ranks, kind="stable")
    critical = ranks[by_rank[capacity - 1]]
    start = int(np.count_nonzero(ranks < critical))
    front = np.flatnonzero(ranks == critical)
    if start + len(front) == capacity:
        return by_rank[:capacity].tolist()
    if isinstance(policy, CrowdingDistance):
        key = [-d for d in crowding_reference(objectives[front], birth[front])]
    else:
        key = [math.dist(v, policy.reference) for v in objectives[front].tolist()]
    picks = front[np.lexsort((birth[front], key))[:capacity - start]]
    return by_rank[:start].tolist() + picks.tolist()


def front_chain(fronts, rng):
    """`fronts` levels of two rows, (2i, 2i + 1) and (2i + 1, 2i), shuffled,
    and the front of each row: every row of a level dominates every row of
    the levels below it, so level i is front `fronts - i`."""
    level = np.repeat(2.0 * np.arange(fronts), 2)
    objectives = np.column_stack((level + np.tile([0.0, 1.0], fronts),
                                  level + np.tile([1.0, 0.0], fronts)))
    ranks = fronts - np.repeat(np.arange(fronts), 2)
    shuffle = rng.permutation(len(objectives))
    return objectives[shuffle], ranks[shuffle]


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
    genomes = core.random_population(size, problem.n, rng)
    return individuals(problem.evaluator()(genomes).tolist())


def duplicate_population(rng):
    """A pool with many rows per distinct vector: OneMinMax vectors or small integers."""
    size = int(rng.integers(1, 121))
    if rng.integers(2):
        problem = OneMinMax(int(rng.integers(1, 51)))
        genomes = core.random_population(size, problem.n, rng)
        return individuals(problem.evaluator()(genomes).tolist())
    return individuals(rng.integers(0, 4, size=(size, 2)).tolist())


def repeated_front(rng):
    """One front of one distinct vector, or of two, each repeated: the run
    boundaries of crowding's reversed-runs f2 order."""
    size = int(rng.integers(1, 9))
    if rng.integers(2):
        vectors = [(float(rng.integers(-3, 4)), float(rng.integers(-3, 4)))]
    else:
        a, b = sorted(rng.choice(7, size=2, replace=False).tolist())
        vectors = [(float(a), float(b)), (float(b), float(a))]
    rows = [vectors[int(i)] for i in rng.integers(0, len(vectors), size=size)]
    return individuals(rows + vectors)  # every vector at least once


class TestFronts:
    """Selection's ranks, read off the whole fronts it admits."""

    def test_three_vector_example(self):
        objectives, birth = individuals([(2, 2), (1, 1), (0, 3)])
        assert selects_whole_fronts(objectives, birth, [[0, 2], [1]])

    def test_all_equal_single_front(self):
        objectives, birth = individuals([(3, 3)] * 5)
        assert selects_whole_fronts(objectives, birth, [[0, 1, 2, 3, 4]])
        # the last row shares the first's front: crowding keeps both ends
        assert survival_select(objectives, birth, 2, CrowdingDistance()).tolist() == [0, 4]

    def test_chain_gives_singleton_fronts(self):
        objectives, birth = individuals([(3, 3), (2, 2), (1, 1)])
        assert selects_whole_fronts(objectives, birth, [[0], [1], [2]])

    def test_matches_strip_oracle_on_random_populations(self):
        rng = stream(20_240)
        for make in (random_population, duplicate_population):
            for _ in range(200):
                objectives, birth = make(rng)
                assert selects_whole_fronts(objectives, birth, strip_partition(objectives))


class TestCrowdingDistance:
    def test_five_point_hand_trace(self):
        objectives, birth = individuals([(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)])
        dist = front_crowding(objectives, birth)
        assert dist[0] == math.inf
        assert dist[4] == math.inf
        assert dist[1] == pytest.approx(1.0)
        assert dist[2] == pytest.approx(1.0)
        assert dist[3] == pytest.approx(1.0)

    def test_singleton_front(self):
        objectives, birth = individuals([(2, 2)])
        assert front_crowding(objectives, birth)[0] == math.inf

    def test_pair_front_both_infinite(self):
        dist = front_crowding(*individuals([(1, 3), (3, 1)]))
        assert all(v == math.inf for v in dist)

    def test_constant_objective_contributes_zero(self):
        # within one front a constant objective means one repeated vector:
        # neither objective has a gap, so only the boundary rows count
        dist = front_crowding(*individuals([(2, 5)] * 4))
        assert dist.tolist() == [math.inf, 0.0, 0.0, math.inf]

    def test_matches_loop_reference_exactly(self):
        rng = stream(4_242)
        for make in (random_population, duplicate_population, repeated_front):
            for _ in range(200):
                objectives, birth = make(rng)
                birth = rng.permutation(len(birth))
                front = strip_partition(objectives)[0]
                got = front_crowding(objectives[front], birth[front])
                assert got.tolist() == crowding_reference(objectives[front], birth[front])

    @pytest.mark.parametrize("size, distinct", [(45_000, 40_000), (70_000, 3)],
                             ids=["40000-distinct", "3-distinct"])
    def test_large_front(self, size, distinct):
        # fronts far past 32,767 rows and runs, as pools near MAX_POPULATION_BITS
        # rows at n = 1 give: no run or row index may assume a narrow type
        rng = stream(4_243)
        f1 = np.concatenate((np.arange(distinct), rng.integers(0, distinct, size - distinct)))
        objectives = np.column_stack((f1, distinct - f1)).astype(np.float64)
        objectives = objectives[rng.permutation(size)]
        birth = rng.permutation(size)
        got = front_crowding(objectives, birth)
        assert got.tolist() == crowding_reference(objectives, birth)
        kept = survival_select(objectives, birth, size // 2, CrowdingDistance())
        assert kept.tolist() == np.lexsort((birth, -got))[:size // 2].tolist()


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


class TestPolicies:
    """A policy's reference picks the critical-front key: None only for crowding."""

    def test_crowding_has_no_reference(self):
        assert CrowdingDistance().reference is None

    @pytest.mark.parametrize("reference", [None, (1.0, 2.0, 3.0), "12", ("a", "b"), (None, 1.0),
                                           (Decimal(1), 2.0), np.zeros((2, 2))],
                             ids=["None", "3-vector", "string", "strings", "None-pair", "Decimal",
                                  "pair-of-rows"])
    def test_reference_must_be_two_numbers(self, reference):
        with pytest.raises(ValueError):
            ReferencePointDistance(reference)

    @pytest.mark.parametrize("reference", [(1.5, -2.0), (1, 2), (True, False),
                                           (np.float32(0.5), np.int64(3)), (Fraction(1, 3), 2.0),
                                           np.array([1.5, 2.0]), [0, 6]],
                             ids=["floats", "ints", "bools", "numpy-scalars", "Fraction", "array",
                                  "list"])
    def test_reference_is_kept_as_two_floats(self, reference):
        kept = ReferencePointDistance(reference).reference
        assert type(kept) is tuple and [type(v) for v in kept] == [float, float]
        assert kept == tuple(float(v) for v in reference)

    def test_equal_points_in_any_container_give_one_policy(self):
        policies = [ReferencePointDistance(container([0, 6.0]))
                    for container in (tuple, list, np.array)]
        assert policies[0] == policies[1] == policies[2]
        assert len({hash(policy) for policy in policies}) == 1


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
            ranks = np.empty(pool, dtype=int)
            for index, front in enumerate(strip_partition(objectives), start=1):
                ranks[front] = index
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
            genomes = core.random_population(size, 9, rng)
            objectives, birth = individuals(problem.evaluator()(genomes).tolist())
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


def oneminmax_pool(rng, n=50, size=408):
    """A pool of OneMinMax vectors with heavy duplication: one front, as
    every pool of N = 4(n+1) parents and offspring on OneMinMax is."""
    genomes = (rng.random((size, n)) < rng.uniform(0.3, 0.7)).view(np.uint8)
    return individuals(OneMinMax(n).evaluator()(genomes).tolist())


def layered_pool(rng, size=408):
    """A pool of several fronts: integer vectors with ties within and across fronts."""
    return individuals(rng.integers(0, 12, size=(size, 2)).tolist())


def engine_pool(problem, rng, parents=204):
    """A pool built as `run` builds one: parents whose births are a
    permuted sample of earlier evaluations, then one mutated child of each
    parent, whose births ascend and are all larger."""
    genomes = core.random_population(parents, problem.n, rng)
    children = core.bitwise_mutate(genomes, 1.0 / problem.n, rng)
    evaluate = problem.evaluator()
    objectives = np.concatenate((evaluate(genomes), evaluate(children)))
    first_child = 3 * parents
    birth = np.concatenate((rng.choice(first_child, size=parents, replace=False),
                            np.arange(first_child, first_child + parents)))
    return objectives, birth


class TestSharedSort:
    """survival_select sorts the pool once: a one-front pool skips the ranks,
    a layered one is ranked from the same sort; both must pick as the
    per-individual engine does."""

    POLICIES = (CrowdingDistance(), ReferencePointDistance((0.0, 50.0)),
                ReferencePointDistance((17.5, 20.25)), ReferencePointDistance((-0.3, 1e9)))

    @pytest.mark.parametrize("policy", POLICIES, ids=["crowding", "corner", "interior", "far"])
    @pytest.mark.parametrize("make", [oneminmax_pool, layered_pool], ids=["one-front", "layered"])
    def test_matches_loop_reference(self, make, policy):
        rng = stream(4_080)
        for _ in range(8):
            objectives, birth = make(rng)
            birth = rng.permutation(len(birth))
            assert (len(strip_partition(objectives)) == 1) == (make is oneminmax_pool)
            for capacity in (204, 1, int(rng.integers(2, len(birth)))):
                kept = survival_select(objectives, birth, capacity, policy)
                assert kept.tolist() == select_reference(objectives, birth, capacity, policy)

    @pytest.mark.parametrize("policy", POLICIES, ids=["crowding", "corner", "interior", "far"])
    @pytest.mark.parametrize("problem", [OneMinMax(50), generate_nk_instance(14, 3, seed=5)],
                             ids=["oneminmax", "nk"])
    def test_engine_shaped_pool_matches_loop_reference(self, problem, policy):
        rng = stream(4_086)
        for _ in range(4):
            objectives, birth = engine_pool(problem, rng)
            assert (len(strip_partition(objectives)) == 1) == isinstance(problem, OneMinMax)
            for capacity in (204, 1, int(rng.integers(2, len(birth)))):
                kept = survival_select(objectives, birth, capacity, policy)
                assert kept.tolist() == select_reference(objectives, birth, capacity, policy)

    @pytest.mark.parametrize("policy", POLICIES, ids=["crowding", "corner", "interior", "far"])
    def test_a_tie_on_f2_makes_two_fronts(self, policy):
        # the distinct f2 values never rise, but (1, 5) dominates (0, 5) and
        # (2.5, 6) dominates (2, 6): only a strict fall makes one front
        for rows in ([(0, 5), (1, 5)], [(i, 8 - i) for i in range(9)] + [(2.5, 6)]):
            objectives, birth = individuals(rows)
            for capacity in range(1, len(rows) + 1):
                kept = survival_select(objectives, birth, capacity, policy)
                assert kept.tolist() == select_reference(objectives, birth, capacity, policy)

    def test_many_fronts(self):
        # 35,000 fronts of two rows each: front numbers past 32,767
        rng = stream(4_087)
        objectives, ranks = front_chain(35_000, rng)
        birth = rng.permutation(len(objectives))
        capacity = 40_001
        kept = survival_select(objectives, birth, capacity, CrowdingDistance()).tolist()
        assert kept == select_from_ranks(objectives, birth, capacity, CrowdingDistance(), ranks)

    # a selection's ranks are in the smallest unsigned type that holds the
    # front count, so NumPy orders them with a radix sort
    @pytest.mark.parametrize("fronts, dtype", [
        (255, np.uint8), (256, np.uint16), (65_535, np.uint16), (65_536, np.uint32),
    ])
    def test_ranks_take_the_smallest_unsigned_type(self, fronts, dtype):
        rng = stream(4_088)
        objectives, expected = front_chain(fronts, rng)
        birth = rng.permutation(len(objectives))
        order, ordered, first = survival._sorted_runs(objectives, birth.argsort(kind="stable"))
        assert first.all()  # every row is its own distinct vector
        ranks = survival._fronts(ordered.imag[first])
        assert ranks.dtype == dtype
        assert ranks.tolist() == expected[order].tolist()
        # the last front cut to one row, then the front just past the middle
        for capacity in (2 * fronts - 1, fronts + 1):
            for policy in self.POLICIES[:2]:
                kept = survival_select(objectives, birth, capacity, policy)
                assert kept.tolist() == select_from_ranks(objectives, birth, capacity,
                                                          policy, expected)

    @pytest.mark.parametrize("policy", POLICIES, ids=["crowding", "corner", "interior", "far"])
    @pytest.mark.parametrize("make", [oneminmax_pool, layered_pool], ids=["one-front", "layered"])
    def test_pool_at_capacity_is_kept_in_front_order(self, make, policy):
        objectives, birth = make(stream(4_081), size=60)
        kept = survival_select(objectives, birth, 60, policy)
        assert kept.tolist() == select_reference(objectives, birth, 60, policy)
        assert sorted(kept.tolist()) == list(range(60))

    def test_sort_is_the_lexicographic_sort(self):
        rng = stream(4_083)
        for make in (oneminmax_pool, layered_pool, random_population, duplicate_population):
            objectives, _ = make(rng)
            objectives[::7] *= -1.0  # negative values, and -0.0 next to 0.0
            birth = rng.permutation(len(objectives))
            f1, f2 = objectives[:, 0], objectives[:, 1]
            # taken in birth order, so each run of equal vectors is in birth order
            order, ordered, first = survival._sorted_runs(objectives, birth.argsort(kind="stable"))
            assert order.tolist() == np.lexsort((birth, f2, f1)).tolist()
            rows = objectives[order].tolist()
            assert ordered.tolist() == [complex(*row) for row in rows]
            assert first.tolist() == [i == 0 or rows[i] != rows[i - 1] for i in range(len(rows))]
            # taken in row order, as when births ascend with the rows
            order, _, _ = survival._sorted_runs(objectives, np.arange(len(objectives)))
            assert order.tolist() == np.lexsort((f2, f1)).tolist()

    @pytest.mark.parametrize("policy", POLICIES[:2], ids=["crowding", "reference"])
    @pytest.mark.parametrize("make", [oneminmax_pool, layered_pool], ids=["one-front", "layered"])
    def test_one_sort_per_selection(self, make, policy, monkeypatch):
        objectives, birth = make(stream(4_084))
        calls, sorted_runs = [], survival._sorted_runs

        def counted(*args):
            calls.append(len(args[0]))
            return sorted_runs(*args)

        monkeypatch.setattr(survival, "_sorted_runs", counted)
        for capacity in (1, 100, 204, len(birth)):
            calls.clear()
            kept = survival_select(objectives, birth, capacity, policy)
            assert calls == [len(birth)]
            assert kept.tolist() == select_reference(objectives, birth, capacity, policy)

    def test_reference_key_is_computed_once_per_distinct_vector(self, monkeypatch):
        objectives, birth = oneminmax_pool(stream(4_085))
        seen = []

        def counted(front, reference):
            seen.append(len(front))
            return reference_distances(front, reference)

        monkeypatch.setattr(survival, "reference_distances", counted)
        survival_select(objectives, birth, 204, ReferencePointDistance((0.0, 50.0)))
        assert seen == [len(set(map(tuple, objectives.tolist())))]
        assert seen[0] <= 51
