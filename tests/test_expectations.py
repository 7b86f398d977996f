"""Exact expectations of runs with 1, 2 and 3 survivors, against runs of the real code.

At N = 1 a run on OneMinMax, OneMinMax* or OneJumpZeroJump is a Markov chain
on its parent's number of ones. A child keeps a binomial number of the
parent's ones and gains a binomial number of its zeros, and it replaces the
parent by the paper's rule: it dominates the parent, or, under the
reference-point policy, neither dominates the other and the child is
strictly closer to the reference. The first parent has Binomial(n, 1/2)
ones. One linear solve gives the mean of evaluations_to_hit, a second its
variance, and a matrix power the chance of a hit within a budget. The rule
is written here apart from `evolve._count_rule`, which the runs go through.

With N survivors the chain's state is their ones counts in survivor order
with their birth ranks, and each selection is the suite's own reference
(`test_survival.select_reference`: strip partition and loop crowding, birth
breaking ties), so the chain is apart from `survival`. Besides the mean it
gives the chance that the hit comes from row 0, which survivor order sets.
Its N = 2 cells are OneMinMax(8), whose pools are one front, and
OneJumpZeroJump(8, 2), whose pools hold several; its N = 3 cells are
OneMinMax(4). Means barely see survivor order, so OneJumpZeroJump(8, 2) at
N = 2 is also held one generation at a time: every step of an observed run
between two generations without a hit must have a nonzero chance in the
chain. A run that put the offspring first in its pool fails that.

The z bound, the master seed and the number of runs were fixed before the
first run. A cell whose mean is out of any test's reach (crowding, whose
parent never moves on these problems, and OneMinMax*'s trap) compares the
share of runs that hit within a cap instead.
"""

import itertools
import math
import statistics

import numpy as np
import pytest

from emolab.core import child_seed
from emolab.evolve import AlgorithmConfig, run
from emolab.problems import OneJumpZeroJump, OneMinMax, OneMinMaxStar
from emolab.survival import CrowdingDistance, ReferencePointDistance
from test_run_paths import Plain
from test_survival import select_reference

Z_BOUND = 3.5      # two-sided; Bonferroni at 1% over about 20 comparisons
CHAIN_SEED = 2027  # master seed of every cell's runs
RUNS = 400
PAIR_RUNS = 1000   # per N = 2 cell, but 400 for OneJumpZeroJump under crowding
TRIPLE_RUNS = 2000  # per N = 3 cell
TRANSITION_RUNS = 2000       # per N = 2 cell whose steps are checked one by one,
TRANSITION_GENERATIONS = 40  # each run capped at this many generations


def binomial(m, p):
    return np.array([math.comb(m, a) * p ** a * (1 - p) ** (m - a) for a in range(m + 1)])


def dominates(u, v):
    return u[0] >= v[0] and u[1] >= v[1] and u != v


def replaces(child, parent, reference):
    """Survival at capacity 1: dominance first, then strictly closer to the reference."""
    if dominates(child, parent):
        return True
    return (reference is not None and not dominates(parent, child)
            and math.dist(child, reference) < math.dist(parent, reference))


def count_chain(problem, reference, rate):
    """(Q, start) over the ones counts whose vector is not the target.

    Q[i, j] is the chance that a parent with the i-th such count has the j-th
    next, without a hit; start[i] the chance that the first parent has it.
    """
    n = problem.n
    vectors = [tuple(v) for v in problem.ones_table().tolist()]
    live = np.array([v != problem.reference_point() for v in vectors])
    q = np.zeros((n + 1, n + 1))
    for parent in range(n + 1):
        # the child's count: the parent's ones it keeps plus the zeros it flips
        child = np.convolve(binomial(parent, rate)[::-1], binomial(n - parent, rate))
        for count in np.flatnonzero(live):
            kept = replaces(vectors[count], vectors[parent], reference)
            q[parent, count if kept else parent] += child[count]
    return q[np.ix_(live, live)], binomial(n, 0.5)[live]


def hit_moments(q, start):
    """Mean and variance of evaluations_to_hit."""
    free = np.eye(len(q)) - q
    steps = np.linalg.solve(free, np.ones(len(q)))  # evaluations after a parent, to the hit
    squares = np.linalg.solve(free, 1 + 2 * q @ steps)
    mean = start @ steps
    return 1 + mean, start @ squares - mean ** 2


def hit_within(q, start, cap):
    """The chance that evaluations_to_hit is at most cap."""
    return 1 - start @ np.linalg.matrix_power(q, cap - 1) @ np.ones(len(q))


def exact(problem, policy, rate):
    reference = problem.reference_point() if policy == "refpoint" else None
    return count_chain(problem, reference, rate)


def z_of_mean(problem, policy, rate, evaluations):
    mean, variance = hit_moments(*exact(problem, policy, rate))
    return mean, (statistics.fmean(evaluations) - mean) / math.sqrt(variance / len(evaluations))


# (problem, policy, rate, cap, observed): no cap compares the mean of
# evaluations_to_hit, a cap the share of runs that hit within it; observed
# runs are of the problem wrapped in Plain, without ones_table(), so they go
# through the array engine, the others through the N = 1 kernel
CELLS = [
    (OneMinMax(2), "refpoint", 0.5, None, False),  # mean 4: one evaluation is 4 sd of the mean
    (OneMinMax(8), "refpoint", 1 / 8, None, False),
    (OneMinMax(8), "refpoint", 1 / 8, None, True),
    (OneJumpZeroJump(8, 2), "refpoint", 1 / 8, None, False),
    (OneJumpZeroJump(8, 2), "refpoint", 1 / 8, None, True),
    (OneMinMaxStar(8), "refpoint", 1 / 8, 200, False),
    (OneMinMaxStar(8), "refpoint", 1 / 8, 200, True),
    *((problem, "crowding", 1 / 8, 200, False)
      for problem in (OneMinMax(8), OneMinMaxStar(8), OneJumpZeroJump(8, 2))),
    (OneMinMax(8), "crowding", 1 / 8, 200, True),
    *((problem, policy, 0.5, None, False)
      for problem in (OneMinMax(8), OneMinMaxStar(8), OneJumpZeroJump(8, 2))
      for policy in ("crowding", "refpoint")),
    # the trapped parent has all 12 ones, so a hit is a change outside the candidate band
    (OneMinMaxStar(12), "refpoint", 0.5, 1000, False),
]


def cell_id(cell):
    problem, policy, rate, cap, observed = cell
    return (f"{type(problem).__name__}-n{problem.n}-{policy}-rate{rate:g}"
            f"{'' if cap is None else f'-cap{cap}'}{'-observed' if observed else ''}")


@pytest.mark.parametrize("cell", CELLS, ids=map(cell_id, CELLS))
def test_runs_match_the_exact_chain(cell):
    problem, policy, rate, cap, observed = cell
    target = problem.reference_point()
    config = AlgorithmConfig(
        policy=ReferencePointDistance(target) if policy == "refpoint" else CrowdingDistance(),
        pop_size=1, reference_point=target, mutation_rate=rate, max_evaluations=cap)
    results = [run(Plain(problem) if observed else problem, config,
                   child_seed(CHAIN_SEED, cell_id(cell), trial),
                   on_generation=(lambda state: None) if observed else None)
               for trial in range(RUNS)]
    if cap is None:
        expected, z = z_of_mean(problem, policy, rate, [r.evaluations_to_hit for r in results])
        measured = statistics.fmean(r.evaluations_to_hit for r in results)
    else:
        expected = hit_within(*exact(problem, policy, rate), cap)
        measured = sum(r.hit for r in results) / RUNS
        z = (measured - expected) / math.sqrt(expected * (1 - expected) / RUNS)
    print(f"\n{cell_id(cell)}: {'mean' if cap is None else 'hit rate'} "
          f"{measured:.4g}, exact {expected:.4g}, z {z:+.2f}")
    assert abs(z) <= Z_BOUND


def chain_states(problem, size):
    """The ones counts not at the target, and population_chain's states in its order."""
    target = problem.reference_point()
    live = [count for count, v in enumerate(problem.ones_table().tolist()) if tuple(v) != target]
    return live, [(counts, births) for counts in itertools.product(live, repeat=size)
                  for births in itertools.permutations(range(size))]


def population_chain(problem, policy, rate, size):
    """(Q, hits, start, first_hits) of the chain of a run with `size`
    survivors, over states (counts, births): the survivors' ones counts in
    survivor order, none at the target, and their birth ranks. Q[s, t] is
    the chance that a generation from state s hits nowhere and leaves state
    t, and hits[s, i] the chance that its first hit is row i's; start[s] is
    the chance that the first population is state s, and first_hits[i] that
    its first hit is row i's. Offspring i is row i's child, born after every
    survivor in survivor order; the pool is the parents then the offspring,
    and its survivors, in order, are those of the suite's own selection,
    `test_survival.select_reference`."""
    n, target = problem.n, problem.reference_point()
    table = problem.ones_table()
    live, states = chain_states(problem, size)
    children = [np.convolve(binomial(c, rate)[::-1], binomial(n - c, rate)) for c in range(n + 1)]
    survival = ReferencePointDistance(target) if policy == "refpoint" else CrowdingDistance()
    index = {state: i for i, state in enumerate(states)}
    q, hits = np.zeros((len(states), len(states))), np.zeros((len(states), size))
    for (counts, births), row in index.items():
        misses = np.array([children[c][live].sum() for c in counts])
        hits[row] = np.cumprod([1, *misses[:-1]]) * (1 - misses)
        pool_birth = births + tuple(range(size, 2 * size))
        for offspring in itertools.product(live, repeat=size):
            pool = counts + offspring
            keep = select_reference(table[list(pool)], np.array(pool_birth), size, survival)
            ranks = tuple(np.argsort([pool_birth[i] for i in keep]).argsort().tolist())
            q[row, index[tuple(pool[i] for i in keep), ranks]] += math.prod(
                children[c][child] for c, child in zip(counts, offspring))
    initial = binomial(n, 0.5)
    start = np.zeros(len(states))
    for counts in itertools.product(live, repeat=size):
        start[index[counts, tuple(range(size))]] = math.prod(initial[c] for c in counts)
    miss = initial[live].sum()
    return q, hits, start, miss ** np.arange(size) * (1 - miss)


def chain_moments(q, hits, start, first_hits):
    """Mean and variance of the chain's evaluations_to_hit, and the chance
    that its hit comes from row 0."""
    size = len(first_hits)
    free, cost = np.eye(len(q)) - q, np.arange(1, size + 1)
    # a generation, or the first population, costs i + 1 evaluations if its
    # first hit is row i's and else `size`, as the run then goes on
    steps = np.linalg.solve(free, hits @ cost + size * (1 - hits.sum(1)))
    squares = np.linalg.solve(free, hits @ cost ** 2 + size ** 2 * (1 - hits.sum(1))
                              + 2 * size * q @ steps)
    row_0 = np.linalg.solve(free, hits[:, 0])
    first_miss = 1 - first_hits.sum()
    mean = first_hits @ cost + size * first_miss + start @ steps
    second = first_hits @ cost ** 2 + size ** 2 * first_miss + start @ (2 * size * steps + squares)
    return mean, second - mean ** 2, first_hits[0] + start @ row_0


def check_population_runs(problem, policy, size, rate, runs, key):
    """Hold `runs` unobserved runs with `size` survivors, seeded by child_seed(CHAIN_SEED,
    *key, trial), to the exact chain's mean of evaluations_to_hit and its share of hits
    from row 0 (evaluations_to_hit - 1 a multiple of `size`); return the exact mean."""
    mean, variance, row_0 = chain_moments(*population_chain(problem, policy, rate, size))
    target = problem.reference_point()
    config = AlgorithmConfig(
        policy=ReferencePointDistance(target) if policy == "refpoint" else CrowdingDistance(),
        pop_size=size, reference_point=target, mutation_rate=rate)
    evaluations = [run(problem, config, child_seed(CHAIN_SEED, *key, trial)).evaluations_to_hit
                   for trial in range(runs)]
    z_mean = (statistics.fmean(evaluations) - mean) / math.sqrt(variance / runs)
    share = sum((e - 1) % size == 0 for e in evaluations) / runs
    z_row_0 = (share - row_0) / math.sqrt(row_0 * (1 - row_0) / runs)
    print(f"\nN = {size} {cell_id((problem, policy, rate, None, False))}: mean "
          f"{statistics.fmean(evaluations):.4g}, exact {mean:.4g}, z {z_mean:+.2f}; "
          f"row-0 hits {share:.4g}, exact {row_0:.4g}, z {z_row_0:+.2f}")
    assert abs(z_mean) <= Z_BOUND and abs(z_row_0) <= Z_BOUND
    return mean


@pytest.mark.parametrize("policy", ["crowding", "refpoint"])
def test_pair_runs_match_the_exact_chain(policy):
    mean = check_population_runs(OneMinMax(8), policy, 2, 1 / 8, PAIR_RUNS, ("pair", policy))
    # the means of a scratch chain whose selections were survival_select's
    assert round(mean, 2) == {"crowding": 84.72, "refpoint": 38.24}[policy]


# OneJumpZeroJump pools hold several fronts; its crowding runs are about 2.5 times as long,
# so they get fewer
@pytest.mark.parametrize("policy, runs", [("crowding", 400), ("refpoint", PAIR_RUNS)])
def test_jump_pair_runs_match_the_exact_chain(policy, runs):
    mean = check_population_runs(OneJumpZeroJump(8, 2), policy, 2, 1 / 8, runs,
                                 ("pair-ojzj", policy))
    # the means of a scratch chain whose selections were select_reference's
    assert round(mean, 2) == {"crowding": 297.5, "refpoint": 151.67}[policy]


def chain_state(state):
    """A RunState as population_chain's state: the survivors' ones counts in survivor order
    and their birth ranks; None once the run has hit."""
    if state.evaluations_to_hit is not None:
        return None
    births = state.birth.tolist()
    return tuple(state.genomes.sum(axis=1).tolist()), tuple(map(sorted(births).index, births))


# OneJumpZeroJump pools hold several fronts, so survivor order shows; the count of runs and
# their cap were fixed before the first run
@pytest.mark.parametrize("policy", ["crowding", "refpoint"])
def test_jump_pair_transitions_all_have_a_chance_under_the_chain(policy):
    problem, size, rate = OneJumpZeroJump(8, 2), 2, 1 / 8
    q, _, start, _ = population_chain(problem, policy, rate, size)
    index = {state: i for i, state in enumerate(chain_states(problem, size)[1])}
    target = problem.reference_point()
    config = AlgorithmConfig(
        policy=ReferencePointDistance(target) if policy == "refpoint" else CrowdingDistance(),
        pop_size=size, reference_point=target, mutation_rate=rate,
        max_evaluations=size * (TRANSITION_GENERATIONS + 1))
    transitions, impossible = 0, []
    for trial in range(TRANSITION_RUNS):
        states = []
        run(problem, config, child_seed(CHAIN_SEED, "transitions", policy, trial),
            on_generation=lambda state: states.append(chain_state(state)))
        if states[0] is not None:
            assert start[index[states[0]]] > 0
        # every generation that ends without a hit is one step of the chain
        for before, after in zip(states, states[1:]):
            if after is None:
                break
            transitions += 1
            if q[index[before], index[after]] == 0:
                impossible.append((trial, before, after))
    print(f"\nN = 2 OneJumpZeroJump-n8-{policy}: {transitions} transitions, "
          f"{len(impossible)} of chance 0")
    assert transitions > TRANSITION_RUNS * TRANSITION_GENERATIONS // 2
    assert not impossible


@pytest.mark.parametrize("policy", ["crowding", "refpoint"])
def test_triple_runs_match_the_exact_chain(policy):
    mean = check_population_runs(OneMinMax(4), policy, 3, 1 / 4, TRIPLE_RUNS, ("triple", policy))
    # the means of a scratch chain whose selections were survival_select's
    assert round(mean, 2) == {"crowding": 18.14, "refpoint": 13.33}[policy]


def test_chain_of_one_bit():
    # rate 1 flips the bit: a hit at evaluation 1 or 2, each with chance 1/2
    mean, variance = hit_moments(*exact(OneMinMax(1), "refpoint", 1.0))
    assert (mean, variance) == (1.5, 0.25)
    assert hit_within(*exact(OneMinMax(1), "crowding", 1.0), 1) == 0.5
    # at N = 2 the first population hits at evaluation 1 or 2, and else the
    # first generation hits at 3, with chances 1/2, 1/4 and 1/4
    assert chain_moments(*population_chain(OneMinMax(1), "refpoint", 1.0, 2)) == pytest.approx(
        (1.75, 0.6875, 0.75))
    # at N = 3 at evaluation 1, 2 or 3, and else at 4, with chances 1/2, 1/4, 1/8 and 1/8
    assert chain_moments(*population_chain(OneMinMax(1), "refpoint", 1.0, 3)) == pytest.approx(
        (1.875, 1.109375, 0.625))
