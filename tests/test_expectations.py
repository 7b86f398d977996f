"""Exact expectations of N = 1 runs, against runs of the real code.

At N = 1 a run on OneMinMax, OneMinMax* or OneJumpZeroJump is a Markov chain
on its parent's number of ones. A child keeps a binomial number of the
parent's ones and gains a binomial number of its zeros, and it replaces the
parent by the paper's rule: it dominates the parent, or, under the
reference-point policy, neither dominates the other and the child is
strictly closer to the reference. The first parent has Binomial(n, 1/2)
ones. One linear solve gives the mean of evaluations_to_hit, a second its
variance, and a matrix power the chance of a hit within a budget. The rule
is written here apart from `evolve._count_rule`, which the runs go through.

The z bound, the master seed and the number of runs were fixed before the
first run. A cell whose mean is out of any test's reach (crowding, whose
parent never moves on these problems, and OneMinMax*'s trap) compares the
share of runs that hit within a cap instead.
"""

import math
import statistics

import numpy as np
import pytest

from emolab.core import child_seed
from emolab.evolve import AlgorithmConfig, run
from emolab.problems import OneJumpZeroJump, OneMinMax, OneMinMaxStar
from emolab.survival import CrowdingDistance, ReferencePointDistance

Z_BOUND = 3.5      # two-sided; Bonferroni at 1% over about 20 comparisons
CHAIN_SEED = 2027  # master seed of every cell's runs
RUNS = 400


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
# runs go through the array engine, the others through the N = 1 kernel
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
    results = [run(problem, config, child_seed(CHAIN_SEED, cell_id(cell), trial),
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


def test_chain_of_one_bit():
    # rate 1 flips the bit: a hit at evaluation 1 or 2, each with chance 1/2
    mean, variance = hit_moments(*exact(OneMinMax(1), "refpoint", 1.0))
    assert (mean, variance) == (1.5, 0.25)
    assert hit_within(*exact(OneMinMax(1), "crowding", 1.0), 1) == 0.5
