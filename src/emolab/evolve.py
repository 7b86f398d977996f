"""The generation loop shared by NSGA-II and R-NSGA-II.

Both algorithms mutate every parent exactly once per generation (no parent
selection, no crossover), evaluate the N offspring, and keep the best N of
parents plus offspring under the configured survival policy. They stop when
some evaluated solution's objective vector equals the reference point, or
when the evaluation budget is exhausted. `run` is that loop, and an
observer is handed each generation's population as a frozen RunState.

Counting conventions: the N initialization evaluations count towards the
total; the target check happens as each solution is evaluated, so
evaluations_to_hit has mid-generation precision even though generations
themselves are atomic; the cap is checked at generation boundaries, so a
capped run may overshoot max_evaluations by at most N - 1.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np

from .core import bitwise_mutate, random_population, stream
from .survival import CrowdingDistance, ReferencePointDistance, float_pair, survival_select

# The N = 1 kernel draws the mutation uniforms of up to this many generations
# at once, and never more than _BLOCK_UNIFORMS of them, so a block stays a
# few MB at any n.
_BLOCK_GENERATIONS = 256
_BLOCK_UNIFORMS = 1 << 18
# The kernel's candidate table covers children within this many ones of their
# parent; a child further away is always visited. It keeps a table row small.
_BAND = 8
_HIT = 2  # a verdict's bit for a child that meets the target; bit 1 is for one that survives
_last_rule = [None] * 4  # _count_rule's last [problem, reference, target, rule]


@dataclass(frozen=True)
class AlgorithmConfig:
    """Everything that defines one algorithm run besides the problem and seed.

    reference_point, the target, is kept as a tuple of two floats. mutation_rate
    of None means the standard 1/n. A zero rate is accepted as a degenerate
    setting for tests. max_evaluations of None runs without a budget.
    """

    policy: CrowdingDistance | ReferencePointDistance
    pop_size: int
    reference_point: tuple
    mutation_rate: Optional[float] = None
    max_evaluations: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.policy, (CrowdingDistance, ReferencePointDistance)):
            raise TypeError(f"unknown survival policy: {self.policy!r}")
        budget = () if self.max_evaluations is None else (self.max_evaluations,)
        if not all(isinstance(v, (int, np.integer)) and not isinstance(v, bool) and v >= 1
                   for v in (self.pop_size, *budget)):  # Python or NumPy integers, not bools
            raise ValueError("pop_size and max_evaluations must be positive integers")
        object.__setattr__(self, "reference_point", float_pair(self.reference_point))
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation rate must lie in [0, 1]")


@dataclass(frozen=True)
class RunState:
    """What an observer of `run` is handed: the population between generations.

    The population is held row-aligned: genomes (N x n uint8), objectives
    (N x 2 float64) and birth (N int64), in survivor order. A birth index
    is the 0-based number of the evaluation that created the row, so it
    rises with creation order, and the next offspring's is `evaluations`.
    `evaluations_to_hit` stays None until some evaluation meets the target.
    The engines hand the arrays read-only: writing to one raises ValueError.
    """

    genomes: np.ndarray
    objectives: np.ndarray
    birth: np.ndarray
    generation: int
    evaluations: int
    evaluations_to_hit: Optional[int]


@dataclass(frozen=True)
class RunResult:
    """How a run ended: evaluations_to_hit is None unless it hit the target."""

    hit: bool
    evaluations_to_hit: Optional[int]
    evaluations: int
    generations: int


def _first_hit(objectives: np.ndarray, reference) -> Optional[int]:
    """Index of the first row equal to the reference point, or None."""
    hits = objectives.view(np.complex128).ravel() == complex(*reference)
    first = int(hits.argmax())
    return first if hits[first] else None


def run(
    problem,
    config: AlgorithmConfig,
    seed: int,
    on_generation: Optional[Callable[[RunState], None]] = None,
) -> RunResult:
    """Run until the reference point is found or the budget is exhausted.

    on_generation, when given, is called with a RunState after
    initialization and after every generation; it is how traces and
    invariant checks observe the population. At N = 1 on a problem with
    ones_table(), observed or not, _run_single takes the rate, cap, stream,
    first individual and observer. An unobserved array-engine run stops
    after the evaluations of its last generation without selecting
    survivors nobody reads; it gives the observed run's result.
    """
    size, reference = config.pop_size, config.reference_point
    rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / problem.n
    cap = config.max_evaluations or math.inf
    rng = stream(seed)
    genomes = random_population(size, problem.n, rng)
    if size == 1 and hasattr(problem, "ones_table"):
        return _run_single(problem, config, genomes[0], rate, cap, rng, on_generation)
    evaluator = problem.evaluator()
    objectives, birth = evaluator(genomes), np.arange(size, dtype=np.int64)
    first = _first_hit(objectives, reference)
    hit_at = None if first is None else first + 1
    generations, evaluations = 0, size
    while True:
        if on_generation is not None:
            for array in (genomes, objectives, birth):  # the engine's own: the observer only reads
                array.flags.writeable = False
            on_generation(RunState(genomes, objectives, birth, generations, evaluations, hit_at))
        if hit_at is not None or evaluations >= cap:
            break
        offspring = bitwise_mutate(genomes, rate, rng)
        offspring_objectives = evaluator(offspring)
        first = _first_hit(offspring_objectives, reference)
        if first is not None:
            hit_at = evaluations + first + 1
        generations, evaluations = generations + 1, evaluations + size
        if on_generation is None and (hit_at is not None or evaluations >= cap):
            break
        # parents then offspring: survivor order fixes which parent the next draws go to
        pool_objectives = np.concatenate((objectives, offspring_objectives))
        pool_birth = np.concatenate((birth, np.arange(evaluations - size, evaluations)))
        keep = survival_select(pool_objectives, pool_birth, size, config.policy)
        genomes = np.concatenate((genomes, offspring)).take(keep, axis=0)
        objectives, birth = pool_objectives.take(keep, axis=0), pool_birth.take(keep)
    return RunResult(hit=hit_at is not None, evaluations_to_hit=hit_at,
                     evaluations=evaluations, generations=generations)


def _count_rule(problem, reference, target) -> tuple:
    """Survival at N = 1 by ones counts, and its candidate table, shared by a cell's runs.

    The rule is (verdict, marks, (f1, f2)); f1 and f2 are the ones table's columns as lists.
    verdict(parent, child) has the bit _HIT if the child's objective vector is the target and
    the bit 1 if the child replaces the parent. marks(parent) is a bool row over the count
    changes -_BAND-1 .. _BAND+1: entry d + _BAND + 1 is whether a child with d more ones than
    the parent gets a nonzero verdict, and the two end entries, which stand for every change
    outside the band, are True; marks memoizes its rows as parents are met. The last rule built
    is kept in _last_rule and reused while the problem is the same object and the reference
    pair (or None) and the target pair are equal; nothing is hashed.
    """
    last, *points, rule = _last_rule
    if last is problem and points == [reference, target]:
        return rule
    f1, f2 = problem.ones_table().T.tolist()
    target1, target2 = target

    def verdict(parent, child):
        c1, c2, p1, p2 = f1[child], f2[child], f1[parent], f2[parent]
        hit = _HIT if c1 == target1 and c2 == target2 else 0
        if c1 >= p1 and c2 >= p2:
            return hit | (c1 != p1 or c2 != p2)
        return hit | (reference is not None and (c1 > p1 or c2 > p2)
                      and math.dist((c1, c2), reference) < math.dist((p1, p2), reference))

    @lru_cache(maxsize=None)
    def marks(parent):
        children = range(parent - _BAND, parent + _BAND + 1)
        return np.array([True, *(0 <= child <= problem.n and bool(verdict(parent, child))
                                 for child in children), True])
    _last_rule[:] = problem, reference, target, (verdict, marks, (f1, f2))
    return _last_rule[3]


def _run_single(problem, config, genome, rate, cap, rng, on_generation) -> RunResult:
    """`run` at N = 1 on a problem with ones_table(): a (1+1) scan over blocks of mutations.

    The rate, cap, stream, first individual (drawn, not evaluated) and
    observer come from `run`, and the reference and target float pairs from
    `config` as they are. The parent is held as its ones count and its
    position weights: a flip at position i changes the count by +1 if bit i
    is 0 and by -1 if it is 1. Mutation draws the uniforms of a block of
    generations as one (G, n) array, which row-major order makes consume the
    stream exactly as G one-row draws; the stream is private to the run, so
    uniforms drawn past its end are never seen. survival_select at capacity 1
    reduces to one rule: the child replaces the parent if it dominates it,
    or, under the reference-point policy, if neither dominates the other and
    the child is strictly closer to the reference. Every other case, equal
    vectors included, keeps the parent, which has the earlier birth.

    One product of a block's flips with the weights gives every row's count
    change. These are sums of +-1 below 2^24 in magnitude, so float32
    (float64 from n = 2^24 on) holds them exactly in any order of summation.
    The parent's row of the candidate table (_count_rule, the last run's on the same problem
    object) marks the rows that might hit or replace it, and only those are visited, in row
    order, each under the exact rule. A replacement turns around the weights of the positions
    it flipped, and the rows after it are scanned again with one more product. Row r of a
    block that starts after evaluation `base` is evaluation base + r + 1 and gives generation
    base + r's state. An observer gets the array engine's RunStates, a block's before the next
    draw: the parent's genome read off its weights, its vector read off the rule's f1 and f2,
    and its birth; under crowding a hit child that does not dominate it loses.
    """
    n = problem.n
    verdict, marks, (f1, f2) = _count_rule(problem, config.policy.reference, config.reference_point)
    count_type = np.float32 if n < 1 << 24 else np.float64  # exact integer sums
    ones, weights = np.count_nonzero(genome), 1 - 2 * genome.astype(count_type)
    evaluations, hit = 1, verdict(ones, ones) >= _HIT  # the first parent meets the target
    born = shown = 0  # the parent's birth, and the number of states handed on

    def report(stop):  # the states of generations shown .. stop - 1, all of the current parent
        population = ((weights < 0).astype(np.uint8)[None],
                      np.array([[f1[ones], f2[ones]]], np.float64), np.array([born]))
        for array in population:  # shared by these states, so no observer may change them
            array.flags.writeable = False
        for g in range(shown, stop):
            on_generation(RunState(*population, g, g + 1, evaluations if hit else None))
        return stop

    block_rows = max(1, min(_BLOCK_GENERATIONS, _BLOCK_UNIFORMS // n))
    while True:
        if on_generation is not None:
            shown = report(evaluations)
        if hit or evaluations >= cap:
            break
        rows = min(block_rows, cap - evaluations)
        chosen = rng.random((rows, n)) < rate
        flips = chosen.astype(count_type)
        base, evaluations = evaluations, evaluations + rows
        first = 0  # the first row not yet scanned against the current parent
        while first < rows and not hit:
            index = (flips[first:] @ weights).astype(np.intp)
            index += _BAND + 1
            scanned, first = first, rows
            for row in marks(ones).take(index, mode="clip").nonzero()[0].tolist():
                child = ones + index.item(row) - _BAND - 1
                outcome = verdict(ones, child)
                if outcome:
                    row += scanned
                    if on_generation is not None:
                        shown = report(base + row)
                    if outcome & 1:
                        np.negative(weights, out=weights, where=chosen[row])
                        ones, born, first = child, base + row, row + 1
                    if outcome >= _HIT:
                        hit, evaluations = True, base + row + 1
                    break
        del chosen, flips  # so that the next block's draw is the only one held
    return RunResult(hit=hit, evaluations_to_hit=evaluations if hit else None,
                     evaluations=evaluations, generations=evaluations - 1)


class GenerationTrace:
    """Writes one CSV row per generation: distance to target and front coverage.

    Rows are (generation, min distance to the reference point, number of
    distinct true-front objective vectors present in the population). The
    header goes to `out`, a text file opened with newline="", when the
    trace is built, and each call writes its row through the file's own
    buffering, so memory stays flat however long the run. Pass an instance
    as on_generation; .rows counts the rows written.
    """

    def __init__(self, problem, reference, out):
        self.reference = tuple(reference)
        self.front = problem.front()
        self.writer = csv.writer(out, lineterminator="\n")
        self.writer.writerow(["generation", "min_distance", "front_points"])
        self.rows = 0

    def __call__(self, state: RunState) -> None:
        vectors = set(map(tuple, state.objectives.tolist()))
        min_dist = min(math.dist(v, self.reference) for v in vectors)
        covered = len(vectors & self.front)
        self.writer.writerow((state.generation, min_dist, covered))
        self.rows += 1
