"""The generation loop shared by NSGA-II and R-NSGA-II.

Both algorithms mutate every parent exactly once per generation (no parent
selection, no crossover), evaluate the N offspring, and keep the best N of
parents plus offspring under the configured survival policy. They stop when
some evaluated solution's objective vector equals the reference point, or
when the evaluation budget is exhausted.

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
from itertools import repeat
from typing import Callable, Optional

import numpy as np

from .core import RngStream, bitwise_mutate, random_population, stream
from .problems import NkLandscape, ProblemSpec
from .survival import CrowdingDistance, ReferencePointDistance, SurvivalPolicy, survival_select

# The N = 1 kernel draws the mutation uniforms of up to this many generations
# at once, and never more than _BLOCK_UNIFORMS of them, so a block stays a
# few MB at any n.
_BLOCK_GENERATIONS = 256
_BLOCK_UNIFORMS = 1 << 18


@dataclass(frozen=True)
class AlgorithmConfig:
    """Everything that defines one algorithm run besides the problem and seed.

    mutation_rate of None means the standard 1/n. A zero rate is accepted
    as a degenerate setting for tests. max_evaluations of None runs without
    a budget.
    """

    policy: SurvivalPolicy
    pop_size: int
    reference_point: tuple
    mutation_rate: Optional[float] = None
    max_evaluations: Optional[int] = None

    def __post_init__(self):
        if not isinstance(self.policy, (CrowdingDistance, ReferencePointDistance)):
            raise TypeError(f"unknown survival policy: {self.policy!r}")
        if self.pop_size < 1:
            raise ValueError("population size must be at least 1")
        if len(self.reference_point) != 2:
            raise ValueError("reference point must have exactly 2 objectives")
        if self.mutation_rate is not None and not 0.0 <= self.mutation_rate <= 1.0:
            raise ValueError("mutation rate must lie in [0, 1]")
        if self.max_evaluations is not None and self.max_evaluations < 1:
            raise ValueError("max_evaluations must be positive when set")


@dataclass
class RunState:
    """Snapshot of a run between generations.

    The population is held row-aligned: genomes (N x n uint8), objectives
    (N x 2 float64) and birth (N int64), in survivor order. A birth index
    is the 0-based number of the evaluation that created the row, so it
    rises with creation order, and the next offspring's is `evaluations`.
    `evaluator` is the problem's batch objective function, built once per run.
    """

    genomes: np.ndarray
    objectives: np.ndarray
    birth: np.ndarray
    generation: int
    evaluations: int
    hit: bool
    evaluations_to_hit: Optional[int]
    rng: RngStream
    evaluator: Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True)
class RunResult:
    hit: bool
    evaluations_to_hit: Optional[int]
    evaluations: int
    generations: int
    seed: int


def _first_hit(objectives: np.ndarray, reference) -> Optional[int]:
    """Index of the first row equal to the reference point, or None."""
    hits = (objectives[:, 0] == reference[0]) & (objectives[:, 1] == reference[1])
    first = int(hits.argmax())
    return first if hits[first] else None


def initialize(problem: ProblemSpec, config: AlgorithmConfig, seed: int) -> RunState:
    """Draw the N uniform random starting solutions in one draw and evaluate them."""
    rng = stream(seed)
    evaluator = problem.evaluator()
    genomes = random_population(config.pop_size, problem.n, rng)
    objectives = evaluator(genomes)
    first = _first_hit(objectives, config.reference_point)
    return RunState(
        genomes=genomes,
        objectives=objectives,
        birth=np.arange(config.pop_size, dtype=np.int64),
        generation=0,
        evaluations=config.pop_size,
        hit=first is not None,
        evaluations_to_hit=None if first is None else first + 1,
        rng=rng,
        evaluator=evaluator,
    )


def step_generation(state: RunState, problem: ProblemSpec, config: AlgorithmConfig) -> RunState:
    """Mutate every parent once, evaluate the offspring, keep the best N."""
    rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / problem.n
    offspring = bitwise_mutate(state.genomes, rate, state.rng)
    objectives = state.evaluator(offspring)
    evaluations = state.evaluations + len(offspring)
    hit, hit_at = state.hit, state.evaluations_to_hit
    if not hit:
        first = _first_hit(objectives, config.reference_point)
        if first is not None:
            hit, hit_at = True, state.evaluations + first + 1
    # the pool is parents then offspring; survivor order decides which parent
    # the next generation's mutation draws go to
    pool_objectives = np.concatenate((state.objectives, objectives))
    pool_birth = np.concatenate(
        (state.birth, np.arange(state.evaluations, evaluations, dtype=np.int64)))
    keep = survival_select(pool_objectives, pool_birth, config.pop_size, config.policy)
    return RunState(
        genomes=np.concatenate((state.genomes, offspring)).take(keep, axis=0),
        objectives=pool_objectives.take(keep, axis=0),
        birth=pool_birth.take(keep),
        generation=state.generation + 1,
        evaluations=evaluations,
        hit=hit,
        evaluations_to_hit=hit_at,
        rng=state.rng,
        evaluator=state.evaluator,
    )


def run(
    problem: ProblemSpec,
    config: AlgorithmConfig,
    seed: int,
    on_generation: Optional[Callable[[RunState], None]] = None,
) -> RunResult:
    """Run until the reference point is found or the budget is exhausted.

    on_generation, when given, is called on the initialized state and after
    every completed generation; it is how traces and invariant checks
    observe the population (see RunState for its arrays). An unobserved
    run with N = 1 on a synthetic problem goes through _run_single, which
    gives the same result.
    """
    if config.pop_size == 1 and on_generation is None and not isinstance(problem, NkLandscape):
        return _run_single(problem, config, seed)
    state = initialize(problem, config, seed)
    if on_generation is not None:
        on_generation(state)
    cap = config.max_evaluations
    while not state.hit and (cap is None or state.evaluations < cap):
        state = step_generation(state, problem, config)
        if on_generation is not None:
            on_generation(state)
    return RunResult(
        hit=state.hit,
        evaluations_to_hit=state.evaluations_to_hit,
        evaluations=state.evaluations,
        generations=state.generation,
        seed=int(seed),
    )


@lru_cache(maxsize=1)
def _ones_columns(problem: ProblemSpec) -> tuple:
    """The ones table's two columns as lists, read-only, shared by a cell's runs.
    Never the table itself: OneMinMaxStar.ones_table writes into its parent's."""
    return tuple(problem.ones_table().T.tolist())


def _run_single(problem: ProblemSpec, config: AlgorithmConfig, seed: int) -> RunResult:
    """`run` at N = 1 on a synthetic problem: a (1+1) loop over Python ints.

    The genome is an int (position 0 in the highest bit) and its objective
    vector is the ones-table row of its bit count. Mutation draws the
    uniforms of a block of generations as one (G, n) array, which row-major
    order makes consume the stream exactly as G one-row draws; the stream
    is private to the run, so uniforms drawn past its end are never seen.
    survival_select at capacity 1 reduces to one rule: the child replaces
    the parent if it dominates it, or, under the reference-point policy, if
    neither dominates the other and the child is strictly closer to the
    reference. Every other case, equal vectors included, keeps the parent,
    which has the earlier birth.

    So only a child with another ones count can change anything. The loop
    visits only a block's rows that flip a bit, turned into int masks in one
    packbits pass; the other rows repeat the parent and are only counted.
    Row r of a block that starts after evaluation `base` is evaluation
    base + r + 1. The ones table is held as its two columns, built once per
    problem, and a distance to the reference is computed once per ones
    count met.
    """
    n = problem.n
    rate = config.mutation_rate if config.mutation_rate is not None else 1.0 / n
    reference = config.policy.reference  # None under crowding
    f1, f2 = _ones_columns(problem)  # the objectives by ones count
    distances = {}  # to the reference, by ones count, filled as counts are met
    target1, target2 = config.reference_point
    cap = config.max_evaluations
    rng = stream(seed)
    genome = int.from_bytes(np.packbits(random_population(1, n, rng)[0]).tobytes(), "big")
    ones = genome.bit_count()
    p1, p2 = f1[ones], f2[ones]
    evaluations = 1
    hit = p1 == target1 and p2 == target2
    block_rows = max(1, min(_BLOCK_GENERATIONS, _BLOCK_UNIFORMS // n))
    mask_type = np.dtype(f"V{-(-n // 8)}")  # a packed row as one big-endian bytes object
    while not hit and (cap is None or evaluations < cap):
        rows = block_rows if cap is None else min(block_rows, cap - evaluations)
        flips = rng.random((rows, n)) < rate
        visited = np.flatnonzero(flips.any(axis=1))
        masks = np.packbits(flips[visited], axis=1).view(mask_type).ravel().tolist()
        base, evaluations = evaluations, evaluations + rows
        for row, mask in zip(visited.tolist(), map(int.from_bytes, masks, repeat("big"))):
            child_genome = genome ^ mask
            child_ones = child_genome.bit_count()
            if child_ones == ones:
                continue
            c1, c2 = f1[child_ones], f2[child_ones]
            if c1 == target1 and c2 == target2:
                hit, evaluations = True, base + row + 1
                break
            # dominance tested inline: a function call here halves the kernel's speed
            if c1 >= p1 and c2 >= p2:
                if c1 != p1 or c2 != p2:
                    genome, ones, p1, p2 = child_genome, child_ones, c1, c2
            elif reference is not None and (c1 > p1 or c2 > p2):
                if child_ones not in distances:
                    distances[child_ones] = math.dist((c1, c2), reference)
                if ones not in distances:
                    distances[ones] = math.dist((p1, p2), reference)
                if distances[child_ones] < distances[ones]:
                    genome, ones, p1, p2 = child_genome, child_ones, c1, c2
    return RunResult(hit=hit, evaluations_to_hit=evaluations if hit else None,
                     evaluations=evaluations, generations=evaluations - 1, seed=int(seed))


class GenerationTrace:
    """Collects one row per generation: distance to target and front coverage.

    Rows are (generation, min distance to the reference point, number of
    distinct true-front objective vectors present in the population). Pass
    an instance as on_generation, then inspect .rows or write_csv().
    """

    def __init__(self, problem: ProblemSpec, reference):
        self.reference = tuple(reference)
        self.front = problem.front()
        self.rows = []

    def __call__(self, state: RunState) -> None:
        vectors = set(map(tuple, state.objectives.tolist()))
        min_dist = min(math.dist(v, self.reference) for v in vectors)
        covered = len(vectors & self.front)
        self.rows.append((state.generation, min_dist, covered))

    def write_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["generation", "min_distance", "front_points"])
            writer.writerows(self.rows)
