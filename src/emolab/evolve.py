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
from typing import Callable, Optional

import numpy as np

from .core import RngStream, bitwise_mutate, random_bitstring, stream
from .problems import ProblemSpec, batch_evaluator, pareto_front
from .survival import SurvivalPolicy, survival_select


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
    rows = objectives.tolist()
    target = list(reference)
    return rows.index(target) if target in rows else None


def initialize(problem: ProblemSpec, config: AlgorithmConfig, seed: int) -> RunState:
    """Draw and evaluate the N uniform random starting solutions.

    Rows are drawn one at a time: a single (N, n) integer draw would not
    consume the stream as N row draws do.
    """
    rng = stream(seed)
    evaluator = batch_evaluator(problem)
    genomes = np.stack([random_bitstring(problem.n, rng) for _ in range(config.pop_size)])
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
    observe the population (see RunState for its arrays).
    """
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


class GenerationTrace:
    """Collects one row per generation: distance to target and front coverage.

    Rows are (generation, min distance to the reference point, number of
    distinct true-front objective vectors present in the population). Pass
    an instance as on_generation, then inspect .rows or write_csv().
    """

    def __init__(self, problem: ProblemSpec, reference):
        self.reference = tuple(reference)
        self.front = pareto_front(problem)
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
