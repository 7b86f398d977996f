"""Environmental selection: non-dominated sorting, crowding distance, and
reference-point distance, plus the capacity-N truncation built on them.

The two survival policies differ only in how the critical front is ordered:
crowding distance keeps the most isolated solutions (descending), the
reference-point policy keeps the solutions closest to the target vector
(ascending). Whole fronts are admitted as long as they fit; only the first
front that does not fit is truncated, and its key is computed exactly once.
All ties break on birth index, so selection is fully deterministic.

A population is a set of parallel arrays: objectives (P x 2 float64) and
birth (P int64), one row per solution; selection returns row indices.
"""

from __future__ import annotations

import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Union

import numpy as np


@dataclass(frozen=True)
class CrowdingDistance:
    """Order the critical front by crowding distance, descending."""


@dataclass(frozen=True)
class ReferencePointDistance:
    """Order the critical front by Euclidean distance to a reference point, ascending."""

    reference: tuple


SurvivalPolicy = Union[CrowdingDistance, ReferencePointDistance]


def fast_nondominated_sort(objectives) -> np.ndarray:
    """1-based front index of every row of a P x 2 objective array.

    Front 1 holds everything non-dominated in the input; each later front is
    non-dominated once the earlier fronts are removed. Equal objective
    vectors always share a front. An empty input gives an empty array.

    Rows are swept in decreasing (f1, f2) order, so every distinct vector
    already seen dominates the current one iff its f2 is at least as large.
    Each front keeps the largest f2 it holds; these maxima decrease with
    the front index, so the current vector's front is found by bisection:
    O(P log P) instead of a P x P dominance matrix.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    if objectives.size == 0:
        return np.zeros(0, dtype=np.int64)
    if objectives.ndim != 2 or objectives.shape[1] != 2:
        raise ValueError(f"expected a P x 2 objective array, got shape {objectives.shape}")
    order = np.lexsort((objectives[:, 1], objectives[:, 0]))
    rows = objectives.take(order, axis=0).tolist()
    sorted_ranks = [0] * len(rows)
    negated_best = []  # -(largest f2) per front, non-decreasing
    previous = None
    rank = 0
    for i in range(len(rows) - 1, -1, -1):
        row = rows[i]
        if row != previous:
            previous = row
            negated = -row[1]
            front = bisect_right(negated_best, negated)
            if front == len(negated_best):
                negated_best.append(negated)
            else:
                negated_best[front] = negated
            rank = front + 1
        sorted_ranks[i] = rank
    ranks = np.empty(len(rows), dtype=np.int64)
    ranks[order] = sorted_ranks
    return ranks


def crowding_distance_assign(objectives, birth) -> np.ndarray:
    """Crowding distance of every row of one front.

    Per objective the front is sorted ascending (ties on birth), the two
    boundary rows get infinity, and each interior row accumulates the
    normalized gap between its sorted neighbours, objective 0 first. When an
    objective is constant across the front it contributes nothing to the
    interior, but the boundary infinities still apply.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    dist = np.zeros(len(objectives))
    if not len(objectives):
        return dist
    for i in range(objectives.shape[1]):
        values = objectives[:, i]
        order = np.lexsort((birth, values))
        dist[order[0]] = math.inf
        dist[order[-1]] = math.inf
        span = values[order[-1]] - values[order[0]]
        if span == 0:
            continue
        ranked = values[order]
        dist[order[1:-1]] += (ranked[2:] - ranked[:-2]) / span
    return dist


def reference_distances(objectives, reference) -> np.ndarray:
    """Euclidean distance from every row's objective vector to the reference point."""
    return np.array([math.dist(v, reference) for v in np.asarray(objectives).tolist()])


def survival_select(objectives, birth, capacity: int, policy: SurvivalPolicy) -> np.ndarray:
    """Row indices of the next population of exactly `capacity` from the pool.

    Fronts are admitted whole while they fit (filling to exactly capacity
    counts as complete admission), each in pool order; the first front that
    does not fit is ordered by the policy key with birth breaking ties, and
    only the remaining slots are taken from it, in that order.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    birth = np.asarray(birth)
    if capacity < 1:
        raise ValueError("capacity must be at least 1")
    if len(objectives) < capacity:
        raise ValueError(
            f"need at least {capacity} individuals to select from, got {len(objectives)}")
    ranks = fast_nondominated_sort(objectives)
    order = ranks.argsort(kind="stable")
    if capacity == len(order):
        return order
    sorted_ranks = ranks[order].tolist()
    critical = sorted_ranks[capacity]
    if sorted_ranks[capacity - 1] != critical:
        return order[:capacity]
    start = bisect_left(sorted_ranks, critical)
    front = order[start:bisect_right(sorted_ranks, critical)]
    front_birth = birth.take(front)
    if isinstance(policy, CrowdingDistance):
        key = -crowding_distance_assign(objectives.take(front, axis=0), front_birth)
    elif isinstance(policy, ReferencePointDistance):
        key = reference_distances(objectives.take(front, axis=0), policy.reference)
    else:
        raise TypeError(f"unknown survival policy: {policy!r}")
    picks = front.take(np.lexsort((front_birth, key))[:capacity - start])
    return np.concatenate((order[:start], picks)) if start else picks
