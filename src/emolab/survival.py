"""Environmental selection: non-dominated sorting, crowding distance, and
reference-point distance, plus the capacity-N truncation built on them.

The two survival policies differ only in how the critical front is ordered,
and a policy's `reference` picks the key: None orders by crowding distance,
keeping the most isolated solutions (descending); a point orders by distance
to it, keeping the closest (ascending). Whole fronts are admitted as long as
they fit; only the first front that does not fit is truncated, and its key
is computed exactly once. Ties break on birth index, so selection is fully
deterministic.

A population is a set of parallel arrays: objectives (P x 2 float64) and
birth (P int64), one row per solution; selection returns row indices.

A selection sorts its pool by (f1, f2) once, and that one sort serves every
step: it marks the runs of equal vectors, shows whether the pool is a single
front (the distinct f2 values then fall strictly, as on every OneMinMax
pool), gives the ranks when it is not, and lets the reference key be
computed once per distinct vector of the critical front.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sized
from dataclasses import dataclass
from numbers import Real
from typing import ClassVar, Union

import numpy as np


@dataclass(frozen=True)
class CrowdingDistance:
    """Order the critical front by crowding distance, descending."""

    reference: ClassVar[None] = None


@dataclass(frozen=True)
class ReferencePointDistance:
    """Order the critical front by Euclidean distance to a reference point, ascending."""

    reference: tuple

    def __post_init__(self):
        if not (isinstance(self.reference, Sized) and len(self.reference) == 2
                and all(isinstance(v, Real) for v in self.reference)):
            raise ValueError(f"the reference point must be two numbers, got {self.reference!r}")


SurvivalPolicy = Union[CrowdingDistance, ReferencePointDistance]


def _sorted_runs(objectives, order=None):
    """The (f1, f2) sort of a P x 2 float64 array's rows: the order, the rows
    in it as complex numbers f1 + f2*1j, and a mark on the first row of each
    run of equal vectors. NumPy orders complex numbers lexicographically,
    real part first, so their stable argsort is np.lexsort((f2, f1)), and
    one comparison tells equal vectors apart."""
    if objectives.ndim != 2 or objectives.shape[1] != 2:
        raise ValueError(f"expected a P x 2 objective array, got shape {objectives.shape}")
    vectors = np.ascontiguousarray(objectives).view(np.complex128).ravel()
    if order is None:
        order = vectors.argsort(kind="stable")
    ordered = vectors.take(order)
    first = np.empty(len(ordered), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order, ordered, first


def fast_nondominated_sort(objectives, order=None) -> np.ndarray:
    """1-based front index of every row of a P x 2 objective array.

    Front 1 holds everything non-dominated in the input; each later front is
    non-dominated once the earlier fronts are removed. Equal objective
    vectors always share a front. An empty input gives an empty array.

    Rows are sorted by (f1, f2), and a neighbour comparison marks the first
    row of each run of equal vectors, so only the distinct vectors are swept,
    in decreasing order: every one already seen dominates the current one
    iff its f2 is at least as large. Each front keeps the largest f2 it
    holds; these maxima decrease with the front index, so the current
    vector's front is found by bisection, O(D log D) for D distinct vectors
    instead of a P x P dominance matrix. Each run of duplicates then takes
    its vector's front. `order`, when given, is that sort already made:
    survival_select passes its own, and calls this only on a pool of more
    than one front, so a selection sorts its pool once.
    """
    objectives = np.asarray(objectives, dtype=np.float64)
    if objectives.size == 0:
        return np.zeros(0, dtype=np.int64)
    order, ordered, first = _sorted_runs(objectives, order)
    negated_best = []  # -(largest f2) per front, non-decreasing
    distinct_ranks = []
    for negated in (-ordered.imag[first])[::-1].tolist():
        front = bisect_right(negated_best, negated)
        if front == len(negated_best):
            negated_best.append(negated)
        else:
            negated_best[front] = negated
        distinct_ranks.append(front + 1)
    ranks = np.empty(len(order), dtype=np.int64)
    ranks[order] = np.array(distinct_ranks[::-1]).take(np.cumsum(first) - 1)
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
    order, ordered, first = _sorted_runs(objectives)
    distinct_f2 = ordered.imag[first]
    if (distinct_f2[:-1] > distinct_f2[1:]).all():  # one front, so no ranks are needed
        by_rank = front = np.arange(len(order))
        start, in_front = 0, slice(None)
    else:
        ranks = fast_nondominated_sort(objectives, order)
        by_rank = ranks.argsort(kind="stable")
        critical = ranks[by_rank[capacity - 1]]
        start = np.count_nonzero(ranks < critical)
        front = by_rank[start:np.count_nonzero(ranks <= critical)]
        # equal vectors share a front, so the front's rows keep their runs
        in_front = ranks.take(order) == critical
    if start + len(front) == capacity:
        return by_rank[:capacity]
    front_birth = birth.take(front)
    if policy.reference is None:
        key = -crowding_distance_assign(objectives.take(front, axis=0), front_birth)
    else:
        runs = first[in_front]
        distinct = ordered[in_front][runs].view(np.float64).reshape(-1, 2)
        key = np.empty(len(order))
        key[order[in_front]] = reference_distances(
            distinct, policy.reference).take(np.cumsum(runs) - 1)
        key = key.take(front)
    picks = front.take(np.lexsort((front_birth, key))[:capacity - start])
    return np.concatenate((by_rank[:start], picks)) if start else picks
