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

Everything works on one sorted form: the rows sorted by (f1, f2), birth
breaking ties, with the runs of equal vectors marked. Two kernels read it:
`_fronts` ranks the distinct vectors and `_crowding` takes the sort as both
of crowding's orders. A selection sorts its pool once; the sort shows
whether the pool is a single front (the distinct f2 values then fall
strictly, as on every OneMinMax pool), gives the ranks when it is not, and
hands its critical front to a kernel, or to the reference key once per
distinct vector. One stable sort of the key over the pool in birth order
then picks the survivors. `_fronts` gives its ranks in the smallest
unsigned type that holds the number of fronts (uint8 up to 255, uint16 up
to 65,535), so a selection orders them with NumPy's radix sort.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sized
from dataclasses import dataclass
from numbers import Real
from typing import ClassVar

import numpy as np


def float_pair(point) -> tuple:
    """`point` as a tuple of two floats; ValueError unless it is a sized pair of real numbers."""
    if not (isinstance(point, Sized) and len(point) == 2
            and all(type(v) is float or isinstance(v, Real) for v in point)):
        raise ValueError(f"the reference point must be two numbers, got {point!r}")
    return tuple(map(float, point))


@dataclass(frozen=True)
class CrowdingDistance:
    """Order the critical front by crowding distance, descending."""

    reference: ClassVar[None] = None


@dataclass(frozen=True)
class ReferencePointDistance:
    """Order the critical front by Euclidean distance to a reference point, ascending.
    The point is kept as a tuple of two floats, whatever container it came in."""

    reference: tuple

    def __post_init__(self):
        object.__setattr__(self, "reference", float_pair(self.reference))


def _sorted_runs(objectives, by_birth):
    """The (f1, f2) sort of a P x 2 float64 array's rows taken in `by_birth`
    order: the order, the rows in it as complex numbers f1 + f2*1j, and a
    mark on the first row of each run of equal vectors. NumPy orders complex
    numbers lexicographically, so the order is np.lexsort((birth, f2, f1)),
    and one comparison tells equal vectors apart."""
    if objectives.ndim != 2 or objectives.shape[1] != 2:
        raise ValueError(f"expected a P x 2 objective array, got shape {objectives.shape}")
    vectors = np.ascontiguousarray(objectives).view(np.complex128).ravel()
    order = by_birth.take(vectors.take(by_birth).argsort(kind="stable"))
    ordered = vectors.take(order)
    first = np.empty(len(ordered), dtype=bool)
    first[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=first[1:])
    return order, ordered, first


def _runs(first):
    """The first and the last row of each run that `first` marks."""
    starts = first.nonzero()[0]
    ends = np.empty_like(starts)
    ends[:-1] = starts[1:] - 1
    ends[-1] = len(first) - 1
    return starts, ends


def _fronts(distinct_f2):
    """1-based front of each distinct vector of the sort, given their f2, in
    the smallest unsigned type that holds the number of fronts.

    Swept in decreasing (f1, f2) order, every vector already seen dominates
    the current one iff its f2 is at least as large. Each front keeps the
    largest f2 it holds; these fall with the front index, so bisection
    finds the current vector's front: O(D log D) for D distinct vectors."""
    negated_best = []  # -(largest f2) per front, non-decreasing
    fronts = []
    for negated in (-distinct_f2)[::-1].tolist():
        front = bisect_right(negated_best, negated)
        if front == len(negated_best):
            negated_best.append(negated)
        else:
            negated_best[front] = negated
        fronts.append(front + 1)
    return np.array(fronts[::-1], dtype=np.min_scalar_type(len(negated_best)))


def _crowding(ordered, first):
    """Crowding distance of each row of one front in the sort, in sort order.

    On one front equal f1, or equal f2, means equal vectors, so the sort is
    the f1 order and its runs in reverse, each still in birth order, are the
    f2 order; every distance is the same sum as with two sorts."""
    f1, f2 = ordered.real, ordered.imag
    starts, ends = _runs(first)
    distinct_f2 = f2[first]
    dist = np.zeros(len(first))
    if len(starts) > 1:  # else every row holds the same vector
        np.subtract(f1[2:], f1[:-2], out=dist[1:-1])
        dist /= f1[-1] - f1[0]
        # in f2 order a run's last row is followed by the run before it in
        # the sort, and its first row is preceded by the run after it
        after, before = f2.copy(), f2.copy()
        after[ends[1:]] = distinct_f2[:-1]
        before[starts[:-1]] = distinct_f2[1:]
        after -= before
        after /= distinct_f2[0] - distinct_f2[-1]
        dist += after
    # the ends of the f1 order, then those of the f2 order: the last run's
    # first row and the first run's last row
    dist[0] = dist[-1] = dist[starts[-1]] = dist[ends[0]] = math.inf
    return dist


def reference_distances(objectives, reference) -> np.ndarray:
    """Euclidean distance from every row's objective vector to the reference point."""
    return np.array([math.dist(v, reference) for v in np.asarray(objectives).tolist()])


def survival_select(objectives, birth, capacity: int, policy) -> np.ndarray:
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
    by_birth = birth.argsort(kind="stable")
    order, ordered, first = _sorted_runs(objectives, by_birth)
    distinct_f2 = ordered.imag[first]
    if (distinct_f2[:-1] > distinct_f2[1:]).all():  # one front, so no ranks are needed
        by_rank = np.arange(len(order))
        start, in_front = 0, slice(None)
    else:
        starts, ends = _runs(first)
        sorted_ranks = _fronts(distinct_f2).repeat(ends - starts + 1)
        ranks = np.empty_like(sorted_ranks)
        ranks[order] = sorted_ranks
        by_rank = ranks.argsort(kind="stable")
        critical = ranks[by_rank[capacity - 1]]
        start = np.count_nonzero(ranks < critical)
        # equal vectors share a front, so the front's rows keep their runs
        in_front = sorted_ranks == critical
    front = order[in_front]  # the critical front's rows, in the pool sort
    if start + len(front) == capacity:
        return by_rank[:capacity]
    values, runs = ordered[in_front], first[in_front]
    if policy.reference is None:
        key = -_crowding(values, runs)
    else:
        starts, ends = _runs(runs)
        key = reference_distances(values.take(starts).view(np.float64).reshape(-1, 2),
                                  policy.reference).repeat(ends - starts + 1)
    # one stable sort of the key over the pool in birth order picks; rows
    # outside the critical front sort last
    key_by_row = np.empty(len(order))
    key_by_row.fill(math.inf)
    key_by_row[front] = key
    picks = by_birth.take(key_by_row.take(by_birth).argsort(kind="stable")[:capacity - start])
    return np.concatenate((by_rank[:start], picks)) if start else picks
