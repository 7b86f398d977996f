"""The four bi-objective bitstring benchmarks and their Pareto-front oracles.

OneMinMax maximizes the number of 0-bits and 1-bits simultaneously;
OneJumpZeroJump places a width-k fitness valley before each extreme;
OneMinMax* relocates the all-zeros objective vector to (-n, 2n) so that
moving towards it in objective space moves away from it in decision space;
the bi-objective NK landscape uses two independently generated epistatic
contribution tables over the same bitstring.

Two independent routes to the Pareto front are provided: closed-form
construction for the synthetic problems, a frozenset of objective vectors,
and exhaustive enumeration of {0,1}^n (guarded at n <= 25) for everything,
a dict from each front vector to its numerically smallest witness.
pareto_front picks the closed form where there is one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional, Union

import numpy as np

from .core import RngStream, stream

ENUMERATION_LIMIT = 25
# Rows per enumeration block: large enough to amortize numpy's per-call cost,
# small enough that a block's NK index arrays stay in the tens of MB at n=25.
ENUMERATION_BLOCK = 1 << 16


class EnumerationLimitError(ValueError):
    """Raised when exhaustive enumeration is requested beyond the size guard."""


class ClosedFormUnavailableError(ValueError):
    """Raised when a closed-form Pareto front is requested for a problem without one."""


@dataclass(eq=False)
class NkLandscape:
    """A bi-objective NK landscape: per-objective loci and contribution tables.

    For objective j and position i, loci[j, i] lists the K positions (all
    distinct and different from i) whose bits join bit i in the contribution
    lookup, and contributions[j, i] is the table of 2^(K+1) values in [0, 1).
    The table index places the position's own bit in the highest bit,
    followed by the loci bits in listed order. A landscape is a pure
    function of (n, K, seed); generate_nk_instance builds it.
    """

    n: int
    K: int
    seed: int
    loci: np.ndarray          # shape (2, n, K), int
    contributions: np.ndarray  # shape (2, n, 2**(K+1)), float64 in [0, 1)


def generate_nk_instance(n: int, K: int, seed: int) -> NkLandscape:
    """Generate a bi-objective NK instance deterministically from its seed.

    Each position's K loci are drawn uniformly without replacement from the
    other positions, independently per objective; contribution values are
    uniform on [0, 1).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    if not 0 <= K < n:
        raise ValueError(f"K must satisfy 0 <= K < n, got K={K}, n={n}")
    rng = stream(seed)
    loci = np.zeros((2, n, K), dtype=np.int64)
    for j in range(2):
        for i in range(n):
            others = np.delete(np.arange(n), i)
            if K:
                loci[j, i] = rng.choice(others, size=K, replace=False)
    contributions = rng.random((2, n, 2 ** (K + 1)))
    loci.flags.writeable = False
    contributions.flags.writeable = False
    return NkLandscape(n=n, K=K, seed=int(seed), loci=loci, contributions=contributions)


@dataclass(frozen=True)
class OneMinMax:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")


@dataclass(frozen=True)
class OneJumpZeroJump:
    n: int
    k: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 2 <= self.k <= self.n // 4:
            raise ValueError(
                f"k must lie in [2, n//4] = [2, {self.n // 4}], got {self.k}")


@dataclass(frozen=True)
class OneMinMaxStar:
    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")


ProblemSpec = Union[OneMinMax, OneJumpZeroJump, OneMinMaxStar, NkLandscape]


def _nk_objectives(problem: NkLandscape, x: np.ndarray) -> np.ndarray:
    """Mean contribution per objective for every row of x, a (P, n) batch."""
    K = problem.K
    bits = x.astype(np.intp)
    positions = np.arange(problem.n)
    out = np.empty((len(bits), 2))
    for j in (0, 1):
        # own bit highest, then the loci bits in listed order
        index = bits << K
        for t in range(K):
            index += bits[:, problem.loci[j, :, t]] << (K - 1 - t)
        out[:, j] = problem.contributions[j, positions, index].mean(axis=1)
    return out


def _ones_table(problem: ProblemSpec) -> np.ndarray:
    """Objective vectors of the synthetic problems indexed by number of ones."""
    n = problem.n
    ones = np.arange(n + 1, dtype=np.float64)
    zeros = n - ones
    if isinstance(problem, (OneMinMax, OneMinMaxStar)):
        table = np.column_stack((zeros, ones))
        if isinstance(problem, OneMinMaxStar):
            table[0] = (-n, 2 * n)
        return table
    if isinstance(problem, OneJumpZeroJump):
        k = problem.k
        f1 = np.where((ones <= n - k) | (ones == n), k + ones, n - ones)
        f2 = np.where((zeros <= n - k) | (zeros == n), k + zeros, n - zeros)
        return np.column_stack((f1, f2))
    raise TypeError(f"unknown problem spec: {problem!r}")


def batch_evaluator(problem: ProblemSpec) -> Callable[[np.ndarray], np.ndarray]:
    """The problem's objective function over a (P, n) batch of bitstrings.

    The returned function maps the rows to a (P, 2) float64 array of their
    objective vectors (maximization). The synthetic problems depend on a
    bitstring only through its number of ones, so making the evaluator
    builds their (n + 1)-row objective table: make one per run, not per batch.
    """
    if isinstance(problem, NkLandscape):
        return lambda x: _nk_objectives(problem, x)
    table = _ones_table(problem)
    return lambda x: table[x.sum(axis=1)]


def evaluate(problem: ProblemSpec, x: np.ndarray):
    """Objective vector of bitstring x under the given problem (maximization)."""
    n = problem.n
    if len(x) != n:
        raise ValueError(f"bitstring length {len(x)} does not match problem size {n}")
    return tuple(batch_evaluator(problem)(x[None, :])[0].tolist())


def pareto_front_closed_form(problem: ProblemSpec) -> frozenset:
    """Exact Pareto front of a synthetic problem, as a set of objective vectors."""
    if isinstance(problem, OneMinMax):
        n = problem.n
        points = {(float(i), float(n - i)) for i in range(n + 1)}
    elif isinstance(problem, OneJumpZeroJump):
        n, k = problem.n, problem.k
        points = {(float(i), float(n + 2 * k - i)) for i in range(2 * k, n + 1)}
        points.add((float(k), float(n + k)))
        points.add((float(n + k), float(k)))
    elif isinstance(problem, OneMinMaxStar):
        n = problem.n
        points = {(float(i), float(n - i)) for i in range(n)}
        points.add((float(-n), float(2 * n)))
    elif isinstance(problem, NkLandscape):
        raise ClosedFormUnavailableError(
            "NK landscapes have no closed-form front; use enumerate_pareto_front")
    else:
        raise TypeError(f"unknown problem spec: {problem!r}")
    return frozenset(points)


def _skyline(objectives: np.ndarray, values: np.ndarray):
    """Distinct non-dominated rows under maximization, each with its smallest value."""
    f1, f2 = objectives[:, 0], objectives[:, 1]
    order = np.lexsort((values, -f2, -f1))
    f1, f2 = f1[order], f2[order]
    # the first row of each f1 group has the group's best f2; it survives iff
    # it beats every row with a larger f1, all of which sort before it
    leader = np.ones(len(order), dtype=bool)
    leader[1:] = f1[1:] != f1[:-1]
    best_before = np.empty(len(order))
    best_before[0] = -math.inf
    np.maximum.accumulate(f2[:-1], out=best_before[1:])
    keep = order[leader & (f2 > best_before)]
    return objectives[keep], values[keep]


def enumerate_pareto_front(problem: ProblemSpec) -> dict:
    """Pareto front by brute-force evaluation of all 2^n bitstrings.

    Independent of the closed-form construction; guarded at n <= 25.
    Bitstrings are evaluated in blocks of ENUMERATION_BLOCK, in increasing
    numeric order, and each block is merged into a running skyline, so
    memory stays bounded by the block size. The result maps each front
    vector to its witness, the numerically smallest bitstring (read-only)
    that evaluates to it.
    """
    n = problem.n
    if n > ENUMERATION_LIMIT:
        raise EnumerationLimitError(
            f"enumeration is limited to n <= {ENUMERATION_LIMIT}, got n={n}")
    objectives_of = batch_evaluator(problem)
    shifts = np.arange(n - 1, -1, -1)
    front, values = np.empty((0, 2)), np.empty(0, dtype=np.int64)
    for start in range(0, 1 << n, ENUMERATION_BLOCK):
        block = np.arange(start, min(start + ENUMERATION_BLOCK, 1 << n), dtype=np.int64)
        bits = ((block[:, None] >> shifts) & 1).astype(np.uint8)
        front, values = _skyline(np.concatenate((front, objectives_of(bits))),
                                 np.concatenate((values, block)))
    witnesses = ((values[:, None] >> shifts) & 1).astype(np.uint8)
    witnesses.flags.writeable = False
    return dict(zip(map(tuple, front.tolist()), witnesses))


def pareto_front(problem: ProblemSpec) -> frozenset:
    """The problem's Pareto front: the closed form where there is one, else enumerated."""
    try:
        return pareto_front_closed_form(problem)
    except ClosedFormUnavailableError:
        return frozenset(enumerate_pareto_front(problem))


def default_reference_point(problem: ProblemSpec, rng: Optional[RngStream] = None):
    """The standard target vector per problem.

    OneMinMax: (0, n); OneJumpZeroJump: (n+k, k); OneMinMax*: (-n, 2n).
    For an NK landscape the target is a uniformly random member of the
    enumerated front, so a stream is required and the size guard applies.
    """
    if isinstance(problem, OneMinMax):
        return (0.0, float(problem.n))
    if isinstance(problem, OneJumpZeroJump):
        return (float(problem.n + problem.k), float(problem.k))
    if isinstance(problem, OneMinMaxStar):
        return (float(-problem.n), float(2 * problem.n))
    if isinstance(problem, NkLandscape):
        if rng is None:
            raise ValueError("an RNG stream is required to pick an NK reference point")
        points = sorted(enumerate_pareto_front(problem))
        return points[int(rng.integers(len(points)))]
    raise TypeError(f"unknown problem spec: {problem!r}")
