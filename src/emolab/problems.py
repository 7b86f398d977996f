"""The four bi-objective bitstring benchmarks and their Pareto-front oracles.

OneMinMax maximizes the number of 0-bits and 1-bits simultaneously;
OneJumpZeroJump places a width-k fitness valley before each extreme;
OneMinMax* relocates the all-zeros objective vector to (-n, 2n) so that
moving towards it in objective space moves away from it in decision space;
the bi-objective NK landscape uses two independently generated epistatic
contribution tables over the same bitstring.

Two independent routes to the Pareto front are provided: closed-form
construction for the synthetic problems and exhaustive enumeration of
{0,1}^n (guarded at n <= 25) for everything.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, ClassVar, Optional, Union

import numpy as np

from .core import RngStream, count_ones, stream

ENUMERATION_LIMIT = 25
# Rows per enumeration block: large enough to amortize numpy's per-call cost,
# small enough that a block's NK index arrays stay in the tens of MB at n=25.
ENUMERATION_BLOCK = 1 << 16


class EnumerationLimitError(ValueError):
    """Raised when exhaustive enumeration is requested beyond the size guard."""


class ClosedFormUnavailableError(ValueError):
    """Raised when a closed-form Pareto front is requested for a problem without one."""


@dataclass(eq=False)
class NkInstance:
    """One generated NK landscape: per-objective loci and contribution tables.

    For objective j and position i, loci[j, i] lists the K positions (all
    distinct and different from i) whose bits join bit i in the contribution
    lookup, and contributions[j, i] is the table of 2^(K+1) values in [0, 1).
    The table index places the position's own bit in the highest bit,
    followed by the loci bits in listed order. An instance is a pure
    function of (n, K, seed).
    """

    n: int
    K: int
    seed: int
    loci: np.ndarray          # shape (2, n, K), int
    contributions: np.ndarray  # shape (2, n, 2**(K+1)), float64 in [0, 1)


def generate_nk_instance(n: int, K: int, seed: int) -> NkInstance:
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
    return NkInstance(n=n, K=K, seed=int(seed), loci=loci, contributions=contributions)


def nk_instance_to_json(instance: NkInstance) -> str:
    doc = {
        "n": instance.n,
        "K": instance.K,
        "seed": instance.seed,
        "loci": instance.loci.tolist(),
        "contributions": instance.contributions.tolist(),
    }
    return json.dumps(doc)


def nk_instance_from_json(text: str) -> NkInstance:
    doc = json.loads(text)
    loci = np.array(doc["loci"], dtype=np.int64).reshape(2, doc["n"], doc["K"])
    contributions = np.array(doc["contributions"], dtype=np.float64)
    contributions = contributions.reshape(2, doc["n"], 2 ** (doc["K"] + 1))
    loci.flags.writeable = False
    contributions.flags.writeable = False
    return NkInstance(n=doc["n"], K=doc["K"], seed=doc["seed"],
                      loci=loci, contributions=contributions)


def save_nk_instance(instance: NkInstance, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(nk_instance_to_json(instance))


def load_nk_instance(path) -> NkInstance:
    with open(path, "r", encoding="utf-8") as fh:
        return nk_instance_from_json(fh.read())


@dataclass(frozen=True)
class OneMinMax:
    n: int
    label: ClassVar[str] = "omm"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")


@dataclass(frozen=True)
class OneJumpZeroJump:
    n: int
    k: int
    label: ClassVar[str] = "ojzj"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 2 <= self.k <= self.n // 4:
            raise ValueError(
                f"k must lie in [2, n//4] = [2, {self.n // 4}], got {self.k}")


@dataclass(frozen=True)
class OneMinMaxStar:
    n: int
    label: ClassVar[str] = "ommstar"

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")


@dataclass(eq=False)
class NkLandscape:
    instance: NkInstance
    label: ClassVar[str] = "nk"

    @property
    def n(self) -> int:
        return self.instance.n


ProblemSpec = Union[OneMinMax, OneJumpZeroJump, OneMinMaxStar, NkLandscape]


def _nk_objectives(instance: NkInstance, x: np.ndarray) -> np.ndarray:
    """Mean contribution per objective for every row of x, a (P, n) batch."""
    K = instance.K
    bits = x.astype(np.intp)
    positions = np.arange(instance.n)
    out = np.empty((len(bits), 2))
    for j in (0, 1):
        # own bit highest, then the loci bits in listed order
        index = bits << K
        for t in range(K):
            index += bits[:, instance.loci[j, :, t]] << (K - 1 - t)
        out[:, j] = instance.contributions[j, positions, index].mean(axis=1)
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
        instance = problem.instance
        return lambda x: _nk_objectives(instance, x)
    table = _ones_table(problem)
    return lambda x: table[x.sum(axis=1)]


def evaluate(problem: ProblemSpec, x: np.ndarray):
    """Objective vector of bitstring x under the given problem (maximization)."""
    n = problem.n
    if len(x) != n:
        raise ValueError(f"bitstring length {len(x)} does not match problem size {n}")
    return tuple(batch_evaluator(problem)(x[None, :])[0].tolist())


@dataclass(eq=False)
class ParetoFront:
    """A set of mutually non-dominated objective vectors, optionally with witnesses."""

    points: frozenset
    witnesses: Optional[dict] = None

    def sorted_points(self) -> list:
        return sorted(self.points)

    def __len__(self) -> int:
        return len(self.points)

    def __contains__(self, vector) -> bool:
        return vector in self.points


def pareto_front_closed_form(problem: ProblemSpec) -> ParetoFront:
    """Exact Pareto front by direct construction (synthetic problems only)."""
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
    return ParetoFront(points=frozenset(points))


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


def enumerate_pareto_front(problem: ProblemSpec, witness: bool = False) -> ParetoFront:
    """Pareto front by brute-force evaluation of all 2^n bitstrings.

    Independent of the closed-form construction; guarded at n <= 25.
    Bitstrings are evaluated in blocks of ENUMERATION_BLOCK, in increasing
    numeric order, and each block is merged into a running skyline, so
    memory stays bounded by the block size. With witness=True the front
    carries one solution per objective vector (the numerically smallest
    bitstring found).
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
    points = [tuple(p) for p in front.tolist()]
    witnesses = None
    if witness:
        witnesses = {}
        for point, value in zip(points, values.tolist()):
            bits = ((value >> shifts) & 1).astype(np.uint8)
            bits.flags.writeable = False
            witnesses[point] = bits
    return ParetoFront(points=frozenset(points), witnesses=witnesses)


class OjzjClass(Enum):
    """Position of a solution relative to the OneJumpZeroJump Pareto set."""

    INNER_PARETO_SET = "inner"
    OUTER_PARETO_SET = "outer"
    NOT_PARETO_OPTIMAL = "not_optimal"


def classify_ojzj(x: np.ndarray, n: int, k: int) -> OjzjClass:
    """Classify x by ones-count: inner part, outer part, or not Pareto optimal."""
    if not 2 <= k <= n // 4:
        raise ValueError(f"k must lie in [2, n//4] = [2, {n // 4}], got {k}")
    if len(x) != n:
        raise ValueError(f"bitstring length {len(x)} does not match n={n}")
    ones = count_ones(x)
    if k <= ones <= n - k:
        return OjzjClass.INNER_PARETO_SET
    if ones in (0, n):
        return OjzjClass.OUTER_PARETO_SET
    return OjzjClass.NOT_PARETO_OPTIMAL


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
        points = enumerate_pareto_front(problem).sorted_points()
        return points[int(rng.integers(len(points)))]
    raise TypeError(f"unknown problem spec: {problem!r}")
