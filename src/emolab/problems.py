"""The four bi-objective bitstring benchmarks and their Pareto-front oracles.

OneMinMax maximizes the number of 0-bits and 1-bits simultaneously;
OneJumpZeroJump places a width-k fitness valley before each extreme;
OneMinMax* relocates the all-zeros objective vector to (-n, 2n) so that
moving towards it in objective space moves away from it in decision space;
the bi-objective NK landscape uses two independently generated epistatic
contribution tables over the same bitstring.

Every problem answers the same three calls: evaluator() returns its batch
objective function, front() its Pareto front as a frozenset of objective
vectors, and reference_point(rng=None) its standard target vector. The
synthetic problems build their front in closed form; an NK landscape
enumerates {0,1}^n once and keeps the result. enumerate_pareto_front is the
independent oracle for everything (guarded at n <= 25), a dict from each
front vector to its numerically smallest witness.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .core import RngStream, stream

ENUMERATION_LIMIT = 25
# Rows per enumeration block: large enough to amortize numpy's per-call cost,
# small enough that a block's NK index arrays stay in the tens of MB at n=25.
# A power of two, so that the bitstrings of an NK block share their high bits.
ENUMERATION_BLOCK = 1 << 16


class EnumerationLimitError(ValueError):
    """Raised when exhaustive enumeration is requested beyond the size guard."""


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
    # the enumerated front, kept by the first front() call on this landscape
    _front: Optional[frozenset] = field(default=None, init=False, repr=False)
    # the evaluator's byte tables, kept by the first evaluator() call
    _tables: Optional[np.ndarray] = field(default=None, init=False, repr=False)

    def _byte_tables(self) -> np.ndarray:
        """Flat `contributions` indices by genome byte: a (ceil(n/8), 256, 2n) array.

        Column j*n + i stands for objective j at position i. Row v of table c
        holds what byte c of a genome, packed by np.packbits (position 8c in
        the high bit), adds to each column's table index when the byte is v:
        2^K for the column's own bit and 2^(K-1-t) for its t-th locus. Table
        0 also holds each column's flat offset, so the sum of a genome's
        byte rows is its 2n flat indices into contributions.reshape(-1).
        """
        if self._tables is None:
            n, K = self.n, self.K
            objective, column = np.arange(2)[:, None], np.arange(n)
            weights = np.zeros((2, n, -(-n // 8) * 8), dtype=np.intp)  # column x position
            weights[:, column, column] = 1 << K
            for t in range(K):
                weights[objective, column, self.loci[:, :, t]] = 1 << (K - 1 - t)
            byte_bits = np.unpackbits(np.arange(256, dtype=np.uint8)[:, None], axis=1)
            tables = byte_bits @ weights.reshape(2 * n, -1, 8).transpose(1, 2, 0)
            tables[0] += np.arange(2 * n) << (K + 1)
            self._tables = tables
        return self._tables

    def evaluator(self) -> Callable[[np.ndarray], np.ndarray]:
        """Mean contribution per objective for every row of a (P, n) batch.

        Each row's 2n contributions are read with one take through the byte
        tables, then averaged per objective in position order.
        """
        tables = self._byte_tables()
        values = self.contributions.reshape(-1)

        def objectives(x: np.ndarray) -> np.ndarray:
            flat = _flat_indices(tables, np.packbits(x, axis=1))
            return values.take(flat).reshape(len(x), 2, self.n).mean(axis=2)
        return objectives

    def front(self) -> frozenset:
        """The enumerated Pareto front; later calls return the front kept here."""
        if self._front is None:
            self._front = frozenset(enumerate_pareto_front(self))
        return self._front

    def reference_point(self, rng: Optional[RngStream] = None):
        """A uniformly random member of the front: a stream is required."""
        if rng is None:
            raise ValueError("an RNG stream is required to pick an NK reference point")
        points = sorted(self.front())
        return points[int(rng.integers(len(points)))]


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
    """OneMinMax: (number of 0-bits, number of 1-bits), both maximized.

    Subclasses override ones_table, the objective vectors by number of ones,
    and inherit the evaluator that looks rows up in it.
    """

    n: int

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("n must be at least 1")

    def ones_table(self) -> np.ndarray:
        """Objective vectors indexed by number of ones."""
        ones = np.arange(self.n + 1, dtype=np.float64)
        return np.column_stack((self.n - ones, ones))

    def evaluator(self) -> Callable[[np.ndarray], np.ndarray]:
        """Objective vectors of a (P, n) batch; builds the table, so make one per run.

        The ones are counted in the smallest unsigned type that holds n.
        """
        table, count = self.ones_table(), np.min_scalar_type(self.n)
        return lambda x: table.take(np.add.reduce(x, axis=1, dtype=count), axis=0)

    def front(self) -> frozenset:
        return frozenset((float(i), float(self.n - i)) for i in range(self.n + 1))

    def reference_point(self, rng: Optional[RngStream] = None):
        return (0.0, float(self.n))


@dataclass(frozen=True)
class OneMinMaxStar(OneMinMax):
    """OneMinMax with the all-zeros vector moved from (n, 0) to (-n, 2n)."""

    def ones_table(self) -> np.ndarray:
        table = super().ones_table()
        table[0] = (-self.n, 2 * self.n)
        return table

    def front(self) -> frozenset:
        n = self.n
        points = {(float(i), float(n - i)) for i in range(n)}
        return frozenset(points | {(float(-n), float(2 * n))})

    def reference_point(self, rng: Optional[RngStream] = None):
        return (float(-self.n), float(2 * self.n))


@dataclass(frozen=True)
class OneJumpZeroJump(OneMinMax):
    """OneMinMax with a width-k valley before each extreme, k in [2, n//4]."""

    k: int

    def __post_init__(self):
        # checked here, not through super(): building the problem is on a sweep's set-up path
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if not 2 <= self.k <= self.n // 4:
            raise ValueError(
                f"k must lie in [2, n//4] = [2, {self.n // 4}], got {self.k}")

    def ones_table(self) -> np.ndarray:
        n, k = self.n, self.k
        ones = np.arange(n + 1, dtype=np.float64)
        zeros = n - ones
        f1 = np.where((ones <= n - k) | (ones == n), k + ones, n - ones)
        f2 = np.where((zeros <= n - k) | (zeros == n), k + zeros, n - zeros)
        return np.column_stack((f1, f2))

    def front(self) -> frozenset:
        n, k = self.n, self.k
        points = {(float(i), float(n + 2 * k - i)) for i in range(2 * k, n + 1)}
        return frozenset(points | {(float(k), float(n + k)), (float(n + k), float(k))})

    def reference_point(self, rng: Optional[RngStream] = None):
        return (float(self.n + self.k), float(self.k))


ProblemSpec = Union[OneMinMax, NkLandscape]


def _flat_indices(tables: np.ndarray, packed: np.ndarray) -> np.ndarray:
    """Each packed genome's 2n flat `contributions` indices: the sum of its byte rows."""
    flat = tables[0].take(packed[:, 0], axis=0)
    for c in range(1, len(tables)):
        flat += tables[c].take(packed[:, c], axis=0)
    return flat


def _packed(values: np.ndarray, n: int) -> np.ndarray:
    """np.packbits rows of the n-bit bitstrings whose numeric values these are.

    Position 0 is the most significant bit, so shifted left to a whole
    number of bytes a value's big-endian bytes are its packed genome.
    """
    size = -(-n // 8)
    shifted = (values << (8 * size - n)).astype(">u8")
    return shifted.view(np.uint8).reshape(len(values), 8)[:, 8 - size:]


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


def _undominated_by_pivot(objectives: np.ndarray, values: np.ndarray):
    """The rows that the row with the largest f1 + f2 does not strictly dominate.

    Such a row cannot be on the front. Rows equal to the pivot stay, so the
    skyline still picks the smallest witness among them.
    """
    f1, f2 = objectives[:, 0], objectives[:, 1]
    p1, p2 = objectives[np.argmax(f1 + f2)]
    keep = (f1 > p1) | (f2 > p2) | ((f1 == p1) & (f2 == p2))
    return objectives[keep], values[keep]


def _nk_blocks(problem: NkLandscape):
    """(objectives, values) of all 2^n bitstrings, ENUMERATION_BLOCK at a time.

    A table index is a sum of per-bit terms, and a block's bitstrings share
    their high bits. So the first block's indices are computed once, and
    each later block adds, in place, what its high bits change. The gather
    and the mean are the evaluator's, so every objective keeps its bits.
    """
    n, tables = problem.n, problem._byte_tables()
    values = problem.contributions.reshape(-1)
    size = min(ENUMERATION_BLOCK, 1 << n)
    block = np.arange(size, dtype=np.int64)
    flat = _flat_indices(tables, _packed(block, n))
    # one buffer for every block's gather: a fresh one each block would fragment the heap
    gathered = np.empty((size, 2, n))
    for start in range(0, 1 << n, size):
        if start:  # flat[0] holds the indices of the previous block's first bitstring
            flat += _flat_indices(tables, _packed(np.array([start]), n))[0] - flat[0]
        # every index is in range by construction, and "clip" skips the bounds
        # check, about half the gather's cost
        values.take(flat, out=gathered.reshape(size, -1), mode="clip")
        yield gathered.mean(axis=2), block + start


def _evaluated_blocks(problem: OneMinMax):
    """(objectives, values) of all 2^n bitstrings through the problem's evaluator."""
    n, objectives_of = problem.n, problem.evaluator()
    shifts = np.arange(n - 1, -1, -1)
    for start in range(0, 1 << n, ENUMERATION_BLOCK):
        block = np.arange(start, min(start + ENUMERATION_BLOCK, 1 << n), dtype=np.int64)
        yield objectives_of(((block[:, None] >> shifts) & 1).astype(np.uint8)), block


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
    front, values = np.empty((0, 2)), np.empty(0, dtype=np.int64)
    nk = isinstance(problem, NkLandscape)
    for objectives, block in (_nk_blocks if nk else _evaluated_blocks)(problem):
        objectives = np.concatenate((front, objectives))
        block = np.concatenate((values, block))
        if nk:  # a ones-count block keeps nearly every row, so there it would only cost
            objectives, block = _undominated_by_pivot(objectives, block)
        front, values = _skyline(objectives, block)
    shifts = np.arange(n - 1, -1, -1)
    witnesses = ((values[:, None] >> shifts) & 1).astype(np.uint8)
    witnesses.flags.writeable = False
    return dict(zip(map(tuple, front.tolist()), witnesses))
