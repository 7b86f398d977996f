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
front vector to its numerically smallest witness. One loop merges blocks
of {0,1}^n, each as rows and their objectives, into a running skyline. A
ones-count block is a range of rows through the evaluator. An NK block
sums its rows' objectives cheaply, as subset sums of each table's
multilinear coefficients, and keeps only the rows that those sums, within
a bound on their rounding, leave a chance of reaching the front.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .core import stream

ENUMERATION_LIMIT = 25
# Rows per enumeration block. Of 2^12..2^15 it measured fastest for NK at
# n=14 and n=16; larger blocks ran n=20 up to 1.3 times faster, but their
# subset-matrix product is large enough for OpenBLAS to split over threads,
# which made n=14 eight times slower on a busy 2-core host. The ones-count
# problems showed no clear best. A power of two, so that the bitstrings of a
# block share their high bits.
ENUMERATION_BLOCK = 1 << 13


@dataclass(eq=False)
class NkLandscape:
    """A bi-objective NK landscape: per-objective loci and contribution tables.

    For objective j and position i, loci[j, i] lists the K positions (all
    distinct and different from i) whose bits join bit i in the contribution
    lookup, and contributions[j, i] is the table of 2^(K+1) values in [0, 1).
    The table index places the position's own bit in the highest bit,
    followed by the loci bits in listed order. A landscape is a pure
    function of (n, K, seed); generate_nk_instance builds it, and building
    one checks the arrays. Column c = j*n + i's table starts at _offsets[c]
    in contributions.reshape(-1); row p of the (n, 2n) float64 _weights is
    what bit p adds to each index, whose sums are integers below 2^53: exact.
    """

    n: int
    K: int
    seed: int
    loci: np.ndarray          # shape (2, n, K), int
    contributions: np.ndarray  # shape (2, n, 2**(K+1)), float64 in [0, 1)
    # the enumerated front, kept by the first front() call on this landscape
    _front: Optional[frozenset] = field(default=None, init=False, repr=False)
    _offsets: np.ndarray = field(init=False, repr=False)
    _weights: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        n, K, loci, table = self.n, self.K, self.loci, self.contributions
        column = np.arange(n)
        # NaN and the infinities fail the range test of the contributions
        if not (0 <= K < n and loci.shape == (2, n, K) and table.shape == (2, n, 2 << K)
                and np.issubdtype(loci.dtype, np.integer)
                and np.all((loci >= 0) & (loci < n) & (loci != column[:, None]))
                and np.all(np.diff(np.sort(loci), axis=2)) and np.all((table >= 0) & (table < 1))):
            raise ValueError("an NK landscape needs 0 <= K < n, (2, n, K) integer loci distinct in "
                             "[0, n) and from their position, (2, n, 2^(K+1)) values in [0, 1)")
        # 2^K for the column's own bit and 2^(K-1-t) for its t-th locus
        weights = np.zeros((n, 2, n))  # position x objective x column
        weights[column, :, column] = 1 << K
        for t in range(K):
            weights[loci[:, :, t], np.arange(2)[:, None], column] = 1 << (K - 1 - t)
        self._weights = weights.reshape(n, 2 * n)
        self._offsets = np.arange(2 * n, dtype=np.intp) << (K + 1)

    def evaluator(self) -> Callable[[np.ndarray], np.ndarray]:
        """Mean contribution per objective for every row of a (P, n) batch.

        A row's flat indices are its product with the weights plus the offsets;
        one take reads its contributions, and each objective is averaged in position order.
        """
        weights, offsets, values = self._weights, self._offsets, self.contributions.reshape(-1)

        def objectives(x: np.ndarray) -> np.ndarray:
            flat = (x @ weights).astype(np.intp)
            flat += offsets
            sums = values.take(flat).reshape(len(x), 2, self.n).sum(axis=2)
            sums /= self.n  # np.mean's reduction and division, without its overhead
            return sums
        return objectives

    def front(self) -> frozenset:
        """The enumerated Pareto front; later calls return the front kept here."""
        if self._front is None:
            self._front = frozenset(enumerate_pareto_front(self))
        return self._front

    def reference_point(self, rng: Optional[np.random.Generator] = None):
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
    if not 0 <= K < n:
        raise ValueError(f"K must satisfy 0 <= K < n, got K={K}, n={n}")
    rng = stream(seed)
    loci = np.zeros((2, n, K), dtype=np.int64)
    for j in range(2):
        for i in range(n):
            # draws among 0..n-2 shifted past i: the same stream and loci as
            # choosing from np.delete(np.arange(n), i)
            draws = rng.choice(n - 1, K, replace=False)
            loci[j, i] = draws + (draws >= i)
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

    def reference_point(self, rng: Optional[np.random.Generator] = None):
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

    def reference_point(self, rng: Optional[np.random.Generator] = None):
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

    def reference_point(self, rng: Optional[np.random.Generator] = None):
        return (float(self.n + self.k), float(self.k))


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


def _bits(values: np.ndarray, n: int) -> np.ndarray:
    """The (len(values), n) uint8 bit rows of n-bit values, position 0 the most significant."""
    return ((values[:, None] >> np.arange(n - 1, -1, -1)) & 1).astype(np.uint8)


# A block's subset sums take their lowest bits from one product with the 0/1
# subset matrix and every other bit from one in-place add; of 3 to 8 bits, 4 to
# 6 measured fastest at 2^13-row blocks.
_PRODUCT_BITS = 5


def _nk_sums(problem: NkLandscape):
    """(sums, start) for all 2^n bitstrings, ENUMERATION_BLOCK at a time: cheap objective sums.

    sums[j, r] is bitstring start + r's objective j summed over positions,
    not divided by n, within _nk_margin of n times the evaluator's mean. A
    block's bitstrings share their high bits, so within it each column's
    table is a function of the column's low positions alone. A Moebius
    transform over those table bits, done once, writes it as multilinear
    coefficients: an entry is the sum of the coefficients of the subsets of
    its low bits that are set. A block takes from every column the
    coefficients at its high bits, indexed as the evaluator indexes, and bins
    them by the positions of their subsets, both objectives at once. A row's
    sum is then the subset sum of the bins over the low bits.
    """
    n, K = problem.n, problem.K
    size = min(ENUMERATION_BLOCK, 1 << n)
    low_bits = size.bit_length() - 1
    # table bit q of column j*n + i reads position i for q = K and locus K-1-q
    # below it; shift is that position's bit in a bitstring's value
    own = np.broadcast_to(np.arange(n)[:, None], (2, n, 1))
    shift = n - 1 - np.concatenate((problem.loci[:, :, ::-1], own), axis=2).reshape(2 * n, K + 1)
    low = shift < low_bits
    coefficients = problem.contributions.reshape(2 * n, -1).copy()
    # every column's coefficient at a block's high bits: its offset from them, and its bin
    column, within = np.arange(2 * n), np.zeros(2 * n, dtype=np.intp)
    bins = (column >= n) * size
    for q in range(K + 1):
        view = coefficients.reshape(2 * n, -1, 2, 1 << q)
        np.subtract(view[:, :, 1], view[:, :, 0], out=view[:, :, 1], where=low[:, q, None, None])
        more = low[column, q]
        bins = np.concatenate((bins, bins[more] | 1 << shift[column[more], q]))
        within = np.concatenate((within, within[more] | 1 << q))
        column = np.concatenate((column, column[more]))
    bits = min(_PRODUCT_BITS, low_bits)
    subsets = np.arange(1 << bits)
    zeta = (subsets[:, None] & subsets == subsets[:, None]).astype(float)  # [s, r]: s within r
    for start in range(0, 1 << n, size):
        base = problem._offsets + (_bits(np.array([start]), n) @ problem._weights).astype(np.intp)[0]
        binned = np.bincount(bins, coefficients.take(base[column] + within), minlength=2 * size)
        sums = binned.reshape(-1, 1 << bits) @ zeta
        for k in range(bits, low_bits):
            view = sums.reshape(2, -1, 2, 1 << k)
            view[:, :, 1] += view[:, :, 0]
        yield sums.reshape(2, size), start


def _nk_margin(problem: NkLandscape) -> float:
    """Twice a bound on how far a sum from _nk_sums lies from n times the evaluator's mean.

    A column with l positions among a block's low bits adds to a row's sum
    signed table entries in [0, 1), at most 3^l of them counted with their
    repeats across coefficients, through at most K + 1 rounded additions
    per coefficient and fewer than the m coefficients a block takes for the
    objective. Adding an exact zero does not round, so the 0/1 product's
    terms and order change nothing. Higham's bound for a sum in any order
    (Accuracy and Stability of Numerical Algorithms, section 4.2) puts it
    within gamma_(m+K) times the number of entries of the exact sum, where
    gamma_k = k u / (1 - k u) < 2 k u for the unit roundoff u = 2^-53. The
    evaluator's mean, times n, is within n gamma_n of the exact sum, and the
    filter's threshold n * p - margin rounds twice, by at most u n each.
    """
    n, K = problem.n, problem.K
    low_bits = min(ENUMERATION_BLOCK, 1 << n).bit_length() - 1
    low = np.count_nonzero(problem._weights[n - low_bits:], axis=0).reshape(2, n)
    terms, entries = (2 ** low).sum(axis=1).max(), (3.0 ** low).sum(axis=1).max()
    return 2 * 2 * 2.0 ** -53 * ((int(terms) + K) * entries + n * n + n)


def _nk_blocks(problem: NkLandscape):
    """(objectives, rows) per block of _nk_sums: the rows it leaves a chance of reaching the front.

    The pivot is the exact vector with the largest f1 + f2 among every row
    evaluated so far, the block's cheaply best row included; it is always on
    the running front. Only rows whose cheap f1 or f2 sum comes within the
    margin of n times the pivot's get their exact objectives, with the
    evaluator's bits (0.5-2.5% of the rows for K = 3 at n = 16 to 20); every
    other row is strictly below the pivot in both objectives, so it cannot
    be on the front.
    """
    n, objectives_of, margin = problem.n, problem.evaluator(), _nk_margin(problem)
    pivot, objectives = np.empty((0, 2)), np.empty((0, 2))
    for (s1, s2), start in _nk_sums(problem):
        best = objectives_of(_bits(np.array([start + np.argmax(s1 + s2)]), n))
        pivots = np.concatenate((pivot, objectives, best))
        pivot = pivots[[np.argmax(pivots[:, 0] + pivots[:, 1])]]
        p1, p2 = pivot[0]
        rows = np.flatnonzero((s1 >= n * p1 - margin) | (s2 >= n * p2 - margin)) + start
        objectives = objectives_of(_bits(rows, n))
        yield objectives, rows


def enumerate_pareto_front(problem) -> dict:
    """Pareto front by brute-force evaluation of all 2^n bitstrings.

    Independent of the closed-form construction; guarded at n <= 25.
    Bitstrings come in blocks of ENUMERATION_BLOCK, in increasing numeric
    order, as (objectives, rows), and one loop merges each block into a
    running skyline, so memory stays bounded by the block size; an NK block
    holds only the rows that _nk_blocks' filter keeps. The result maps each
    front vector to its witness, the numerically smallest bitstring
    (read-only) that evaluates to it.
    """
    n = problem.n
    if n > ENUMERATION_LIMIT:
        raise ValueError(f"enumeration is limited to n <= {ENUMERATION_LIMIT}, got n={n}")
    if isinstance(problem, NkLandscape):
        blocks = _nk_blocks(problem)
    else:  # a ones-count block keeps nearly every row, so no prefilter
        size, objectives_of = min(ENUMERATION_BLOCK, 1 << n), problem.evaluator()
        ranges = (np.arange(start, start + size) for start in range(0, 1 << n, size))
        blocks = ((objectives_of(_bits(rows, n)), rows) for rows in ranges)
    front, values = np.empty((0, 2)), np.empty(0, dtype=np.int64)
    for objectives, rows in blocks:
        front, values = _skyline(np.concatenate((front, objectives)), np.concatenate((values, rows)))
    witnesses = _bits(values, n)
    witnesses.flags.writeable = False
    return dict(zip(map(tuple, front.tolist()), witnesses))
