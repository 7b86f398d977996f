"""Bitstring and objective-space primitives shared by the benchmarks and algorithms.

Bitstrings are fixed-length numpy uint8 arrays marked read-only after
construction; the canonical text rendering uses '0'/'1' characters with
position 0 leftmost. All randomness flows through numpy's PCG64 generator
(seeded via SeedSequence), so every seeded trajectory is reproducible bit
for bit and child streams derived from (master seed, key...) are mutually
independent.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

# A stream is owned by exactly one run at a time; nothing here shares state.
RngStream = np.random.Generator

# Objective vectors are plain tuples of floats (m = 2 throughout).
ObjectiveVector = tuple

_U64_MASK = 0xFFFFFFFFFFFFFFFF


def stream(seed) -> RngStream:
    """Create a PCG64 stream; equal seeds yield identical streams."""
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed)))


def child_seed(master_seed: int, *key) -> int:
    """Derive an independent 64-bit seed from a master seed and a key path.

    String key parts are folded to integers so call sites can use readable
    paths such as child_seed(master, "trial", n, variant_index, trial_index).
    Distinct key paths give distinct, statistically independent streams.
    """
    entropy = [int(master_seed) & _U64_MASK]
    for part in key:
        if isinstance(part, str):
            entropy.append(int.from_bytes(part.encode("utf-8"), "little"))
        else:
            entropy.append(int(part) & _U64_MASK)
    return int(np.random.SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


class Dominance(Enum):
    """Outcome of comparing two objective vectors under maximization."""

    DOMINATES = "dominates"
    DOMINATED_BY = "dominated_by"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def dominance(a, b) -> Dominance:
    """Pareto-compare two objective vectors; exactly one relation holds."""
    if len(a) != len(b):
        raise ValueError(f"objective dimension mismatch: {len(a)} vs {len(b)}")
    a_weak = all(x >= y for x, y in zip(a, b))
    b_weak = all(y >= x for x, y in zip(a, b))
    if a_weak and b_weak:
        return Dominance.EQUAL
    if a_weak:
        return Dominance.DOMINATES
    if b_weak:
        return Dominance.DOMINATED_BY
    return Dominance.INCOMPARABLE


def dominates(a, b) -> bool:
    """True iff a is at least as good everywhere and strictly better somewhere."""
    return dominance(a, b) is Dominance.DOMINATES


def euclidean_distance(a, b) -> float:
    if len(a) != len(b):
        raise ValueError(f"objective dimension mismatch: {len(a)} vs {len(b)}")
    return math.dist(a, b)


def random_bitstring(n: int, rng: RngStream) -> np.ndarray:
    """Draw n bits, each independently 0 or 1 with probability 1/2."""
    if n < 1:
        raise ValueError("bitstring length must be at least 1")
    bits = rng.integers(0, 2, size=n, dtype=np.uint8)
    bits.flags.writeable = False
    return bits


def bitwise_mutate(x: np.ndarray, rate: float, rng: RngStream) -> np.ndarray:
    """Flip each bit of x independently with the given probability.

    x is one bitstring or a (P, n) batch of them. One draw of x.shape
    uniforms covers the batch; row-major order makes it consume the stream
    exactly as P single-row calls would. Returns new bits; x is left untouched.
    """
    if not 0.0 <= rate <= 1.0:
        raise ValueError(f"mutation rate must lie in [0, 1], got {rate}")
    flips = rng.random(x.shape) < rate
    child = np.bitwise_xor(x, flips.view(np.uint8))
    child.flags.writeable = False
    return child


def count_ones(x: np.ndarray) -> int:
    return int(np.count_nonzero(x))


def bits_to_str(x: np.ndarray) -> str:
    """Canonical text form: '0'/'1' characters, position 0 leftmost."""
    return "".join("1" if b else "0" for b in x)


def bits_from_str(text: str) -> np.ndarray:
    if not text or any(c not in "01" for c in text):
        raise ValueError("bitstring text must be nonempty and contain only '0'/'1'")
    bits = (np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")).astype(np.uint8)
    bits.flags.writeable = False
    return bits
