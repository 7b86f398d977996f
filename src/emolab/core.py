"""Bitstring and random-stream primitives shared by the benchmarks and algorithms.

Bitstrings are fixed-length numpy uint8 arrays; a population is a (P, n)
batch of them, drawn by random_population. All randomness flows through
numpy's PCG64 generator (seeded via SeedSequence), so every seeded
trajectory is reproducible bit for bit and child streams derived from
(master seed, key...) are mutually independent.
"""

from __future__ import annotations

import numpy as np
from numpy.random import PCG64, Generator, SeedSequence  # at import, not in a run's first draw

_U64_MASK = 0xFFFFFFFFFFFFFFFF


def stream(seed) -> Generator:
    """Create a PCG64 stream; equal seeds yield identical streams."""
    return Generator(PCG64(SeedSequence(seed)))


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
    return int(SeedSequence(entropy).generate_state(1, dtype=np.uint64)[0])


def random_population(size: int, n: int, rng: Generator) -> np.ndarray:
    """Draw a (size, n) batch of bits, each independently 0 or 1 with probability 1/2.

    The rows, and the stream after them, are those of `size` row draws
    rng.integers(0, 2, size=n, dtype=np.uint8). numpy draws each of their
    bits from a fresh 32-bit word per call, one byte per bit, least
    significant byte first, and keeps the byte's top bit. So one draw of
    ceil(n/4) words per row consumes the stream as the row draws do, and bit
    b of a row is bit 7 of byte b of its words, read with shifts so the
    result does not depend on the machine's byte order.
    """
    words = rng.integers(0, 1 << 32, size=(size, -(-n // 4)), dtype=np.uint32)
    top_bits = np.array([7, 15, 23, 31], dtype=np.uint32)
    bits = (words[:, :, None] >> top_bits) & 1
    return bits.astype(np.uint8).reshape(size, -1)[:, :n]


def bitwise_mutate(x: np.ndarray, rate: float, rng: Generator) -> np.ndarray:
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

