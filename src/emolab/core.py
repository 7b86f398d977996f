"""Bitstring and objective-space primitives shared by the benchmarks and algorithms.

Bitstrings are fixed-length numpy uint8 arrays marked read-only after
construction; a population is a (P, n) batch of them. Their text form uses
'0'/'1' characters with position 0 leftmost. All randomness flows through
numpy's PCG64 generator (seeded via SeedSequence), so every seeded
trajectory is reproducible bit for bit and child streams derived from
(master seed, key...) are mutually independent.
"""

from __future__ import annotations

import numpy as np

# A stream is owned by exactly one run at a time; nothing here shares state.
RngStream = np.random.Generator

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


def dominates(a, b) -> bool:
    """True iff a is at least as good everywhere and strictly better somewhere."""
    if len(a) != len(b):
        raise ValueError(f"objective dimension mismatch: {len(a)} vs {len(b)}")
    return all(x >= y for x, y in zip(a, b)) and any(x > y for x, y in zip(a, b))


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


def bits_from_str(text: str) -> np.ndarray:
    """Parse the text form: '0'/'1' characters, position 0 leftmost."""
    if not text or any(c not in "01" for c in text):
        raise ValueError("bitstring text must be nonempty and contain only '0'/'1'")
    bits = (np.frombuffer(text.encode("ascii"), dtype=np.uint8) - ord("0")).astype(np.uint8)
    bits.flags.writeable = False
    return bits
