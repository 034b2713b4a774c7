"""Seeded family of multiply-mod-prime hash functions.

Both table designs draw their probe positions from the same family of
``c`` functions h_i(k) = ((a_i * k + b_i) mod P) mod m, where P is a fixed
prime slightly above 2**32 and only the (a_i, b_i) constants change when a
table is rebuilt.  Constants come from a SplitMix64 stream so that two runs
with the same seed (in any implementation of that generator) use identical
functions.

:func:`hash_array` evaluates the formula over uint64 arrays for both tables'
numpy paths, exactly, since ``a * k + b < 2**64`` for 32-bit ``a``, ``b``, ``k``.
"""

from dataclasses import dataclass

import numpy as np

# Smallest prime above 2**32.
MOD_PRIME = 4294967311

_MASK64 = 0xFFFFFFFFFFFFFFFF


def splitmix64(state: int) -> tuple[int, int]:
    """Advance a SplitMix64 state and return ``(next_state, output)``."""
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


@dataclass(frozen=True)
class HashParams:
    """Constants of one function: an odd 32-bit multiplier and a 32-bit offset."""

    a: int
    b: int


class HashFamily:
    """``count`` independently drawn hash functions over 32-bit words.

    Immutable after construction; safe to share across any number of
    concurrent readers.
    """

    __slots__ = ("seed", "count", "params", "pairs")

    def __init__(self, seed: int, count: int = 4):
        if count < 2:
            raise ValueError(
                f"a family needs at least 2 hash functions, got {count}"
            )
        state = seed & _MASK64
        params = []
        for _ in range(count):
            state, out_a = splitmix64(state)
            state, out_b = splitmix64(state)
            # The multiplier must be odd (hence nonzero); both constants are
            # below the modulus because they fit in 32 bits.
            params.append(HashParams((out_a & 0xFFFFFFFF) | 1, out_b & 0xFFFFFFFF))
        self.seed = seed
        self.count = count
        self.params = tuple(params)
        self.pairs = tuple((p.a, p.b) for p in params)

    def hash(self, i: int, key: int, m: int) -> int:
        """Index of ``key`` under function ``i`` in a table of ``m`` slots."""
        a, b = self.pairs[i]
        return ((a * key + b) % MOD_PRIME) % m

    def __repr__(self) -> str:
        return f"HashFamily(seed={self.seed}, count={self.count})"


def hash_array(keys, a, b, m: int) -> np.ndarray:
    """``((a * k + b) mod P) mod m`` over the uint64 array ``keys``, as indexes.

    ``a`` and ``b`` are ints or uint64 arrays that broadcast against
    ``keys``.  Both remainders are taken as ``x - x // d * d``: numpy divides
    a uint64 array by a scalar with a multiply and a shift (libdivide), while
    ``%`` divides element by element, over twice the time of the whole hash.
    """
    x = keys * a + b
    x -= x // MOD_PRIME * MOD_PRIME
    x -= x // m * m
    return x.view(np.intp)


def generate(seed: int, count: int = 4) -> HashFamily:
    """Draw a fresh family of ``count`` functions from ``seed``."""
    return HashFamily(seed, count)
