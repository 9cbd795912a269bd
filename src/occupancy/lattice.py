"""Bit conventions for the lattice {0,1}^n and the dense-array capacity rule.

States are integer words with site i stored in bit i (LSB), so word 0 is
the empty configuration and word 2^n - 1 is fully occupied.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# bytes of dense arrays one exact computation may hold at once; a single
# 2^n x 2^n float64 array takes 8 * 4^n bytes, so one kernel fits up to n = 14
DENSE_BYTES_BUDGET = 2 << 30

# entries of one row block, for work on lattice-sized tables that would
# otherwise make temporaries of 2^n rows times a further dimension
BLOCK_ENTRIES = 1 << 16


class CapacityError(RuntimeError):
    """Problem too large for dense enumeration."""


def check_bytes(nbytes: int | float, what: str):
    """Raise CapacityError, before anything is allocated, past the budget."""
    if nbytes > DENSE_BYTES_BUDGET:
        raise CapacityError(f"{what} needs {nbytes} bytes, over the dense budget "
                            f"of {DENSE_BYTES_BUDGET} bytes")


def dense_bytes(n: int) -> int:
    """Bytes held by one float64 array of shape (2^n, 2^n)."""
    return 8 << (2 * n)


def check_dense(n: int):
    """The capacity rule for functions holding one state-by-state array."""
    check_bytes(dense_bytes(n), f"n = {n}: 1 dense 2^{n} x 2^{n} array")


@lru_cache(maxsize=32)
def lattice_bits(n: int) -> np.ndarray:
    """(2^n, n) array of state bits as floats; row w is the word w."""
    # the int64 bits and their float copy are held at once while building
    check_bytes(2 * n * (8 << n), f"n = {n}: the lattice table")
    words = np.arange(1 << n, dtype=np.int64)[:, None]
    bits = ((words >> np.arange(n)) & 1).astype(float)
    bits.setflags(write=False)
    return bits


def state_bits(word: int, n: int) -> np.ndarray:
    if not 0 <= word < (1 << n):
        raise ValueError(f"state word {word} out of range for n={n}")
    return ((word >> np.arange(n)) & 1).astype(float)
