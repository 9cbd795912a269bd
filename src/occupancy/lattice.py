"""Bit conventions for the lattice {0,1}^n and the dense-enumeration cap.

States are integer words with site i stored in bit i (LSB), so word 0 is
the empty configuration and word 2^n - 1 is fully occupied.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

# hard cap on state-space dimension for dense enumeration
STATE_CAP = 20


class CapacityError(RuntimeError):
    """Problem too large for dense enumeration."""


def check_state_cap(n: int, cap: int = STATE_CAP):
    if n > cap:
        raise CapacityError(f"state space 2^{n} exceeds the dense cap 2^{cap}")


@lru_cache(maxsize=32)
def lattice_bits(n: int) -> np.ndarray:
    """(2^n, n) array of state bits as floats; row w is the word w."""
    check_state_cap(n)
    words = np.arange(1 << n, dtype=np.int64)[:, None]
    bits = ((words >> np.arange(n)) & 1).astype(float)
    bits.setflags(write=False)
    return bits


def state_bits(word: int, n: int) -> np.ndarray:
    if not 0 <= word < (1 << n):
        raise ValueError(f"state word {word} out of range for n={n}")
    return ((word >> np.arange(n)) & 1).astype(float)


def bits_to_word(bits) -> int:
    arr = np.asarray(bits)
    return int(np.sum((arr != 0) * (1 << np.arange(len(arr)))))
