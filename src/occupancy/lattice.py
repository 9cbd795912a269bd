"""Bit conventions for the lattice {0,1}^n and the one capacity rule, `check_bytes`.

States are integer words with site i stored in bit i (LSB), so word 0 is
the empty configuration and word 2^n - 1 is fully occupied.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

# bytes of arrays one computation may hold at once; each route counts its
# own arrays against it, before any of them exists
DENSE_BYTES_BUDGET = 2 << 30

# entries of one row block, for work on lattice-sized tables that would
# otherwise make temporaries of 2^n rows times a further dimension
BLOCK_ENTRIES = 1 << 16


class CapacityError(RuntimeError):
    """Problem whose arrays would not fit the byte budget."""


def shown(count: int | float) -> str:
    """A count as capacity errors print it: in full up to 10^15, in %g form past that.

    A float count up to 10^15, such as bytes from t / h, prints as the
    integer above it.
    """
    if count <= 1e15:
        return str(math.ceil(count))
    try:
        return f"{count:g}"
    except OverflowError:  # an int past the float range: read its power of ten off its log
        power = math.log10(count)
        return f"{10 ** (power % 1):g}e+{math.floor(power)}"


def check_bytes(nbytes: int | float, what: str):
    """Raise CapacityError, before anything is allocated, past the budget."""
    if nbytes > DENSE_BYTES_BUDGET:
        raise CapacityError(f"{what} needs {shown(nbytes)} bytes, over the dense budget "
                            f"of {DENSE_BYTES_BUDGET} bytes")


@lru_cache(maxsize=32)
def lattice_bits(n: int) -> np.ndarray:
    """(2^n, n) array of state bits as floats; row w is the word w."""
    # the int64 bits and their float copy are held at once while building
    check_bytes(2 * n * (8 << n), f"n = {n}: the lattice table")
    bits = word_bits(0, 1 << n, n)
    bits.setflags(write=False)
    return bits


def word_bits(start: int, stop: int, n: int) -> np.ndarray:
    """(stop - start, n) array of the bits of state words start..stop-1, as floats."""
    words = np.arange(start, stop, dtype=np.int64)[:, None]
    return ((words >> np.arange(n)) & 1).astype(float)


def state_bits(word: int, n: int) -> np.ndarray:
    if not 0 <= word < (1 << n):
        raise ValueError(f"state word {word} out of range for n={n}")
    return ((word >> np.arange(n)) & 1).astype(float)
