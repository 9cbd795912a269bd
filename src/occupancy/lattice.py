"""Bit conventions for the lattice {0,1}^n and the one capacity rule, `check_bytes`.

States are integer words with site i stored in bit i (LSB), so word 0 is
the empty configuration and word 2^n - 1 is fully occupied.  No table of
the whole lattice's bits is kept: routes that sweep the lattice read its
words' bits a row block at a time (`lattice_blocks`).
"""

from __future__ import annotations

import math

import numpy as np

# bytes of arrays one computation may hold at once; each route counts its
# own arrays against it, before any of them exists
DENSE_BYTES_BUDGET = 2 << 30

# entries of one row block, for work on lattice-sized tables that would
# otherwise make temporaries of 2^n rows times a further dimension
BLOCK_ENTRIES = 1 << 16

# bytes `check_bytes` allows beside every count, for what a block constant
# bounds: eight row blocks of BLOCK_ENTRIES floats
BLOCK_BYTES = 8 * 8 * BLOCK_ENTRIES


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
    """Raise CapacityError, before anything is allocated, past the budget.

    `nbytes` lists every array whose size grows with the input (n, steps,
    samples, replicates, grid points); what a block constant bounds, such
    as a row block of BLOCK_ENTRIES entries, numpy's ufunc buffers and its
    bytes within a call, or a lattice table up to `model.LATTICE_SCAN_CAP`
    sites, is covered by BLOCK_BYTES, which is added here and nowhere else.
    """
    nbytes += BLOCK_BYTES
    if nbytes > DENSE_BYTES_BUDGET:
        raise CapacityError(f"{what} needs {shown(nbytes)} bytes, over the dense budget "
                            f"of {DENSE_BYTES_BUDGET} bytes")


def lattice_blocks(n: int, width: int):
    """Yield (rows, bits) over the 2^n state words in row blocks, in word order.

    `rows` is a slice of words and `bits` their (rows, n) bits, as
    `word_bits` gives them; a block holds at most BLOCK_ENTRIES // width
    words (at least one), for work that takes `width` entries a word.
    Every block's bits are written into one buffer, so a block's `bits`
    hold only until the next block is asked for.
    """
    size = 1 << n
    step = min(size, max(1, BLOCK_ENTRIES // max(1, width)))
    buffer = np.empty((step, n))
    for start in range(0, size, step):
        stop = min(start + step, size)
        yield slice(start, stop), word_bits(start, stop, n, buffer[:stop - start])


def word_bits(start: int, stop: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """(stop - start, n) array of the bits of state words start..stop-1, as floats.

    Unpacked from the words' little-endian bytes, into `out` when given,
    so no integer table of the block's size is made beside one of bytes.
    """
    words = np.arange(start, stop, dtype="<i8").view(np.uint8).reshape(-1, 8)
    bits = np.empty((words.shape[0], n)) if out is None else out
    bits[...] = np.unpackbits(words, axis=1, count=n, bitorder="little")
    return bits


def state_bits(word: int, n: int) -> np.ndarray:
    """(n,) bits of the state word, as floats; read off the int's bytes, at any n."""
    if not 0 <= word < (1 << n):
        raise ValueError(f"state word {word} out of range for n={n}")
    words = np.frombuffer(word.to_bytes(-(-n // 8), "little"), np.uint8)
    return np.unpackbits(words, count=n, bitorder="little").astype(float)
