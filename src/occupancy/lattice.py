"""Bit conventions for the lattice {0,1}^n and the one capacity rule, `check_plan`.

States are integer words with site i in bit i (LSB): word 0 is empty, 2^n - 1
full.  Routes that sweep the lattice read its words' bits a row block at a
time (`lattice_blocks`), never a table of the whole lattice; every row block
of the package holds `block_rows(width)` rows of `width` entries.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

# bytes of arrays one computation may hold at once, and the work it may do,
# in flops of a matrix product: about 8 s with one BLAS thread on the
# 2-vCPU machine the README's timings come from
DENSE_BYTES_BUDGET = 2 << 30
WORK_BUDGET = 3 * 10 ** 11
# the work of one numpy call whatever its size, and of each entry an
# elementwise pass reads
CALL_WORK, ENTRY_WORK = 1 << 15, 1 << 5

# entries of one row block, for work on lattice-sized tables that would
# otherwise make temporaries of 2^n rows times a further dimension
BLOCK_ENTRIES = 1 << 16

# bytes `check_plan` allows beside every plan, for what a block constant
# bounds: eight row blocks of BLOCK_ENTRIES floats
BLOCK_BYTES = 8 * 8 * BLOCK_ENTRIES


class CapacityError(RuntimeError):
    """Problem whose arrays would not fit the byte budget, or whose work the work budget."""


class Plan(NamedTuple):
    """What a computation holds at its peak and the work it does, known before it starts.

    `nbytes` lists every array whose size grows with the input (n, steps,
    samples, replicates, grid points); what a block constant bounds, such
    as a row block of BLOCK_ENTRIES entries, numpy's buffers and its bytes
    within a call, or a lattice table up to `model.LATTICE_SCAN_CAP` sites,
    is covered by BLOCK_BYTES, which only `check_plan` adds.  `work` is
    steps times the work of a step; `what` names them for the error line.
    """

    what: str
    nbytes: float
    work: float = 0.0

    def then(self, other: Plan, beside: bool = False) -> Plan:
        """This, then `other` once these arrays are freed, or `beside` them; named as the nearer."""
        nearer = max(self, other, key=lambda plan: max(plan.nbytes / DENSE_BYTES_BUDGET,
                                                       plan.work / WORK_BUDGET))
        nbytes = self.nbytes + other.nbytes if beside else max(self.nbytes, other.nbytes)
        return Plan(nearer.what, nbytes, self.work + other.work)


def shown(count: int | float) -> str:
    """A count as error lines print it: up to 10^15 in full (a float rounded up), past it as %g."""
    if count <= 1e15:
        return str(math.ceil(count))
    try:
        return f"{count:g}"
    except OverflowError:  # an int past the float range: read its power of ten off its log
        power = math.log10(count)
        return f"{10 ** (power % 1):g}e+{math.floor(power)}"


def check_plan(plan: Plan):
    """Raise CapacityError, before anything is allocated, past either budget."""
    nbytes = plan.nbytes + BLOCK_BYTES
    if nbytes > DENSE_BYTES_BUDGET or plan.work > WORK_BUDGET:
        budget = (f"the dense budget of {DENSE_BYTES_BUDGET} bytes"
                  if nbytes > DENSE_BYTES_BUDGET else f"the work budget of {WORK_BUDGET}")
        raise CapacityError(f"{plan.what} needs {shown(nbytes)} bytes and {shown(plan.work)} "
                            f"work, over {budget}")


def fits(plan: Plan) -> bool:
    """Whether `plan` passes `check_plan`, for a route that picks between plans."""
    try:
        check_plan(plan)
    except CapacityError:
        return False
    return True


def block_rows(width: int) -> int:
    """Rows of a row block of `width` entries a row: BLOCK_ENTRIES // width, at least one."""
    return max(1, BLOCK_ENTRIES // max(1, width))


def row_blocks(rows: int, width: int):
    """Yield the slices of `rows` rows in row blocks of `block_rows(width)` rows, in order."""
    step = block_rows(width)
    for start in range(0, rows, step):
        yield slice(start, min(start + step, rows))


def block_count(rows: int, width: int) -> int:
    """How many slices `row_blocks(rows, width)` yields, counted without listing them."""
    return -(-rows // block_rows(width))


def lattice_blocks(n: int, width: int):
    """Yield (rows, bits) over the 2^n state words in `row_blocks`, in word order.

    `rows` is a slice of words and `bits` their (rows, n) bits, as `word_bits`
    gives them, written into one buffer that the next block overwrites.
    """
    buffer = np.empty((min(1 << n, block_rows(width)), n))
    for rows in row_blocks(1 << n, width):
        yield rows, word_bits(rows.start, rows.stop, n, buffer[:rows.stop - rows.start])


def sweep_work(n: int, width: int, calls: int) -> int:
    """Work of a sweep of `lattice_blocks(n, width)`: `width` entries a state, `calls` a block.

    An exact int, so that a route may weigh a sweep at any n, past the float range too.
    """
    return ENTRY_WORK * (width << n) + CALL_WORK * calls * block_count(1 << n, width)


def popcount(x: np.ndarray, bits: int) -> np.ndarray:
    """Number of set bits among the low `bits` bits of each word of `x`."""
    count = np.zeros_like(x)
    for i in range(bits):
        count += (x >> i) & 1
    return count


def bit_reverse(x: np.ndarray, bits: int) -> np.ndarray:
    """Each word of `x` with its low `bits` bits in reverse order."""
    out = np.zeros_like(x)
    for i in range(bits):
        out |= ((x >> i) & 1) << (bits - 1 - i)
    return out


def masks_by_weight(n: int):
    """Every site mask by popcount then value, the empty one first, and its popcount."""
    masks = np.arange(1 << n)
    weight = popcount(masks, n)
    order = np.argsort(weight, kind="stable")
    return order, weight[order]


def weight_count(n: int, r: int) -> int:
    """Number of nonempty site masks of popcount at most r."""
    return sum(math.comb(n, j) for j in range(1, min(r, n) + 1))


def word_bits(start: int, stop: int, n: int, out: np.ndarray | None = None) -> np.ndarray:
    """(stop - start, n) bits of state words start..stop-1, as floats, into `out` when given.

    Unpacked from the words' little-endian bytes: no integer table of the block's size.
    """
    words = np.arange(start, stop, dtype="<i8").view(np.uint8).reshape(-1, 8)
    bits = np.empty((words.shape[0], n)) if out is None else out
    bits[...] = np.unpackbits(words, axis=1, count=n, bitorder="little")
    return bits


def check_word(word: int, n: int):
    """Raise ValueError unless `word` is a state word of n sites."""
    if not 0 <= word < (1 << n):
        raise ValueError(f"state word {word} out of range for n={n}")


def state_bits(word: int, n: int) -> np.ndarray:
    """(n,) bits of the state word, as floats; read off the int's bytes, at any n."""
    check_word(word, n)
    words = np.frombuffer(word.to_bytes(-(-n // 8), "little"), np.uint8)
    return np.unpackbits(words, count=n, bitorder="little").astype(float)
