"""Counter-addressed uniform random streams.

Every uniform used anywhere in the package is a pure function of a small
integer address, never of execution order.  Streams are built on Philox4x64,
a counter-based generator with the 256-bit counter ``[0, block, lane,
domain]``, word 0 free-running for draws within a stream, and the key
``[seed, salt]``: distinct (domain, lane, block) triples give independent
streams for the same seed, and any prefix of a stream can be re-drawn.

The k-th word of a stream is ``raw_k >> 11``, raw_k being the k-th 64-bit
output word of the addressed Philox, which increments the counter before
each block of four words; its uniform is ``word * 2**-53``, the double
numpy's ``Generator.random`` makes from raw_k, bit for bit.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field

import numpy as np

# arbitrary salt; fixed forever so that seeds alone determine streams.  It is
# the float64 rounding of 0x9E3779B97F4A7C15, which is what the key carried
# while it was built from a list of Python ints
_KEY_SALT = 0x9E3779B97F4A8000

# domains keep modules off each other's streams even at equal (lane, block)
DOMAIN_SIMULATION = 0
DOMAIN_ASSUMPTIONS = 1

# replicates per stream block in UniformArray; an engine constant, not a
# tuning knob: changing it changes which uniform any replicate sees
REPLICATE_CHUNK = 1024


def check_seed(seed: int) -> int:
    """The seed as an int; seeds are the 64-bit words, [0, 2^64)."""
    seed = operator.index(seed)
    if not 0 <= seed < 1 << 64:
        raise ValueError(f"seed must be in [0, 2^64), got {seed}")
    return seed


# a Philox's buffer of unread words, empty at each address
_EMPTY_BUFFER = np.zeros(4, dtype=np.uint64)


def _stream_key(seed: int) -> np.ndarray:
    return np.array([check_seed(seed), _KEY_SALT], dtype=np.uint64)


def _words(bitgen: np.random.Philox, key: np.ndarray, domain: int, lane: int,
           block: int, count: int) -> np.ndarray:
    """First `count` words of the stream at (domain, lane, block), from a thread's own `bitgen`.

    Setting a Philox's state costs a third of building one.
    """
    bitgen.state = {"bit_generator": "Philox",
                    "state": {"counter": np.array([0, block, lane, domain], dtype=np.uint64),
                              "key": key},
                    "buffer": _EMPTY_BUFFER, "buffer_pos": 4,
                    "has_uint32": 0, "uinteger": 0}
    words = bitgen.random_raw(count)
    words >>= 11
    return words


def _uniforms(words: np.ndarray) -> np.ndarray:
    """The uniforms `words * 2**-53` of 1-d words, cast in their own buffer.

    A draw so holds one array, as Generator.random does: a 1-d array cast
    onto a same-strided view of itself goes element by element, where a
    ufunc with `out=` that view, or a 2-d array, would be copied first.
    """
    out = words.view(np.float64)
    out[...] = words
    out *= 2.0 ** -53
    return out


def new_bit_generator() -> np.random.Philox:
    """A Philox to draw with; each draw sets its key and counter."""
    return np.random.Philox(0)


def uniform_stream(seed: int, domain: int, lane: int, block: int, count: int) -> np.ndarray:
    """First `count` doubles of the stream addressed by (seed, domain, lane, block)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    return _uniforms(_words(new_bit_generator(), _stream_key(seed), domain, lane, block, count))


def assumption_uniforms(seed: int, lane: int, count: int) -> np.ndarray:
    """Uniforms for hypothesis sampling; one lane per hypothesis index."""
    return uniform_stream(seed, DOMAIN_ASSUMPTIONS, lane, 0, count)


@dataclass(frozen=True)
class UniformArray:
    """Virtual array U[replicate, step, site] of iid uniforms, a function of those and the seed.

    Chunk c of REPLICATE_CHUNK replicates at step t is one contiguous
    stream, row-major over (row within chunk, site), in any worker's order.
    """

    seed: int
    n_sites: int
    _key: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_key", _stream_key(self.seed))

    def chunk_values(self, step: int, chunk_index: int, rows: int = REPLICATE_CHUNK, *,
                     words: bool = False, bitgen: np.random.Philox | None = None) -> np.ndarray:
        """Uniforms (or their words) for the first `rows` replicates of one chunk at one step.

        A chunk job passes one `bitgen` from `new_bit_generator()` at every step.
        """
        if not 1 <= rows <= REPLICATE_CHUNK:
            raise ValueError("rows must be in 1..REPLICATE_CHUNK")
        if bitgen is None:
            bitgen = new_bit_generator()
        values = _words(bitgen, self._key, DOMAIN_SIMULATION, step, chunk_index,
                        rows * self.n_sites)
        if not words:
            values = _uniforms(values)
        return values.reshape(rows, self.n_sites)

    def replicate_values(self, replicate: int, step: int) -> np.ndarray:
        """All site uniforms for one replicate at one step."""
        row = replicate % REPLICATE_CHUNK
        chunk = self.chunk_values(step, replicate // REPLICATE_CHUNK, rows=row + 1)
        return chunk[row]

    def value(self, replicate: int, step: int, site: int) -> float:
        if not 0 <= site < self.n_sites:
            raise ValueError("site out of range")
        return float(self.replicate_values(replicate, step)[site])
