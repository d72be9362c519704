"""Deterministic random streams.

Every random draw in the package comes from numpy's Philox bit generator,
a counter-based PRNG whose output is a pure function of its 128-bit key.
Streams are keyed by (seed, stream_index), so independent consumers (one
sampler chain, one dataset draw) get reproducible, non-overlapping streams
on any platform and under any thread count.

`stream` returns one keyed Generator.  `ChainStreams` draws many
consecutive streams (seed, 0), (seed, 1), ... a block of columns at a time,
as the samplers do for their chains: row i of each block continues stream
(seed, i) where its previous block stopped.  It keys no Generator per
row: `chain_normals`, one such block, re-keys one Philox per row, and a
run drawn in several blocks keeps one bare Philox per row between them.
A sampler run draws its chains in blocks of bounded size; a late-start
sweep calls `chain_normals` once per repeat r, with seed seed + r, and
every grid point of that repeat reuses the draw.

The seed rule lives here alone: a seed or stream index is an integer, not a
bool, in [0, 2**64), the width of one Philox key word.  `check_seed`
applies it; `SamplerConfig` and the CLI's --seed call it too, so a value
such as 1.5, True or 2**64 is rejected instead of truncated.
"""

from __future__ import annotations

import numbers
from typing import Iterator, Optional

import numpy as np

from .errors import DomainError


def check_seed(value, name: str = "seed") -> int:
    """value as a Philox key word; DomainError naming `name` otherwise."""
    if not (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and 0 <= value < 2 ** 64):
        raise DomainError(f"{name} must be an integer in [0, 2**64), got {value!r}")
    return int(value)


def _key(seed: int, index: int) -> np.ndarray:
    return np.array([check_seed(seed), check_seed(index, "stream index")],
                    dtype=np.uint64)


def stream(seed: int, index: int = 0) -> np.random.Generator:
    """Return the Generator for stream `index` of the given seed."""
    return np.random.Generator(np.random.Philox(key=_key(seed, index)))


class ChainStreams:
    """Streams (seed, 0), ..., (seed, chains - 1), drawn in column blocks.

    Row i of every `draw` continues stream (seed, i): the blocks of one
    ChainStreams, side by side, equal one `chain_normals` draw of their
    total width, bit for bit.  A lone draw (`last` at the first) re-keys one
    Philox per row.  Otherwise each row keeps a bare Philox from the first
    draw to the last, 385 bytes and 7 us once (a Generator's are 608 bytes
    and 13 us), wrapped in a Generator for 0.5 us per draw, where saving
    and restoring one Philox's state costs 6 us per row per draw.
    """

    def __init__(self, seed: int, chains: int):
        self._seed = check_seed(seed)
        self._chains = chains
        self._rows = None  # each row's Philox, from the first draw to the last
        self._closed = False

    def draw(self, width: int, *, last: bool = False) -> np.ndarray:
        """(chains, width) standard normals, row i the next `width` values
        of stream (seed, i).  A `last` draw closes the streams."""
        if self._closed:
            raise DomainError("ChainStreams drawn after its last draw")
        out = np.empty((self._chains, width))
        if self._rows is None and last:
            gen = np.random.Generator(np.random.Philox(0))
            for row, _ in zip(out, self._keyed(gen.bit_generator)):
                gen.standard_normal(out=row)
        else:
            if self._rows is None:
                self._rows = list(self._keyed())
            for row, bitgen in zip(out, self._rows):
                np.random.Generator(bitgen).standard_normal(out=row)
        if last:
            self._rows, self._closed = None, True
        return out

    def _keyed(self, bitgen: Optional[np.random.Philox] = None
               ) -> Iterator[np.random.Philox]:
        """A Philox(key=(seed, i)) for each row i in turn: `bitgen`, re-keyed
        as each row comes to be drawn, or else a new bare Philox per row."""
        seq = np.random.SeedSequence(0)  # seeds a Philox without OS entropy
        key = [self._seed, 0]
        # counter 0, output buffer empty, as plain ints, which the setter
        # reads faster than uint64 arrays; the setter copies the dict, so
        # rewriting key[1] re-keys the next row
        fresh = {"bit_generator": "Philox",
                 "state": {"counter": (0, 0, 0, 0), "key": key},
                 "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
                 "uinteger": 0}
        for i in range(self._chains):
            key[1] = i
            row = bitgen if bitgen is not None else np.random.Philox(seq)
            row.state = fresh
            yield row


def chain_normals(seed: int, chains: int, per_chain: int) -> np.ndarray:
    """(chains, per_chain) array whose row i is the first `per_chain`
    values of `stream(seed, i).standard_normal(...)`, bit for bit."""
    return ChainStreams(seed, chains).draw(per_chain, last=True)
