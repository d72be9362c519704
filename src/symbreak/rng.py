"""Deterministic random streams.

Every random draw in the package comes from numpy's Philox bit generator,
a counter-based PRNG whose output is a pure function of its 128-bit key.
Streams are keyed by (seed, stream_index), so independent consumers (one
sampler chain, one dataset draw) get reproducible, non-overlapping streams
on any platform and under any thread count.

`stream` returns one keyed Generator.  `chain_normals` draws many
consecutive streams (seed, 0), (seed, 1), ... as the rows of one array,
re-keying one shared Philox per row.  `chain_blocks` draws the same rows a
block of columns at a time: row i of each block continues stream (seed, i)
where the previous block stopped, through one bare Philox kept per row.  A
sampler run that fits its noise budget takes one `chain_normals` draw, and a
longer run draws in blocks of bounded size; a late-start sweep calls
`chain_normals` once per repeat r, with seed seed + r, and every grid point
of that repeat reuses the draw.

The seed rule lives here alone: a seed or stream index is an integer, not a
bool, in [0, 2**64), the width of one Philox key word.  `check_seed`
applies it; `SamplerConfig` and the CLI's --seed call it too, so a value
such as 1.5, True or 2**64 is rejected instead of truncated.
"""

from __future__ import annotations

import numbers
from typing import Iterable, Iterator, Optional

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


def chain_blocks(seed: int, chains: int, widths: Iterable[int]
                 ) -> Iterator[np.ndarray]:
    """A (chains, w) block of standard normals for each w of `widths` in
    turn, row i continuing stream (seed, i) where the previous block
    stopped, so the blocks side by side are one draw, bit for bit.

    Each row keeps a bare Philox, 385 bytes and 7 us to build, wrapped in a
    Generator for 0.5 us per block; the rows are dropped before the last
    block is yielded.  No block is held while the next is drawn.
    """
    seed, widths = check_seed(seed), list(widths)
    if not widths:
        return
    rows = list(_keyed(seed, chains))
    for w in widths[:-1]:
        yield _filled(chains, w, map(np.random.Generator, rows))
    last = _filled(chains, widths[-1], map(np.random.Generator, rows))
    del rows
    yield last


def _filled(chains: int, width: int, gens: Iterable[np.random.Generator]
            ) -> np.ndarray:
    """(chains, width) normals, row i drawn by the i-th of `gens`; apart, so
    that no name in `chain_blocks` holds a block while the next is drawn."""
    out = np.empty((chains, width))
    for row, gen in zip(out, gens):
        gen.standard_normal(out=row)
    return out


def _keyed(seed: int, chains: int, bitgen: Optional[np.random.Philox] = None
           ) -> Iterator[np.random.Philox]:
    """A Philox(key=(seed, i)) for each row i in turn: `bitgen`, re-keyed as
    each row comes to be drawn, or else a new bare Philox per row."""
    seq = np.random.SeedSequence(0)  # seeds a Philox without OS entropy
    key = [seed, 0]
    # counter 0, output buffer empty, as plain ints, which the setter reads
    # faster than uint64 arrays; the setter copies the dict, so rewriting
    # key[1] re-keys the next row
    fresh = {"bit_generator": "Philox",
             "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    for i in range(chains):
        key[1] = i
        row = bitgen if bitgen is not None else np.random.Philox(seq)
        row.state = fresh
        yield row


def chain_normals(seed: int, chains: int, per_chain: int) -> np.ndarray:
    """(chains, per_chain) array whose row i is the first `per_chain`
    values of `stream(seed, i).standard_normal(...)`, bit for bit, drawn by
    one shared Philox re-keyed per row, so no per-row state is kept."""
    gen = np.random.Generator(np.random.Philox(0))
    rekeyed = _keyed(check_seed(seed), chains, gen.bit_generator)
    return _filled(chains, per_chain, (gen for _ in rekeyed))
