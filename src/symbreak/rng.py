"""Deterministic random streams.

Every random draw in the package comes from numpy's Philox bit generator,
a counter-based PRNG whose output is a pure function of its 128-bit key.
Streams are keyed by (seed, stream_index), so independent consumers (one
sampler chain, one dataset draw) get reproducible, non-overlapping streams
on any platform and under any thread count.

`stream` returns one keyed Generator.  `chain_normals` draws the leading
standard normals of many consecutive streams at once, as the samplers do
for their chains: row i is still exactly stream (seed, i), but one Philox
is re-keyed per row instead of building a new Generator per row.  A sampler
run calls it once; a late-start sweep calls it once per repeat r, with seed
seed + r, and every grid point of that repeat reuses the draw.

The seed rule lives here alone: a seed or stream index is an integer, not a
bool, in [0, 2**64), the width of one Philox key word.  `check_seed`
applies it; `SamplerConfig` and the CLI's --seed call it too, so a value
such as 1.5, True or 2**64 is rejected instead of truncated.
"""

from __future__ import annotations

import numbers

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


def chain_normals(seed: int, chains: int, per_chain: int) -> np.ndarray:
    """(chains, per_chain) array whose row i is the first `per_chain`
    values of `stream(seed, i).standard_normal(...)`, bit for bit."""
    key = _key(seed, 0)
    bitgen = np.random.Philox(key=key)
    gen = np.random.Generator(bitgen)
    # the state of a fresh Philox(key=key): counter 0, output buffer empty;
    # the setter copies it, so rewriting key[1] re-keys the next row
    empty = np.zeros(4, dtype=np.uint64)
    state = {"bit_generator": "Philox",
             "state": {"counter": empty, "key": key},
             "buffer": empty, "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    out = np.empty((chains, per_chain))
    for i in range(chains):
        key[1] = i
        bitgen.state = state
        gen.standard_normal(out=out[i])
    return out
