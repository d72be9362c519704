"""Deterministic random streams.

Every random draw in the package comes from numpy's Philox bit generator,
a counter-based PRNG whose output is a pure function of its 128-bit key.
Streams are keyed by (seed, stream_index), so independent consumers (one
sampler chain, one dataset draw) get reproducible, non-overlapping streams
on any platform and under any thread count.

`stream` returns one keyed Generator.  `chain_normals` draws many
consecutive streams (seed, 0), (seed, 1), ... as the rows of one array.  A
draw of at most 4 columns fits in each row's first Philox output block, so
it computes that block for every row at once with numpy integer ops and
maps its words through numpy's own ziggurat fast path, with tables read
back from numpy once per process; the rows that leave the fast path, and
every wider draw, re-key one shared Philox per row.  `chain_blocks` draws
the same rows a block of columns at a time: row i of each block continues
stream (seed, i) where the previous block stopped, through one bare Philox
kept per row.  A sampler run that fits its noise budget takes one
`chain_normals` draw, and a longer run draws in blocks of bounded size; a
late-start sweep calls `chain_normals` once per repeat r, with seed
seed + r, and every grid point of that repeat reuses the draw.

The seed rule lives here alone: a seed or stream index is a count (see
`errors.check_count`) below 2**64, the width of one Philox key word.
`check_seed` applies it; `SamplerConfig` and the CLI's --seed call it too,
so a value such as 1.5, True or 2**64 is rejected instead of truncated.
"""

from __future__ import annotations

import functools
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .errors import DomainError, check_count


def check_seed(value, name: str = "seed") -> int:
    """value as a Philox key word; DomainError naming `name` otherwise."""
    try:
        return check_count(value, name, 0, 2 ** 64 - 1)
    except DomainError:
        raise DomainError(f"{name} must be an integer in [0, 2**64), got "
                          f"{value!r}", name=name) from None


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
    seed, chains = check_seed(seed), check_count(chains, "chains", 0)
    widths = [check_count(w, f"widths[{j}]", 0) for j, w in enumerate(widths)]
    if not widths:
        return
    rows = list(_keyed(seed, range(chains)))
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


def _keyed(seed: int, rows: Iterable[int],
           bitgen: Optional[np.random.Philox] = None
           ) -> Iterator[np.random.Philox]:
    """A Philox(key=(seed, i)) for each i of `rows` in turn: `bitgen`,
    re-keyed as each row comes to be drawn, or else a new bare Philox."""
    seq = np.random.SeedSequence(0)  # seeds a Philox without OS entropy
    key = [seed, 0]
    # counter 0, output buffer empty, as plain ints, which the setter reads
    # faster than uint64 arrays; the setter copies the dict, so rewriting
    # key[1] re-keys the next row
    fresh = {"bit_generator": "Philox",
             "state": {"counter": (0, 0, 0, 0), "key": key},
             "buffer": (0, 0, 0, 0), "buffer_pos": 4, "has_uint32": 0,
             "uinteger": 0}
    for i in rows:
        key[1] = i
        row = bitgen if bitgen is not None else np.random.Philox(seq)
        row.state = fresh
        yield row


def chain_normals(seed: int, chains: int, per_chain: int) -> np.ndarray:
    """(chains, per_chain) array whose row i is the first `per_chain`
    values of `stream(seed, i).standard_normal(...)`, bit for bit, with no
    per-row state kept.

    A draw of at most 4 columns (the narrow draw) takes each row's first
    Philox output block, computed for `_ROWS` rows at a time by
    `_philox_first_block`, and maps each word through numpy's ziggurat fast
    path with the tables of `_ziggurat`.  A row with a word off that path,
    1 in 47 at 1 column, 1 in 24 at 2 and 1 in 12 at 4, is redrawn as a
    wider draw is drawn, through one shared Philox re-keyed per row.  Which
    way a draw goes depends on its width alone.
    """
    seed, chains = check_seed(seed), check_count(chains, "chains", 0)
    per_chain = check_count(per_chain, "per_chain", 0)
    tables = _ziggurat() if per_chain <= _WORDS else None
    if tables is None:
        return _redrawn(seed, range(chains), per_chain)
    out, missed = _narrow(seed, chains, per_chain, *tables)
    out[missed] = _redrawn(seed, missed.tolist(), per_chain)
    return out


def _redrawn(seed: int, rows: Sequence[int], per_chain: int) -> np.ndarray:
    """(len(rows), per_chain) normals, row j the start of stream
    (seed, rows[j]), drawn by one shared Philox re-keyed per row."""
    gen = np.random.Generator(np.random.Philox(0))
    rekeyed = _keyed(seed, rows, gen.bit_generator)
    return _filled(len(rows), per_chain, (gen for _ in rekeyed))


# Philox4x64-10 (Salmon et al., 2011), as numpy's Philox computes it: the
# multipliers, the key increments, and the words of one output block
_MUL = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_BUMP = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_WORDS = 4
_ROWS = 2048  # rows per vectorized pass, so its temporaries stay bounded
_LOW = 0xFFFFFFFF
_RABS = (1 << 52) - 1


def _mulhilo(m: int, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of m * b, from 32-bit halves."""
    bl, bh = b & _LOW, b >> 32
    t = bl * (m & _LOW)
    u = bh * (m & _LOW) + (t >> 32)
    w = bl * (m >> 32) + (u & _LOW)
    return bh * (m >> 32) + (u >> 32) + (w >> 32), b * np.uint64(m)


def _philox_first_block(seed: int, rows: np.ndarray) -> list[np.ndarray]:
    """The four words Philox(key=(seed, i)) first outputs, at counter
    (1, 0, 0, 0), for each i of `rows`; a word still constant across the
    rows is a 1-element array, which broadcasts."""
    k0, k1 = np.array([seed], dtype=np.uint64), rows.astype(np.uint64)
    c = [np.array([v], dtype=np.uint64) for v in (1, 0, 0, 0)]
    for r in range(10):
        if r:
            k0, k1 = k0 + np.uint64(_BUMP[0]), k1 + np.uint64(_BUMP[1])
        hi0, lo0 = _mulhilo(_MUL[0], c[0])
        hi1, lo1 = _mulhilo(_MUL[1], c[2])
        c = [hi1 ^ c[1] ^ k0, lo1, hi0 ^ c[3] ^ k1, lo0]
    return c


def _normals(words: np.ndarray, wi: np.ndarray, bound: np.ndarray
             ) -> tuple[np.ndarray, np.ndarray]:
    """numpy's ziggurat fast path on each 64-bit word: strip `idx` from
    bits 0-7, the sign from bit 8 and `rabs` from bits 9-60, giving
    +-rabs * wi[idx]; and whether the word is known to take that path."""
    idx, rabs = words & 0xFF, (words >> 9) & _RABS
    x = rabs.astype(np.float64) * wi[idx]
    x.view(np.uint64)[...] ^= ((words >> 8) & 1) << 63
    return x, rabs < bound[idx]


def _narrow(seed: int, chains: int, per_chain: int, wi: np.ndarray,
            bound: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(chains, per_chain) normals from each row's first Philox block, and
    the rows whose words do not all take the ziggurat fast path; those rows
    of the array are left unset."""
    out, missed = np.empty((chains, per_chain)), [np.zeros(0, dtype=np.intp)]
    for start in range(0, chains, _ROWS):
        rows = np.arange(start, min(start + _ROWS, chains))
        words = np.stack(_philox_first_block(seed, rows), axis=1)
        x, fast = _normals(words[:, :per_chain], wi, bound)
        out[start:start + len(rows)] = x
        missed.append(rows[~fast.all(axis=1)])
    return out, np.concatenate(missed)


def _fast(gen: np.random.Generator, words: Sequence[int]
          ) -> Optional[np.ndarray]:
    """gen's standard_normal of up to 4 words put in its Philox's output
    buffer, if each word took the fast path, which ends with the buffer
    read just that far and the counter unchanged (a word off the path
    reads more words, and past the fourth a new block); else None."""
    gen.bit_generator.state = {
        "bit_generator": "Philox", "state": {"counter": (0,) * 4, "key": (0, 0)},
        "buffer": (*words, *(0,) * (_WORDS - len(words))), "buffer_pos": 0,
        "has_uint32": 0, "uinteger": 0}
    x = gen.standard_normal(len(words))
    state = gen.bit_generator.state
    fast = state["buffer_pos"] == len(words) and not state["state"]["counter"].any()
    return x if fast else None


def _read_widths(gen: np.random.Generator) -> Optional[np.ndarray]:
    """numpy's ziggurat strip widths wi[2:], read through the fast path:
    word (1 << 9) | idx, a positive `rabs` of 1 in strip idx, returns
    wi[idx] exactly; wi[0] and wi[1] are left 0, unread."""
    wi = np.zeros(256)
    for start in range(2, 256, _WORDS):
        x = _fast(gen, [(1 << 9) | idx
                        for idx in range(start, min(start + _WORDS, 256))])
        if x is None:
            return None
        wi[start:start + len(x)] = x
    return wi


@functools.cache
def _ziggurat() -> Optional[tuple[np.ndarray, np.ndarray]]:
    """(wi, bound): numpy's ziggurat strip widths and, per strip, a bound
    at or below numpy's accept bound ki, so that `rabs < bound` takes the
    fast path; or None, which turns the narrow draw off.

    numpy's ki[idx] for strip idx >= 3 is 2**52 * wi[idx - 1] / wi[idx],
    truncated, and that ratio computed from the widths, truncated, is ki or
    one below it; it is kept as the bound where one probe at one below it
    takes the fast path, which proves it no greater than ki.  Strips 0-2
    (the tail, the empty strip, and the strip next to it, whose neighbour's
    width is not read) keep bound 0, so their words are always redrawn.
    The tables are read once per process and checked against numpy on a
    fixed set of words.
    """
    gen = np.random.Generator(np.random.Philox(0))
    wi = _read_widths(gen)
    if wi is None:
        return None
    bound = np.zeros(256, dtype=np.uint64)
    for idx in range(3, 256):
        ratio = min(int(2.0 ** 52 * (wi[idx - 1] / wi[idx])), _RABS)
        if ratio and _fast(gen, [((ratio - 1) << 9) | idx]) is not None:
            bound[idx] = ratio
    wi.flags.writeable = bound.flags.writeable = False  # shared by every draw
    return (wi, bound) if _agrees(gen, wi, bound) else None


def _agrees(gen: np.random.Generator, wi: np.ndarray, bound: np.ndarray
            ) -> bool:
    """Whether each word of a fixed set that `_normals` takes as fast
    (rabs one below each strip's bound, at it, and at a third of it) is
    fast in numpy too, with the same bits."""
    words = np.array([(rabs << 9) | (sign << 8) | idx
                      for idx, b in enumerate(bound.tolist())
                      for rabs, sign in ((max(b - 1, 0), 1), (b, 0), (b // 3, 1))],
                     dtype=np.uint64)
    x, fast = _normals(words, wi, bound)
    words, x = words[fast].tolist(), x[fast]
    for start in range(0, len(words), _WORDS):
        got = _fast(gen, words[start:start + _WORDS])
        if got is None or got.tobytes() != x[start:start + _WORDS].tobytes():
            return False
    return True
