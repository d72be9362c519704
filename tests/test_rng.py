import gc
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from symbreak import rng
from symbreak.errors import DomainError
from symbreak.rng import chain_blocks, chain_normals, stream


def test_same_key_reproduces_bits():
    a = stream(12, 3).standard_normal(100)
    b = stream(12, 3).standard_normal(100)
    assert np.array_equal(a, b)


def test_distinct_streams_differ():
    a = stream(12, 0).standard_normal(100)
    b = stream(12, 1).standard_normal(100)
    c = stream(13, 0).standard_normal(100)
    assert not np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_draw_order_does_not_couple_streams():
    # interleaving consumers must not change what each stream yields
    s0, s1 = stream(5, 0), stream(5, 1)
    inter = [s0.standard_normal(), s1.standard_normal(),
             s0.standard_normal(), s1.standard_normal()]
    t0, t1 = stream(5, 0), stream(5, 1)
    solo0 = [t0.standard_normal(), t0.standard_normal()]
    solo1 = [t1.standard_normal(), t1.standard_normal()]
    assert inter[0] == solo0[0] and inter[2] == solo0[1]
    assert inter[1] == solo1[0] and inter[3] == solo1[1]


def test_large_seeds_are_accepted():
    big = 2 ** 63 + 11
    a = stream(big, 2 ** 62).standard_normal(4)
    b = stream(big, 2 ** 62).standard_normal(4)
    assert np.array_equal(a, b)


def test_negative_arguments_rejected():
    with pytest.raises(ValueError):
        stream(-1)
    with pytest.raises(ValueError):
        stream(0, -2)


def test_keys_must_fit_64_bits():
    top = 2 ** 64 - 1
    assert np.array_equal(stream(top, top).standard_normal(3),
                          stream(top, top).standard_normal(3))
    for seed, index in ((2 ** 64, 0), (0, 2 ** 64), (10 ** 40, 1)):
        with pytest.raises(DomainError):
            stream(seed, index)
    with pytest.raises(DomainError):
        chain_normals(2 ** 64, 2, 3)


def _assert_rows_are_streams(seed, chains, widths):
    # a stream's first w normals are the start of its first max(widths)
    ref = np.array([stream(seed, i).standard_normal(max(widths))
                    for i in range(chains)]).reshape(chains, -1)
    for w in widths:
        z = chain_normals(seed, chains, w)
        assert z.shape == (chains, w)
        assert z.tobytes() == np.ascontiguousarray(ref[:, :w]).tobytes(), w


@pytest.mark.parametrize("seed", [0, 5, 2 ** 32 + 1, 2 ** 63 + 11, 2 ** 64 - 1])
@pytest.mark.parametrize("chains", [1, 7, 300, rng._ROWS - 1, rng._ROWS + 1])
def test_chain_normals_rows_are_streams(seed, chains):
    # widths 1-4 take the narrow draw, in row blocks of rng._ROWS; 5 and 9
    # the re-keyed loop
    _assert_rows_are_streams(seed, chains, [1, 2, 3, 4, 5, 9])


def test_narrow_draw_reads_numpys_tables():
    tables = rng._ziggurat()
    assert tables is not None, "the tables' self-check turned the narrow draw off"
    wi, bound = tables
    assert np.all(wi[2:] > 0) and np.all(bound[3:] > 0)
    assert not bound[:3].any()


def test_narrow_draw_falls_back_bit_for_bit(monkeypatch):
    wi, bound = rng._ziggurat()
    with monkeypatch.context() as m:  # no word passes: every row is redrawn
        m.setattr(rng, "_ziggurat", lambda: (wi, np.zeros_like(bound)))
        assert len(rng._narrow(3, 50, 2, *rng._ziggurat())[1]) == 50
        _assert_rows_are_streams(2 ** 63 + 11, 50, [1, 2, 4])

    def corrupted(gen):  # one strip's width one unit off in its last place
        wi = read(gen)
        wi[100] = np.nextafter(wi[100], 1.0)
        return wi

    read = rng._read_widths
    rng._ziggurat.cache_clear()
    try:
        with monkeypatch.context() as m:
            m.setattr(rng, "_read_widths", corrupted)
            assert rng._ziggurat() is None
            _assert_rows_are_streams(2 ** 63 + 11, 50, [1, 2, 4])
    finally:
        rng._ziggurat.cache_clear()
    assert rng._ziggurat() is not None


def test_chain_normals_split_matches_two_draws():
    # the samplers split each row into init | step noise; that must equal
    # the per-chain draw standard_normal(d) then standard_normal((n, d))
    d, n = 3, 5
    z = chain_normals(2 ** 63 + 11, 4, (1 + n) * d)
    for i in range(4):
        rng = stream(2 ** 63 + 11, i)
        assert np.array_equal(z[i, :d], rng.standard_normal(d))
        assert np.array_equal(z[i, d:].reshape(n, d), rng.standard_normal((n, d)))


@pytest.mark.parametrize("bad", [1.5, np.float64(2.0), True])
def test_keys_must_be_integers(bad):
    # a float or bool key word would be truncated (1.5 -> 1, True -> 1)
    with pytest.raises(DomainError):
        stream(bad)
    with pytest.raises(DomainError):
        stream(0, bad)
    with pytest.raises(DomainError):
        chain_normals(bad, 2, 3)
    assert np.array_equal(stream(np.int64(3), np.uint64(2)).standard_normal(3),
                          stream(3, 2).standard_normal(3))


def test_chain_normals_rejects_negative_seed():
    with pytest.raises(ValueError):
        chain_normals(-1, 3, 2)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 2 ** 63 + 11, 2 ** 64 - 1]), st.integers(1, 50),
       st.lists(st.integers(0, 23), min_size=1, max_size=4))
def test_chain_streams_blocks_equal_one_draw(seed, chains, widths):
    # each row resumes its stream where its previous block stopped, also
    # mid-way through Philox's four-word output buffer
    blocks = list(chain_blocks(seed, chains, widths))
    assert all(b.shape == (chains, w) for b, w in zip(blocks, widths))
    assert np.array_equal(np.hstack(blocks), chain_normals(seed, chains, sum(widths)))


def test_chain_normals_keeps_no_per_row_state():
    # the narrow draw (width 2) works in row blocks of bounded size, and a
    # wider one re-keys one shared Philox per row: either holds little
    # beyond its output, where a bare Philox kept per row, as in
    # chain_blocks, would hold about 385 bytes a row
    chains = 20_000
    rng._ziggurat()  # read once per process, not per draw
    for width in (2, 9):
        gc.collect()
        tracemalloc.start()
        try:
            z = chain_normals(7, chains, width)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (peak - z.nbytes) / chains < 100, (width, peak - z.nbytes)


@pytest.mark.parametrize("bad", [True, 2.0, np.float64(3.0), 1.5, -1])
@pytest.mark.parametrize("draw, name", [
    (lambda v: chain_normals(0, v, 2), "chains"),
    (lambda v: chain_normals(0, 3, v), "per_chain"),
    (lambda v: next(chain_blocks(0, v, [2])), "chains"),
    (lambda v: next(chain_blocks(0, 3, [2, v])), "widths[1]"),
], ids=["normals-chains", "normals-per_chain", "blocks-chains", "blocks-width"])
def test_counts_must_be_non_negative_integers(draw, name, bad):
    # a float count was numpy's TypeError, a negative one its ValueError,
    # and True drew one row
    with pytest.raises(DomainError, match="^" + re.escape(name) + " must"):
        draw(bad)


def test_zero_counts_are_allowed():
    assert chain_normals(0, 0, 2).shape == (0, 2)
    assert chain_normals(0, 3, 0).shape == (3, 0)
    assert [b.shape for b in chain_blocks(0, 2, [0, 3])] == [(2, 0), (2, 3)]
    assert [b.shape for b in chain_blocks(0, 0, [2])] == [(0, 2)]


def test_chain_streams_close_after_the_last_draw():
    blocks = chain_blocks(3, 4, [5, 2])
    assert next(blocks).shape == (4, 5)
    assert next(blocks).shape == (4, 2)
    with pytest.raises(StopIteration):
        next(blocks)
    assert list(chain_blocks(3, 4, [])) == []
    blocks = chain_blocks(2 ** 64, 2, [1])  # a generator checks its seed lazily
    with pytest.raises(DomainError):
        next(blocks)
