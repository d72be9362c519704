import tempfile
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from symbreak import (EmpiricalDataset, center_and_normalize, gaussian_mixture,
                      hypersphere, load_csv, save_csv, two_point_1d)
from symbreak.datasets import _CSV_CHUNK_ROWS, write_csv
from symbreak.errors import (DegenerateDataError, DomainError, ParseError,
                             ShapeError)

import oracles


def test_two_point_contents_and_certificates():
    ds = two_point_1d()
    assert ds.n_points == 2 and ds.dim == 1
    assert np.array_equal(ds.points, [[-1.0], [1.0]])
    assert ds.centered and ds.radius == 1.0


def test_points_are_read_only():
    ds = two_point_1d()
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0


def test_certificates_are_checked():
    with pytest.raises(DomainError):
        EmpiricalDataset(np.array([[1.0], [2.0]]), centered=True)
    with pytest.raises(DomainError):
        EmpiricalDataset(np.array([[1.0], [-2.0]]), radius=1.0)
    with pytest.raises(ShapeError):
        EmpiricalDataset(np.array([1.0, 2.0]))
    with pytest.raises(ShapeError):
        EmpiricalDataset(np.empty((0, 2)))
    with pytest.raises(DomainError):
        EmpiricalDataset(np.array([[np.nan], [1.0]]))


def test_hypersphere_norms_and_determinism():
    ds = hypersphere(5, 2.5, 40, seed=11)
    assert ds.points.shape == (40, 5)
    norms = np.linalg.norm(ds.points, axis=1)
    assert np.allclose(norms, 2.5, atol=1e-12)
    assert ds.radius == 2.5
    again = hypersphere(5, 2.5, 40, seed=11)
    assert np.array_equal(ds.points, again.points)
    other = hypersphere(5, 2.5, 40, seed=12)
    assert not np.array_equal(ds.points, other.points)


def test_hypersphere_argument_validation():
    with pytest.raises(DomainError):
        hypersphere(0, 1.0, 4, 0)
    with pytest.raises(DomainError):
        hypersphere(2, 0.0, 4, 0)
    with pytest.raises(DomainError):
        hypersphere(2, 1.0, 0, 0)


def test_gaussian_mixture_shape_and_spread():
    centers = np.array([[3.0, 0.0], [-3.0, 0.0], [0.0, 3.0]])
    ds = gaussian_mixture(centers, 0.05, 50, seed=2)
    assert ds.points.shape == (150, 2)
    # every point hugs its own center at this std
    d = np.linalg.norm(ds.points[:, None, :] - centers[None, :, :], axis=2)
    assert d.min(axis=1).max() < 0.3
    labels = np.argmin(d, axis=1)
    assert np.array_equal(np.bincount(labels), [50, 50, 50])


def test_gaussian_mixture_zero_std_sits_on_centers():
    centers = [[1.0, 2.0], [-1.0, 0.5]]
    ds = gaussian_mixture(centers, 0.0, 3, seed=0)
    assert np.allclose(ds.points[:3], centers[0])
    assert np.allclose(ds.points[3:], centers[1])


def test_gaussian_mixture_validation():
    with pytest.raises(ShapeError):
        gaussian_mixture(np.empty((0, 2)), 0.1, 4, 0)
    with pytest.raises(ShapeError):
        gaussian_mixture([[1.0, 2.0], [3.0]], 0.1, 4, 0)  # ragged
    with pytest.raises(ShapeError):
        gaussian_mixture([["a", 2.0]], 0.1, 4, 0)
    with pytest.raises(DomainError):
        gaussian_mixture([[0.0]], -0.1, 4, 0)
    with pytest.raises(DomainError):
        gaussian_mixture([[0.0]], 0.1, 0, 0)


def test_center_and_normalize_establishes_certificates():
    raw = EmpiricalDataset(np.array([[2.0, 1.0], [0.5, -1.0], [-1.0, 3.0],
                                     [4.0, 0.0]]))
    ds = center_and_normalize(raw, r=1.5)
    assert ds.centered and ds.radius == 1.5
    assert np.allclose(np.linalg.norm(ds.points, axis=1), 1.5, atol=1e-9)
    assert np.max(np.abs(ds.points.sum(axis=0))) < 1e-8


def test_center_and_normalize_degenerate_input():
    dup = EmpiricalDataset(np.array([[1.0, 1.0], [1.0, 1.0]]))
    with pytest.raises(DegenerateDataError):
        center_and_normalize(dup)
    with pytest.raises(DomainError):
        center_and_normalize(two_point_1d(), r=0.0)


def test_csv_round_trip_is_exact(tmp_path):
    ds = hypersphere(3, 1.0, 17, seed=4)
    path = tmp_path / "pts.csv"
    save_csv(ds, path)
    back = load_csv(path)
    assert np.array_equal(back.points, ds.points)
    # certificates do not survive the file format
    assert back.radius == 0.0 and not back.centered


def test_csv_format_is_plain_lf(tmp_path):
    path = tmp_path / "pts.csv"
    save_csv(two_point_1d(), path)
    raw = path.read_bytes()
    assert raw == b"-1\n1\n"


def test_write_csv_cell_formats(tmp_path):
    path = tmp_path / "cells.csv"
    row = [np.float64(1 / 3), 0.1, 7, np.int64(-3), "a b", -0.0, 1e-310]
    body = b"0.33333333333333331,0.10000000000000001,7,-3,a b,-0,9.9999999999999694e-311\n"
    write_csv(path, [row], header=["f64", "float", "int", "i64", "str",
                                   "neg_zero", "subnormal"])
    assert path.read_bytes() == (
        b"f64,float,int,i64,str,neg_zero,subnormal\n" + body)
    write_csv(path, [row, row])
    assert path.read_bytes() == body + body


def test_write_csv_reads_back_exactly(tmp_path):
    path = tmp_path / "pts.csv"
    values = np.array([[1 / 3, 0.1, -0.0, 1e-310],
                       [np.pi, -1e300, 5e-324, 7.0]])
    write_csv(path, values)
    back = load_csv(path).points
    assert np.array_equal(back, values)
    assert np.signbit(back[0, 2])


# no .map(): hypothesis fills long arrays only from reusable strategies
_CELLS = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([
    0.0, -0.0, 5e-324, -5e-324, 1e-310, 2.2250738585072014e-308,
    1.7976931348623157e308, -1.7976931348623157e308, 7.0, -3.0, 255.0,
    123456.0, 2.0 ** 53, 1e16, 99999999999999984.0])
# short blocks, and blocks that end just before, on and after a chunk edge
_ROWS = st.integers(0, 6) | st.integers(_CSV_CHUNK_ROWS - 2, _CSV_CHUNK_ROWS + 2)


@settings(max_examples=60, deadline=None)
@given(hnp.arrays(np.float64, st.tuples(_ROWS, st.integers(1, 6)),
                  elements=_CELLS))
def test_write_csv_blocks_match_the_per_cell_rule(values):
    # as the rows themselves, and in a column-major copy under a header
    want = oracles.reference_csv(values)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "block.csv"
        write_csv(path, values)
        assert path.read_bytes() == want
        write_csv(path, np.asfortranarray(values), header=["h"])
        assert path.read_bytes() == b"h\n" + want


_NUMBER_TEXT = (st.floats(allow_nan=False, allow_infinity=False).map(repr)
                | st.floats(allow_nan=False, allow_infinity=False).map(
                    lambda v: f"{v:.17g}")
                | st.floats(allow_nan=False, allow_infinity=False).map(
                    lambda v: f" {v:.4E}\t")
                | st.sampled_from([
                    "-0.0", "-0", "+1", ".5", "5.", "5e-324", "-4e-324",
                    "2.2250738585072011e-308", "1.7976931348623157e308",
                    "0.100000000000000000000000000001",
                    "123456789012345678901234567890", "1e400", "inf",
                    "Infinity", "-INF", "nan", "NaN", "+nan"]))
# what float() takes and the C parser may not, and what neither takes
_ODD_CELLS = st.sampled_from(['"2.5"', '" -1"', "1_0", '"1,5"', "", " ",
                              "abc", "0x10", "#3", "1 2", "nan(1)"])
_ODD_LINES = st.sampled_from([" ", "\t ", "# note", "#1,2", ","])


@st.composite
def _csv_texts(draw):
    """A numeric CSV file's text, with blank lines, in one of the three
    line endings; half of them carry one flaw: an odd cell or line, a
    trailing comma, or a row of another width."""
    width = draw(st.integers(1, 4))
    row = st.lists(_NUMBER_TEXT, min_size=width, max_size=width)
    lines = draw(st.lists(row.map(",".join) | st.just(""), max_size=8))
    if draw(st.booleans()):
        odd_row = st.tuples(row, st.integers(0, width - 1), _ODD_CELLS).map(
            lambda t: ",".join(t[0][:t[1]] + [t[2]] + t[0][t[1] + 1:]))
        flaw = draw(odd_row | _ODD_LINES | row.map(lambda r: ",".join(r) + ",")
                    | st.lists(_NUMBER_TEXT, min_size=1, max_size=5).map(",".join))
        lines.insert(draw(st.integers(0, len(lines))), flaw)
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=200, deadline=None)
@given(_csv_texts())
def test_load_csv_matches_the_per_cell_parse(text):
    # the same points bit for bit, or the same error text, and no warning
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pts.csv"
        path.write_bytes(text.encode())
        want = oracles.reference_load_csv(path)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            if isinstance(want, str):
                with pytest.raises(ParseError) as err:
                    load_csv(path)
                assert str(err.value) == want
            elif not np.all(np.isfinite(want)):
                with pytest.raises(DomainError, match="^points must be finite$"):
                    load_csv(path)
            else:
                got = load_csv(path).points
                assert got.shape == want.shape
                assert got.tobytes() == want.tobytes()


def test_write_csv_peak_does_not_grow_with_the_block(tmp_path):
    # chunks bound the text held at once; formatting the whole block in one
    # shot would grow the peak by several MB here
    peaks = []
    for rows in (2000, 20000):
        values = np.linspace(-1.0, 1.0, rows * 8).reshape(rows, 8) / 3.0
        tracemalloc.start()
        try:
            write_csv(tmp_path / "big.csv", values)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6, peaks


def test_load_csv_error_messages(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(ParseError, match="row 2"):
        load_csv(bad)
    bad.write_text("1.0,2.0\n3.0,abc\n")
    with pytest.raises(ParseError, match="row 2, column 2"):
        load_csv(bad)
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    with pytest.raises(ParseError, match="no data rows"):
        load_csv(empty)


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "pts.csv"
    path.write_text("1.0,2.0\n\n3.0,4.0\n")
    ds = load_csv(path)
    assert np.array_equal(ds.points, [[1.0, 2.0], [3.0, 4.0]])
