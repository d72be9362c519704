"""Finite point datasets and their generators.

A dataset is an (N, D) float64 array plus two optional certificates:
`radius` > 0 asserts every point has that Euclidean norm, and `centered`
asserts the points sum to zero.  Both are validated at construction so
downstream closed forms (Laplacian at the origin, critical times) can rely
on them.
"""

from __future__ import annotations

import csv
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (ConvergenceError, DegenerateDataError, DomainError,
                     ParseError, ShapeError, check_count, check_real)
from .rng import stream

_CERT_TOL = 1e-9
_NORMALIZE_ROUNDS = 100  # center_and_normalize's iteration budget
_CSV_CHUNK_ROWS = 256  # write_csv formats a numeric block this many rows at a time


@dataclass(frozen=True)
class EmpiricalDataset:
    points: np.ndarray
    radius: float = 0.0
    centered: bool = False

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=np.float64)
        if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
            raise ShapeError("points must be a (N, D) array with N, D >= 1")
        if not np.all(np.isfinite(pts)):
            raise DomainError("points must be finite")
        pts = pts.copy()
        pts.setflags(write=False)
        object.__setattr__(self, "points", pts)
        scale = max(1.0, float(np.max(np.abs(pts))))
        if self.centered:
            drift = float(np.max(np.abs(pts.sum(axis=0))))
            if drift >= _CERT_TOL * scale:
                raise DomainError(
                    f"centered flag set but points sum to {drift:.3e}")
        if self.radius > 0:
            err = float(np.max(np.abs(np.linalg.norm(pts, axis=1) - self.radius)))
            if err >= _CERT_TOL * self.radius:
                raise DomainError(
                    f"radius={self.radius} set but norms deviate by {err:.3e}")

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]


def two_point_1d() -> EmpiricalDataset:
    """The canonical 1D dataset {-1, +1}; centered with unit norms."""
    return EmpiricalDataset(np.array([[-1.0], [1.0]]), radius=1.0, centered=True)


def hypersphere(d: int, r: float, n: int, seed: int) -> EmpiricalDataset:
    """n points uniform on the radius-r sphere in d dimensions.

    Gaussian draw followed by radial projection.  The centered flag is not
    set; apply center_and_normalize if the closed forms need it.
    """
    check_count(d, "d", 1)
    if check_real(r, "r") <= 0:
        raise DomainError(f"r must be > 0, got {r!r}", name="r")
    check_count(n, "n", 1)
    rng = stream(seed)
    pts = rng.standard_normal((n, d))
    norms = np.linalg.norm(pts, axis=1)
    while np.any(norms == 0.0):  # measure zero, but division must be safe
        bad = norms == 0.0
        pts[bad] = rng.standard_normal((int(bad.sum()), d))
        norms = np.linalg.norm(pts, axis=1)
    return EmpiricalDataset(r * pts / norms[:, None], radius=r)


def gaussian_mixture(centers, std: float, n_per_mode: int, seed: int) -> EmpiricalDataset:
    """n_per_mode isotropic Gaussian draws around each center, concatenated."""
    try:  # ragged rows, non-numbers and ints beyond the float range fail
        centers = np.asarray(centers, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ShapeError(f"centers must be a (K, D) array of numbers: {exc}",
                         name="centers") from exc
    if centers.ndim != 2 or centers.size == 0:
        raise ShapeError("centers must be a nonempty (K, D) array",
                         name="centers")
    if not np.all(np.isfinite(centers)):
        raise DomainError("centers must be finite", name="centers")
    if check_real(std, "std") < 0:
        raise DomainError(f"std must be >= 0, got {std!r}", name="std")
    check_count(n_per_mode, "n_per_mode", 1)
    rng = stream(seed)
    blocks = [c + std * rng.standard_normal((n_per_mode, centers.shape[1]))
              for c in centers]
    return EmpiricalDataset(np.vstack(blocks))


def center_and_normalize(dataset: EmpiricalDataset,
                         r: float = 1.0) -> EmpiricalDataset:
    """Project the points onto {zero mean} and {norm r} alternately.

    The two constraints are generally not simultaneously satisfiable in one
    shot, so we alternate until both certificates hold at 1e-9 or the
    iteration budget runs out.
    """
    if check_real(r, "r") <= 0:
        raise DomainError(f"r must be > 0, got {r!r}", name="r")
    pts = np.array(dataset.points, dtype=np.float64)
    for _ in range(_NORMALIZE_ROUNDS):
        pts = pts - pts.mean(axis=0)
        norms = np.linalg.norm(pts, axis=1)
        if np.any(norms == 0.0):
            raise DegenerateDataError(
                "a point coincides with the centroid; cannot normalize")
        pts = r * pts / norms[:, None]
        try:  # done once both certificates validate
            return EmpiricalDataset(pts, radius=r, centered=True)
        except DomainError:
            pass
    raise ConvergenceError(
        f"center_and_normalize did not converge in {_NORMALIZE_ROUNDS} iterations")


def write_csv(path, rows, header=()) -> None:
    """The one artifact CSV format: LF endings, float cells (np.float64
    included) at 17 significant digits so they read back exactly, every
    other cell as the csv module writes it.

    `rows` is an iterable of rows or one 2-D float64 array.  An array is
    formatted _CSV_CHUNK_ROWS rows at a time by one "%.17g" line template,
    the same bytes as the per-cell rule, so an integer-valued float prints
    as an integer (exact below 1e17) and the text held at once stays
    bounded.
    """
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        if header:
            writer.writerow(header)
        if not (isinstance(rows, np.ndarray) and rows.ndim == 2
                and rows.dtype == np.float64):
            # float(v) first: np.float64 formats slower than a Python float
            writer.writerows([format(float(v), ".17g")
                              if isinstance(v, float) else v for v in row]
                             for row in rows)
            return
        line = ",".join(["%.17g"] * rows.shape[1]) + "\n"
        for lo in range(0, rows.shape[0], _CSV_CHUNK_ROWS):
            chunk = rows[lo:lo + _CSV_CHUNK_ROWS]
            fh.write(line * chunk.shape[0] % tuple(chunk.ravel().tolist()))


def save_csv(dataset: EmpiricalDataset, path) -> None:
    """Write one point per row, no header."""
    write_csv(path, dataset.points)


def load_csv(path) -> EmpiricalDataset:
    """Read a dataset written by save_csv (or any headerless numeric CSV).

    A plain numeric file is parsed in one C pass (`np.loadtxt`, whose cells
    read bit for bit as `float()` reads them).  A file that pass rejects or
    finds empty is read again cell by cell with the csv module, which also
    takes quoted cells and what `float()` takes beyond the C parser, such as
    `1_0`, and raises ParseError naming the row and column at fault.  Blank
    lines are skipped.  Certificates are not persisted, so the result has
    radius=0 and centered=False; re-derive them with center_and_normalize
    if needed.
    """
    with open(path, newline="") as fh:
        try:
            with warnings.catch_warnings():  # an empty file warns
                warnings.filterwarnings("ignore", "loadtxt: input contained no data")
                points = np.loadtxt(fh, delimiter=",", ndmin=2, comments=None)
        except ValueError:  # not a plain numeric file
            pass
        else:
            if points.size:
                return EmpiricalDataset(points)
        fh.seek(0)
        rows = []
        width = None
        for i, raw in enumerate(csv.reader(fh), start=1):
            if not raw:
                continue
            if width is None:
                width = len(raw)
            elif len(raw) != width:
                raise ParseError(
                    f"row {i}: expected {width} columns, found {len(raw)}")
            vals = []
            for j, cell in enumerate(raw, start=1):
                try:
                    vals.append(float(cell))
                except ValueError:
                    raise ParseError(
                        f"row {i}, column {j}: not a number: {cell!r}") from None
            rows.append(vals)
    if not rows:
        raise ParseError(f"{path}: no data rows")
    return EmpiricalDataset(np.array(rows, dtype=np.float64))
