"""Experiment configuration: one YAML document drives every CLI command.

Grammar (all sections optional unless a command needs them):

    dataset:
      kind: two_point_1d | hypersphere | gaussian_mixture | csv
      d/r/n/seed            (hypersphere)
      centers/std/n_per_mode/seed   (gaussian_mixture)
      path                  (csv)
      normalize: {radius: R}        (optional post-processing, any kind)
    schedule:
      beta_min: 0.1  beta_max: 20.0  n_steps: 1000
    sampler:
      kind: stochastic_sde | ancestral_ddpm | ddim
      n_steps, s_start, init, s_min, seed, batch, trajectories
    sweep:
      s_start_grid: [..]  repeats: 5
    scan:
      times: [..] and/or theta_targets: [..]
      n_alpha: 141  smoothing_window: 3
    bifurcate:              (also reports the dataset section's critical level)
      theta_start, theta_stop, theta_count
      sweep_csv             (optional knee input)

Start times may be floats in (0, 1] or integer step indices on the
schedule's reference grid (e.g. 800 means 800/1000); integers larger
than 1 are treated as indices.
"""

from __future__ import annotations

import math
import numbers

import yaml

from . import datasets
from .errors import ConfigError, DomainError
from .exact_score import ExactScoreModel
from .samplers import _INITS, _KINDS, SamplerConfig
from .schedule import VpSchedule


def load_config(path) -> dict:
    try:
        with open(path) as fh:
            cfg = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: bad date, huge int
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    return cfg


def _section(cfg: dict, name: str, required: bool) -> dict:
    sec = cfg.get(name)
    if sec is None:
        if required:
            raise ConfigError(f"{name}: section is required for this command")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be a mapping")
    return sec


def _number(v, field: str) -> float:
    """v as a finite float; ConfigError naming the field otherwise."""
    if isinstance(v, bool) or not isinstance(v, numbers.Real):
        raise ConfigError(f"{field}: must be a number, got {v!r}")
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        raise ConfigError(f"{field}: integer out of range") from None
    if not math.isfinite(x):  # NaN would pass every range check
        raise ConfigError(f"{field}: must be finite, got {x}")
    return x


def _numbers(sec: dict, section: str, key: str) -> list[float]:
    """The optional list sec[key], each entry checked by _number."""
    raw = sec.get(key)
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ConfigError(f"{section}.{key}: must be a list")
    return [_number(v, f"{section}.{key}") for v in raw]


def _num(sec: dict, section: str, key: str, default=None, *, lo=None, hi=None,
         integer=False, required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"{section}.{key}: required")
        return default
    raw = sec[key]
    v = _number(raw, f"{section}.{key}")
    if integer:
        if not isinstance(raw, numbers.Integral):
            raise ConfigError(f"{section}.{key}: must be an integer, got {raw!r}")
        v = int(raw)
    if lo is not None and v < lo:
        raise ConfigError(f"{section}.{key}: must be >= {lo}, got {v}")
    if hi is not None and v > hi:
        raise ConfigError(f"{section}.{key}: must be <= {hi}, got {v}")
    return v


def _choice(sec: dict, section: str, key: str, options, default=None,
            required=False):
    if key not in sec:
        if required:
            raise ConfigError(f"{section}.{key}: required")
        return default
    v = sec[key]
    if v not in options:
        raise ConfigError(
            f"{section}.{key}: expected one of {list(options)}, got {v!r}")
    return v


def build_schedule(cfg: dict) -> VpSchedule:
    sec = _section(cfg, "schedule", required=False)
    beta_min = _num(sec, "schedule", "beta_min", 0.1, lo=1e-12)
    beta_max = _num(sec, "schedule", "beta_max", 20.0, lo=1e-12)
    n_steps = _num(sec, "schedule", "n_steps", 1000, lo=2, integer=True)
    if beta_max < beta_min:
        raise ConfigError("schedule.beta_max: must be >= schedule.beta_min")
    return VpSchedule(beta_min=beta_min, beta_max=beta_max, n_steps=n_steps)


def parse_time_value(value, schedule: VpSchedule, field: str) -> float:
    """Float forward time in (0, 1], or an integer index on the reference grid."""
    s = _number(value, field)
    if isinstance(value, numbers.Integral) and value > 1:
        s /= schedule.n_steps
    if not 0 < s <= schedule.horizon:
        raise ConfigError(
            f"{field}: {value!r} maps to s={s:.6g}, outside (0, {schedule.horizon}]")
    return s


def build_dataset(cfg: dict) -> datasets.EmpiricalDataset:
    sec = _section(cfg, "dataset", required=True)
    kind = _choice(sec, "dataset", "kind",
                   ("two_point_1d", "hypersphere", "gaussian_mixture", "csv"),
                   required=True)
    if kind == "two_point_1d":
        ds = datasets.two_point_1d()
    elif kind == "hypersphere":
        ds = datasets.hypersphere(
            d=_num(sec, "dataset", "d", required=True, integer=True, lo=1),
            r=_num(sec, "dataset", "r", 1.0, lo=1e-12),
            n=_num(sec, "dataset", "n", required=True, integer=True, lo=1),
            seed=_num(sec, "dataset", "seed", 0, integer=True, lo=0))
    elif kind == "gaussian_mixture":
        centers = sec.get("centers")
        if (not isinstance(centers, list) or not centers
                or not all(isinstance(c, list) and c for c in centers)):
            raise ConfigError(
                "dataset.centers: must be a nonempty list of coordinate lists")
        ds = datasets.gaussian_mixture(
            centers=centers,
            std=_num(sec, "dataset", "std", required=True, lo=0.0),
            n_per_mode=_num(sec, "dataset", "n_per_mode", required=True,
                            integer=True, lo=1),
            seed=_num(sec, "dataset", "seed", 0, integer=True, lo=0))
    else:
        path = sec.get("path")
        if not isinstance(path, str) or not path:
            raise ConfigError("dataset.path: required for kind 'csv'")
        try:
            ds = datasets.load_csv(path)
        except OSError as exc:
            raise ConfigError(f"dataset.path: cannot read {path}: {exc}") from exc
    norm = sec.get("normalize")
    if norm is not None:
        if not isinstance(norm, dict):
            raise ConfigError("dataset.normalize: must be a mapping")
        ds = datasets.center_and_normalize(
            ds, r=_num(norm, "dataset.normalize", "radius", 1.0, lo=1e-12))
    return ds


def build_model(cfg: dict) -> ExactScoreModel:
    return ExactScoreModel(build_dataset(cfg), build_schedule(cfg))


def build_sampler(cfg: dict, schedule: VpSchedule
                  ) -> tuple[SamplerConfig, int, bool]:
    """Returns (config, batch, keep_trajectories)."""
    sec = _section(cfg, "sampler", required=True)
    kind = _choice(sec, "sampler", "kind", _KINDS, required=True)
    s_start = parse_time_value(sec.get("s_start", 1.0), schedule,
                               "sampler.s_start")
    config = SamplerConfig(
        kind=kind,
        n_steps=_num(sec, "sampler", "n_steps", required=True, integer=True, lo=1),
        s_start=s_start,
        init=_choice(sec, "sampler", "init", _INITS, "standard_normal"),
        s_min=_num(sec, "sampler", "s_min", 1e-4, lo=1e-12),
        seed=_num(sec, "sampler", "seed", 0, integer=True, lo=0))
    batch = _num(sec, "sampler", "batch", 1000, integer=True, lo=1)
    keep = sec.get("trajectories", False)
    if not isinstance(keep, bool):
        raise ConfigError("sampler.trajectories: must be true or false")
    return config, batch, keep


def build_sweep(cfg: dict, schedule: VpSchedule) -> tuple[list[float], int]:
    sec = _section(cfg, "sweep", required=True)
    raw = sec.get("s_start_grid")
    if not isinstance(raw, list) or len(raw) < 1:
        raise ConfigError("sweep.s_start_grid: must be a nonempty list")
    grid = [parse_time_value(v, schedule, "sweep.s_start_grid") for v in raw]
    if any(b <= a for a, b in zip(grid, grid[1:])):
        raise ConfigError("sweep.s_start_grid: must be strictly increasing")
    repeats = _num(sec, "sweep", "repeats", 1, integer=True, lo=1)
    return grid, repeats


def build_scan(cfg: dict, schedule: VpSchedule) -> tuple[list[float], int, int]:
    """Returns (generative times, n_alpha, smoothing_window)."""
    sec = _section(cfg, "scan", required=True)
    times = _numbers(sec, "scan", "times")
    for t in times:
        if not 0 <= t < schedule.horizon:
            raise ConfigError(f"scan.times: {t!r} outside [0, {schedule.horizon})")
    for theta in _numbers(sec, "scan", "theta_targets"):
        try:
            s = schedule.invert_theta(theta)
        except DomainError as exc:
            raise ConfigError(f"scan.theta_targets: {theta!r}: {exc}") from exc
        times.append(schedule.horizon - s)
    if not times:
        raise ConfigError("scan: provide times and/or theta_targets")
    n_alpha = _num(sec, "scan", "n_alpha", 141, integer=True, lo=5)
    window = _num(sec, "scan", "smoothing_window", 3, integer=True, lo=1)
    if window % 2 == 0:
        raise ConfigError("scan.smoothing_window: must be odd")
    if n_alpha < 2 * window + 1:  # count_local_minima's need; fail before sampling
        raise ConfigError(f"scan.n_alpha: must be >= 2 * smoothing_window + 1 "
                          f"= {2 * window + 1}, got {n_alpha}")
    return times, n_alpha, window


def build_bifurcate(cfg: dict) -> dict:
    sec = _section(cfg, "bifurcate", required=True)
    start = _num(sec, "bifurcate", "theta_start", 0.05, lo=1e-6, hi=1 - 1e-9)
    stop = _num(sec, "bifurcate", "theta_stop", 0.995, lo=1e-6, hi=1 - 1e-9)
    if stop < start:
        raise ConfigError("bifurcate.theta_stop: must be >= theta_start")
    out = {
        "theta_start": start,
        "theta_stop": stop,
        "theta_count": _num(sec, "bifurcate", "theta_count", 96, integer=True,
                            lo=2),
        "sweep_csv": sec.get("sweep_csv"),
    }
    if out["sweep_csv"] is not None and not isinstance(out["sweep_csv"], str):
        raise ConfigError("bifurcate.sweep_csv: must be a path string")
    return out
