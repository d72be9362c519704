"""Experiment configuration: one YAML document drives every CLI command.

Grammar (all sections optional unless a command needs them):

    dataset:
      kind: two_point_1d | hypersphere | gaussian_mixture | csv
      seed                  (any kind; only the random kinds draw)
      d/r/n                 (hypersphere)
      centers/std/n_per_mode        (gaussian_mixture)
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

The root may hold only these six sections, and a section only its own
keys (a dataset section only those of its kind); any other key, or a
missing required one, is a ConfigError naming it.

Config reads keys; the library decides every value.  A library error
naming its argument comes back as a ConfigError naming the key
(`schedule.n_steps must be an integer >= 2, got 10.5`), before anything
is written.  A real key reaches the library as a float: `r: 2` is 2.0.

Start times may be floats in (0, 1] or integer step indices on the
schedule's reference grid (e.g. 800 means 800/1000); integers larger
than 1 are treated as indices.
"""

from contextlib import contextmanager

import yaml

from . import datasets, rng
from .errors import ConfigError, SymbreakError, check_count, check_real
from .exact_score import ExactScoreModel
from .samplers import SamplerConfig
from .schedule import VpSchedule


def load_config(path) -> dict:
    # libyaml's parser if PyYAML has it: same constructors, dicts and errors
    loader = getattr(yaml, "CSafeLoader", yaml.SafeLoader)
    try:
        with open(path) as fh:
            cfg = yaml.load(fh, Loader=loader)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (yaml.YAMLError, ValueError) as exc:  # ValueError: bad date, huge int
        raise ConfigError(f"config is not valid YAML: {exc}") from exc
    if cfg is None:
        cfg = {}
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a mapping")
    sections = [name for name in _KEYS if "." not in name]
    for key in cfg:
        if key not in sections:
            raise ConfigError(f"config: unknown section {key!r}; expected one "
                              f"of {sections}")
    return cfg


# The keys each section may hold: the grammar above; a dataset's per kind.
_ANY_DATASET = ("kind", "seed", "normalize")
_KEYS = {
    "dataset": {"two_point_1d": _ANY_DATASET,
                "hypersphere": _ANY_DATASET + ("d", "r", "n"),
                "gaussian_mixture": _ANY_DATASET + ("centers", "std",
                                                    "n_per_mode"),
                "csv": _ANY_DATASET + ("path",)},
    "dataset.normalize": ("radius",),
    "schedule": ("beta_min", "beta_max", "n_steps"),
    "sampler": ("kind", "n_steps", "s_start", "init", "s_min", "seed", "batch",
                "trajectories"),
    "sweep": ("s_start_grid", "repeats"),
    "scan": ("times", "theta_targets", "n_alpha", "smoothing_window"),
    "bifurcate": ("theta_start", "theta_stop", "theta_count", "sweep_csv"),
}


def _section(cfg: dict, name: str, required: bool) -> dict:
    """The mapping cfg[name] ({} if absent), checked against _KEYS[name],
    or against its kind's entry there once its kind is checked; a dotted
    name reads its last part from cfg, the enclosing section."""
    sec = cfg.get(name.rpartition(".")[2])
    if sec is None:
        if required:
            raise ConfigError(f"{name}: section is required for this command")
        return {}
    if not isinstance(sec, dict):
        raise ConfigError(f"{name}: must be a mapping")
    allowed, where = _KEYS[name], ""
    if isinstance(allowed, dict):
        _required(sec, name, "kind")
        kind = sec["kind"]
        if kind not in tuple(allowed):  # a tuple: an unhashable kind is not in it
            raise ConfigError(f"{name}.kind: expected one of {list(allowed)}, "
                              f"got {kind!r}")
        allowed, where = allowed[kind], f" for kind {kind!r}"
    for key in sec:
        if key not in allowed:
            raise ConfigError(f"{name}: unknown key {key!r}{where}; expected "
                              f"some of {list(allowed)}")
    return sec


def _required(sec: dict, section: str, *keys: str) -> None:
    for key in keys:
        if key not in sec:
            raise ConfigError(f"{section}.{key}: required")


def _list(sec: dict, section: str, key: str) -> list:
    """The optional list sec[key]; its entries are the library's to check."""
    raw = sec.get(key)
    if raw is not None and not isinstance(raw, list):
        raise ConfigError(f"{section}.{key}: must be a list")
    return raw or []


@contextmanager
def _keyed(section: str = "", **keys: str):
    """Re-raise a library error naming its argument as a ConfigError naming
    the key, `<section>.<key>`; `keys` maps an argument to another key."""
    try:
        yield
    except SymbreakError as exc:
        if exc.name is None:
            raise
        key = keys.get(exc.name, exc.name)
        path = f"{section}.{key}" if section else key
        raise ConfigError(path + str(exc)[len(exc.name):]) from None


def _real(value, name: str) -> float:
    """value by the library's real rule, as a float: `r: 2` is 2.0."""
    return float(check_real(value, name))


def build_schedule(cfg: dict) -> VpSchedule:
    sec = _section(cfg, "schedule", required=False)
    with _keyed("schedule"):  # an absent key takes VpSchedule's default
        return VpSchedule(**{key: v if key == "n_steps" else _real(v, key)
                             for key, v in sec.items()})


def parse_time_value(value, schedule: VpSchedule, field: str) -> float:
    """Float forward time in (0, 1], or an integer index on the reference grid."""
    with _keyed():  # the field is the whole key
        s = _real(value, field)
    if hasattr(value, "__index__") and value > 1:  # an int, numpy's too
        s /= schedule.n_steps
    if not 0 < s <= schedule.horizon:
        raise ConfigError(f"{field}: {value!r} maps to s={s:.6g}, outside "
                          f"(0, {schedule.horizon}]")
    return s


def build_dataset(cfg: dict) -> datasets.EmpiricalDataset:
    sec = _section(cfg, "dataset", required=True)
    kind = sec["kind"]  # checked by _section
    with _keyed("dataset"):
        seed = rng.check_seed(sec.get("seed", 0))  # every kind's; two draw
        if kind == "two_point_1d":
            ds = datasets.two_point_1d()
        elif kind == "hypersphere":
            _required(sec, "dataset", "d", "n")
            ds = datasets.hypersphere(sec["d"], _real(sec.get("r", 1.0), "r"),
                                      sec["n"], seed)
        elif kind == "gaussian_mixture":
            _required(sec, "dataset", "centers", "std", "n_per_mode")
            ds = datasets.gaussian_mixture(
                sec["centers"], _real(sec["std"], "std"), sec["n_per_mode"], seed)
        else:
            path = sec.get("path")
            if not isinstance(path, str) or not path:
                raise ConfigError("dataset.path: required for kind 'csv'")
            try:
                ds = datasets.load_csv(path)
            except OSError as exc:
                raise ConfigError(f"dataset.path: cannot read {path}: {exc}") from exc
    if sec.get("normalize") is not None:
        norm = _section(sec, "dataset.normalize", required=True)
        with _keyed("dataset.normalize", r="radius"):
            ds = datasets.center_and_normalize(
                ds, _real(norm.get("radius", 1.0), "radius"))
    return ds


def build_model(cfg: dict) -> ExactScoreModel:
    return ExactScoreModel(build_dataset(cfg), build_schedule(cfg))


def build_sampler(cfg: dict, schedule: VpSchedule
                  ) -> tuple[SamplerConfig, int, bool]:
    """Returns (config, batch, keep_trajectories)."""
    sec = _section(cfg, "sampler", required=True)
    _required(sec, "sampler", "kind", "n_steps")
    args = {key: v for key, v in sec.items() if key not in ("batch", "trajectories")}
    args["s_start"] = parse_time_value(args.get("s_start", 1.0), schedule,
                                       "sampler.s_start")
    with _keyed("sampler"):  # an absent key takes SamplerConfig's default
        config = SamplerConfig(**args)
        batch = check_count(sec.get("batch", 1000), "batch", 1)
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
    with _keyed("sweep"):
        return grid, check_count(sec.get("repeats", 1), "repeats", 1)


def build_scan(cfg: dict, schedule: VpSchedule) -> tuple[list[float], int, int]:
    """Returns (generative times, n_alpha, smoothing_window)."""
    sec = _section(cfg, "scan", required=True)
    with _keyed("scan", theta="theta_targets"):
        times = [_real(t, "times") for t in _list(sec, "scan", "times")]
        for t in times:
            if not 0 <= t < schedule.horizon:
                raise ConfigError(
                    f"scan.times: {t!r} outside [0, {schedule.horizon})")
        times += [schedule.horizon - schedule.invert_theta(theta)
                  for theta in _list(sec, "scan", "theta_targets")]
        n_alpha = check_count(sec.get("n_alpha", 141), "n_alpha", 5)
        window = check_count(sec.get("smoothing_window", 3), "smoothing_window", 1)
    if not times:
        raise ConfigError("scan: provide times and/or theta_targets")
    if window % 2 == 0:
        raise ConfigError("scan.smoothing_window: must be odd")
    if n_alpha < 2 * window + 1:  # count_local_minima's need; fail before sampling
        raise ConfigError(f"scan.n_alpha: must be >= 2 * smoothing_window + 1 "
                          f"= {2 * window + 1}, got {n_alpha}")
    return times, n_alpha, window


def build_bifurcate(cfg: dict) -> dict:
    sec = _section(cfg, "bifurcate", required=True)
    with _keyed("bifurcate"):
        start = _real(sec.get("theta_start", 0.05), "theta_start")
        stop = _real(sec.get("theta_stop", 0.995), "theta_stop")
        count = check_count(sec.get("theta_count", 96), "theta_count", 2)
    for key, theta, low in ("theta_start", start, 1e-6), ("theta_stop", stop, start):
        if not low <= theta <= 1 - 1e-9:
            raise ConfigError(f"bifurcate.{key}: must lie in [{low!r}, "
                              f"1 - 1e-09], got {theta!r}")
    sweep_csv = sec.get("sweep_csv")
    if sweep_csv is not None and not isinstance(sweep_csv, str):
        raise ConfigError("bifurcate.sweep_csv: must be a path string")
    return {"theta_start": start, "theta_stop": stop, "theta_count": count,
            "sweep_csv": sweep_csv}
