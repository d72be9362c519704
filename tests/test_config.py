import json
import re

import numpy as np
import pytest
import yaml

from symbreak import config
from symbreak.cli import main
from symbreak.config import (build_bifurcate, build_dataset, build_model,
                             build_sampler, build_scan, build_schedule,
                             build_sweep, load_config, parse_time_value)
from symbreak.errors import ConfigError
from symbreak.schedule import VpSchedule


def _write(tmp_path, text):
    p = tmp_path / "cfg.yaml"
    p.write_text(text)
    return p


def test_load_config_reads_yaml(tmp_path):
    p = _write(tmp_path, "schedule:\n  beta_max: 10.0\n")
    assert load_config(p) == {"schedule": {"beta_max": 10.0}}


def test_load_config_empty_file_is_empty_mapping(tmp_path):
    assert load_config(_write(tmp_path, "")) == {}


def test_both_loaders_give_the_same_config(tmp_path, monkeypatch):
    p = _write(tmp_path, """\
dataset: {kind: gaussian_mixture, centers: [[2.4, 0.6], [-1.6, 0.8]],
          std: 0.1, n_per_mode: 16, seed: 7, normalize: {radius: 1.5}}
schedule: {beta_min: 0.1, beta_max: 20.0, n_steps: 1000}
sampler:
  kind: ancestral_ddpm
  n_steps: 50
  s_start: 800
  init: gls
  s_min: 1.0e-4
  seed: 18446744073709551615
  batch: 64
  trajectories: true
sweep: {s_start_grid: [0.2, 0.4, 0.6, 0.8, 1.0], repeats: 5}
scan: {times: [100, 0.5], theta_targets: [0.9], n_alpha: 141,
       smoothing_window: 3}
bifurcate: {theta_start: 0.5, theta_stop: 1, theta_count: 40,
            sweep_csv: "out/sweep_table.csv"}
""")
    fast = load_config(p)
    monkeypatch.delattr(yaml, "CSafeLoader", raising=False)
    slow = load_config(p)
    assert fast == slow
    assert repr(fast) == repr(slow)  # also the types: 1 vs 1.0, True vs 1
    assert len(fast) == 6 and fast["sampler"]["s_min"] == 1e-4


def test_load_config_rejects_bad_input(tmp_path):
    with pytest.raises(ConfigError, match="cannot read config"):
        load_config(tmp_path / "missing.yaml")
    for text in ("a: 2020-13-45\n", "a: " + "9" * 5000 + "\n"):
        with pytest.raises(ConfigError, match="not valid YAML"):
            load_config(_write(tmp_path, text))
    with pytest.raises(ConfigError, match="not valid YAML"):
        load_config(_write(tmp_path, "a: [1, 2\n"))
    with pytest.raises(ConfigError, match="root must be a mapping"):
        load_config(_write(tmp_path, "- 1\n- 2\n"))


def test_build_schedule_defaults():
    sched = build_schedule({})
    assert sched == VpSchedule(beta_min=0.1, beta_max=20.0, n_steps=1000)


def test_build_schedule_overrides():
    cfg = {"schedule": {"beta_min": 0.5, "beta_max": 8.0, "n_steps": 200}}
    assert build_schedule(cfg) == VpSchedule(0.5, 8.0, 200)


def test_build_schedule_errors_name_the_key():
    with pytest.raises(ConfigError, match=r"schedule\.beta_max"):
        build_schedule({"schedule": {"beta_min": 5.0, "beta_max": 1.0}})
    with pytest.raises(ConfigError, match=r"schedule\.n_steps must be an integer"):
        build_schedule({"schedule": {"n_steps": 10.5}})
    with pytest.raises(ConfigError, match=r"schedule\.beta_min must be a finite real"):
        build_schedule({"schedule": {"beta_min": True}})
    with pytest.raises(ConfigError, match="must be a mapping"):
        build_schedule({"schedule": [1, 2]})


def test_parse_time_value_conventions(schedule):
    assert parse_time_value(800, schedule, "f") == pytest.approx(0.8)
    assert parse_time_value(1, schedule, "f") == 1.0
    assert parse_time_value(0.25, schedule, "f") == 0.25
    coarse = VpSchedule(n_steps=500)
    assert parse_time_value(100, coarse, "f") == pytest.approx(0.2)


def test_parse_time_value_rejects_bad_input(schedule):
    for bad in (0, 0.0, -0.5, 1.5, 1001):
        with pytest.raises(ConfigError, match="outside"):
            parse_time_value(bad, schedule, "f")
    with pytest.raises(ConfigError, match="must be a finite real"):
        parse_time_value(True, schedule, "f")
    with pytest.raises(ConfigError, match="must be a finite real"):
        parse_time_value("0.5", schedule, "f")
    with pytest.raises(ConfigError, match="must be a finite real"):
        parse_time_value(10 ** 400, schedule, "f")


def test_build_dataset_two_point():
    ds = build_dataset({"dataset": {"kind": "two_point_1d"}})
    assert ds.points.tolist() == [[-1.0], [1.0]]


def test_build_dataset_requires_section_and_kind():
    with pytest.raises(ConfigError, match="dataset: section is required"):
        build_dataset({})
    with pytest.raises(ConfigError, match=r"dataset\.kind: required"):
        build_dataset({"dataset": {}})
    with pytest.raises(ConfigError, match="expected one of"):
        build_dataset({"dataset": {"kind": "moons"}})


def test_build_dataset_hypersphere():
    ds = build_dataset({"dataset": {"kind": "hypersphere", "d": 3, "n": 16,
                                    "r": 2.0, "seed": 5}})
    assert ds.points.shape == (16, 3)
    assert np.allclose(np.linalg.norm(ds.points, axis=1), 2.0)
    with pytest.raises(ConfigError, match=r"dataset\.n: required"):
        build_dataset({"dataset": {"kind": "hypersphere", "d": 3}})


def test_build_dataset_gaussian_mixture():
    cfg = {"dataset": {"kind": "gaussian_mixture",
                       "centers": [[1.0, 0.0], [-1.0, 0.0]],
                       "std": 0.1, "n_per_mode": 8}}
    ds = build_dataset(cfg)
    assert ds.points.shape == (16, 2)
    # not a list of rows, ragged, text, beyond the float range, NaN, no
    # coordinates; before, the ragged and text cases named only `centers`,
    # 10**400 raised a bare OverflowError, and NaN and [[]] failed on the
    # points without a key
    for centers in ([1.0, -1.0], [[1.0, 2.0], [3.0]], [["a", 2.0]],
                    [[10 ** 400, 0.0]], [[float("nan"), 0.0]], [[]]):
        with pytest.raises(ConfigError, match=r"^dataset\.centers "):
            build_dataset({"dataset": {"kind": "gaussian_mixture",
                                       "centers": centers,
                                       "std": 0.1, "n_per_mode": 8}})


def test_build_dataset_csv_round_trip(tmp_path):
    data = tmp_path / "pts.csv"
    data.write_text("0.5,0.25\n-0.5,-0.25\n")
    ds = build_dataset({"dataset": {"kind": "csv", "path": str(data)}})
    assert ds.points.tolist() == [[0.5, 0.25], [-0.5, -0.25]]
    with pytest.raises(ConfigError, match=r"dataset\.path: required"):
        build_dataset({"dataset": {"kind": "csv"}})
    with pytest.raises(ConfigError, match="cannot read"):
        build_dataset({"dataset": {"kind": "csv",
                                   "path": str(tmp_path / "nope.csv")}})


def test_build_dataset_normalize():
    cfg = {"dataset": {"kind": "gaussian_mixture",
                       "centers": [[3.0, 0.0], [-3.0, 0.0]],
                       "std": 0.0, "n_per_mode": 4,
                       "normalize": {"radius": 1.0}}}
    ds = build_dataset(cfg)
    assert ds.centered
    assert ds.radius == pytest.approx(1.0)
    assert np.max(np.linalg.norm(ds.points, axis=1)) <= 1.0 + 1e-12
    with pytest.raises(ConfigError, match=r"dataset\.normalize"):
        build_dataset({"dataset": {"kind": "two_point_1d", "normalize": 3}})


def test_build_model_combines_sections():
    model = build_model({"dataset": {"kind": "two_point_1d"},
                         "schedule": {"n_steps": 100}})
    assert model.schedule.n_steps == 100
    assert model.dataset.dim == 1


def test_build_sampler_defaults():
    cfg = {"sampler": {"kind": "ddim", "n_steps": 10}}
    sc, batch, keep = build_sampler(cfg, VpSchedule())
    assert sc.kind == "ddim" and sc.n_steps == 10
    assert sc.s_start == 1.0 and sc.init == "standard_normal"
    assert sc.s_min == 1e-4 and sc.seed == 0
    assert batch == 1000 and keep is False


def test_build_sampler_full_section():
    cfg = {"sampler": {"kind": "stochastic_sde", "n_steps": 50,
                       "s_start": 400, "init": "gls", "seed": 3,
                       "batch": 20, "trajectories": True}}
    sc, batch, keep = build_sampler(cfg, VpSchedule())
    assert sc.s_start == pytest.approx(0.4)
    assert sc.init == "gls" and sc.seed == 3
    assert batch == 20 and keep is True


def test_build_sampler_pndm_is_reserved():
    cfg = {"sampler": {"kind": "pndm", "n_steps": 10}}
    # pndm was never implemented; it is an unknown kind like any other
    with pytest.raises(ConfigError, match="expected one of"):
        build_sampler(cfg, VpSchedule())


def test_build_sampler_rejects_bad_fields():
    with pytest.raises(ConfigError, match="expected one of"):
        build_sampler({"sampler": {"kind": "euler", "n_steps": 5}}, VpSchedule())
    with pytest.raises(ConfigError, match=r"sampler\.trajectories"):
        build_sampler({"sampler": {"kind": "ddim", "n_steps": 5,
                                   "trajectories": "yes"}}, VpSchedule())
    with pytest.raises(ConfigError, match="expected one of"):
        build_sampler({"sampler": {"kind": "ddim", "n_steps": 5,
                                   "init": "warm"}}, VpSchedule())
    with pytest.raises(ConfigError, match=r"sampler\.s_min must be a finite real"):
        build_sampler({"sampler": {"kind": "ddim", "n_steps": 5,
                                   "s_min": 10 ** 400}}, VpSchedule())


BAD_SEEDS = pytest.mark.parametrize(
    "seed", [-1, 2 ** 64, [1], 1.0, True],
    ids=["negative", "2**64", "list", "float", "bool"])
SEED_RULE = r"must be an integer in \[0, 2\*\*64\)"


@BAD_SEEDS
def test_sampler_seed_follows_the_seed_rule(seed):
    # rng.check_seed's rule, as a ConfigError that names the key
    with pytest.raises(ConfigError, match=r"^sampler\.seed " + SEED_RULE):
        build_sampler({"sampler": {"kind": "ddim", "n_steps": 5,
                                   "seed": seed}}, VpSchedule())
    config, _, _ = build_sampler({"sampler": {"kind": "ddim", "n_steps": 5,
                                              "seed": 2 ** 64 - 1}},
                                 VpSchedule())
    assert config.seed == 2 ** 64 - 1


@BAD_SEEDS
@pytest.mark.parametrize("kind", ["two_point_1d", "hypersphere",
                                  "gaussian_mixture", "csv"])
def test_dataset_seed_follows_the_seed_rule_for_every_kind(tmp_path, kind,
                                                           seed):
    # a kind that draws nothing still has its seed checked
    data = tmp_path / "pts.csv"
    data.write_text("0.5,0.25\n-0.5,-0.25\n")
    sec = {"kind": kind, **{
        "two_point_1d": {}, "hypersphere": {"d": 2, "n": 4},
        "gaussian_mixture": {"centers": [[1.0, 0.0]], "std": 0.1,
                             "n_per_mode": 4},
        "csv": {"path": str(data)}}[kind]}
    with pytest.raises(ConfigError, match=r"^dataset\.seed " + SEED_RULE):
        build_dataset({"dataset": {**sec, "seed": seed}})
    build_dataset({"dataset": {**sec, "seed": 2 ** 64 - 1}})


def test_build_sweep_parses_mixed_notations():
    cfg = {"sweep": {"s_start_grid": [100, 0.2, 300], "repeats": 4}}
    grid, repeats = build_sweep(cfg, VpSchedule())
    assert grid == pytest.approx([0.1, 0.2, 0.3])
    assert repeats == 4


def test_build_sweep_validation():
    with pytest.raises(ConfigError, match="nonempty list"):
        build_sweep({"sweep": {"s_start_grid": []}}, VpSchedule())
    with pytest.raises(ConfigError, match="strictly increasing"):
        build_sweep({"sweep": {"s_start_grid": [0.3, 0.2]}}, VpSchedule())


def test_build_scan_times_and_theta_targets(schedule):
    times, n_alpha, window = build_scan(
        {"scan": {"times": [0.0, 0.5], "theta_targets": [0.95]}}, schedule)
    assert times[:2] == [0.0, 0.5]
    assert times[2] == pytest.approx(1.0 - schedule.invert_theta(0.95))
    assert n_alpha == 141 and window == 3


def test_build_scan_validation(schedule):
    with pytest.raises(ConfigError, match="times and/or theta_targets"):
        build_scan({"scan": {}}, schedule)
    with pytest.raises(ConfigError, match=r"scan\.times"):
        build_scan({"scan": {"times": [1.0]}}, schedule)
    with pytest.raises(ConfigError, match=r"scan\.theta_targets"):
        build_scan({"scan": {"theta_targets": [1.5]}}, schedule)
    with pytest.raises(ConfigError, match="must be odd"):
        build_scan({"scan": {"times": [0.5], "smoothing_window": 4}}, schedule)
    for bad in (True, "0.5", float("nan"), 10 ** 400):
        with pytest.raises(ConfigError, match=r"scan\.times"):
            build_scan({"scan": {"times": [0.5, bad]}}, schedule)
        with pytest.raises(ConfigError, match=r"scan\.theta_targets"):
            build_scan({"scan": {"theta_targets": [bad]}}, schedule)
    with pytest.raises(ConfigError, match=r"scan\.theta_targets: must be a list"):
        build_scan({"scan": {"theta_targets": 0.9}}, schedule)
    # count_local_minima needs 2 * smoothing_window + 1 alpha points
    with pytest.raises(ConfigError, match=r"scan\.n_alpha"):
        build_scan({"scan": {"times": [0.5], "n_alpha": 5}}, schedule)
    assert build_scan({"scan": {"times": [0.5], "n_alpha": 7}}, schedule)[1] == 7


def test_build_bifurcate_defaults():
    # the critical level comes from the dataset section, not from settings here
    assert build_bifurcate({"bifurcate": {}}) == {
        "theta_start": 0.05, "theta_stop": 0.995, "theta_count": 96,
        "sweep_csv": None}


def test_build_bifurcate_validation():
    with pytest.raises(ConfigError, match=r"bifurcate\.theta_count"):
        build_bifurcate({"bifurcate": {"theta_count": 1}})
    with pytest.raises(ConfigError, match=r"bifurcate\.theta_stop"):
        build_bifurcate({"bifurcate": {"theta_start": 0.9, "theta_stop": 0.5}})
    with pytest.raises(ConfigError, match=r"sweep_csv"):
        build_bifurcate({"bifurcate": {"sweep_csv": 7}})


@pytest.mark.parametrize("value", [".nan", ".inf", "-.inf"])
def test_non_finite_numbers_are_rejected(tmp_path, value):
    # NaN compares false against every bound, so range checks alone pass it
    cfg = load_config(_write(tmp_path, f"bifurcate: {{theta_start: {value}}}\n"))
    with pytest.raises(ConfigError, match=r"bifurcate\.theta_start must be a finite real"):
        build_bifurcate(cfg)
    cfg = load_config(_write(tmp_path, f"bifurcate: {{theta_stop: {value}}}\n"))
    with pytest.raises(ConfigError, match=r"bifurcate\.theta_stop must be a finite real"):
        build_bifurcate(cfg)


# Every numeric key of the grammar: (section base, floor if a count, list?).
# A count also gets 2.5 and its floor minus 1; a list key gets each bad
# value as an entry.
_HYPERSPHERE = {"kind": "hypersphere", "d": 2, "n": 4}
_MIXTURE = {"kind": "gaussian_mixture", "centers": [[1.0, 0.0]], "std": 0.1,
            "n_per_mode": 4}
GRAMMAR = {
    "dataset.seed": (_HYPERSPHERE, 0, False),
    "dataset.d": (_HYPERSPHERE, 1, False),
    "dataset.r": (_HYPERSPHERE, None, False),
    "dataset.n": (_HYPERSPHERE, 1, False),
    "dataset.centers": (_MIXTURE, None, False),
    "dataset.std": (_MIXTURE, None, False),
    "dataset.n_per_mode": (_MIXTURE, 1, False),
    "dataset.normalize.radius": ({}, None, False),
    "schedule.beta_min": ({}, None, False),
    "schedule.beta_max": ({}, None, False),
    "schedule.n_steps": ({}, 2, False),
    "sampler.n_steps": ({"kind": "ddim", "n_steps": 5}, 1, False),
    "sampler.s_start": ({"kind": "ddim", "n_steps": 5}, None, False),
    "sampler.s_min": ({"kind": "ddim", "n_steps": 5}, None, False),
    "sampler.seed": ({"kind": "ddim", "n_steps": 5}, 0, False),
    "sampler.batch": ({"kind": "ddim", "n_steps": 5}, 1, False),
    "sweep.s_start_grid": ({}, None, True),
    "sweep.repeats": ({"s_start_grid": [0.5]}, 1, False),
    "scan.times": ({}, None, True),
    "scan.theta_targets": ({}, None, True),
    "scan.n_alpha": ({"times": [0.5]}, 5, False),
    "scan.smoothing_window": ({"times": [0.5]}, 1, False),
    "bifurcate.theta_start": ({}, None, False),
    "bifurcate.theta_stop": ({}, None, False),
    "bifurcate.theta_count": ({}, 2, False),
}
_TEXT_KEYS = {"kind", "init", "trajectories", "path", "sweep_csv", "normalize"}


def test_the_grammar_table_holds_every_numeric_key():
    keys = set()
    for section, allowed in config._KEYS.items():
        if isinstance(allowed, dict):  # a dataset's keys, over every kind
            allowed = {key for kind_keys in allowed.values() for key in kind_keys}
        keys |= {f"{section}.{key}" for key in allowed if key not in _TEXT_KEYS}
    assert keys == set(GRAMMAR)


def _build(path: str, value):
    """Build the section of `path` from its GRAMMAR base with `value` set."""
    section, _, key = path.rpartition(".")
    base, _, is_list = GRAMMAR[path]
    sec = {**base, key: [value] if is_list else value}
    schedule = VpSchedule()
    if section == "dataset.normalize":
        return build_dataset({"dataset": {"kind": "two_point_1d",
                                          "normalize": sec}})
    build = {"dataset": build_dataset, "schedule": build_schedule,
             "bifurcate": build_bifurcate,
             "sampler": lambda cfg: build_sampler(cfg, schedule),
             "sweep": lambda cfg: build_sweep(cfg, schedule),
             "scan": lambda cfg: build_scan(cfg, schedule)}[section]
    return build({section: sec})


@pytest.mark.parametrize("path, bad", [
    (path, bad) for path, (_, floor, _) in GRAMMAR.items()
    for bad in ["bool", "nan", "10**400", "text"]
    + ([] if floor is None else ["2.5", "below"])])
def test_every_bad_numeric_value_names_its_key(path, bad):
    floor = GRAMMAR[path][1]
    value = {"bool": True, "nan": float("nan"), "10**400": 10 ** 400,
             "text": "1", "2.5": 2.5, "below": (floor or 0) - 1}[bad]
    with pytest.raises(ConfigError, match="^" + re.escape(path) + r"[ :]"):
        _build(path, value)


def test_a_yaml_int_reaches_the_library_as_a_float(tmp_path, capsys):
    sphere = build_dataset({"dataset": {**_HYPERSPHERE, "r": 2}})
    normalized = build_dataset({"dataset": {"kind": "two_point_1d",
                                            "normalize": {"radius": 2}}})
    schedule = build_schedule({"schedule": {"beta_min": 1}})
    for value in (sphere.radius, normalized.radius, schedule.beta_min):
        assert type(value) is float and value == int(value)
    cfg = _write(tmp_path, "dataset: {kind: hypersphere, d: 3, n: 4, r: 2}\n")
    out = tmp_path / "out"
    assert main(["dataset", "inspect", "--config", str(cfg), "--out", str(out)]) == 0
    capsys.readouterr()
    text = (out / "inspect.json").read_text()
    assert '"radius": 2.0\n' in text and json.loads(text)["radius"] == 2.0
