import csv
import json
import subprocess
import sys

import numpy as np
import pytest
import yaml

from symbreak import VpSchedule, bifurcation
from symbreak.cli import main


def run_cli(tmp_path, command, cfg, *extra, name="cfg.yaml"):
    cfg_path = tmp_path / name
    cfg_path.write_text(yaml.safe_dump(cfg))
    out = tmp_path / f"out_{len(list(tmp_path.iterdir()))}"
    argv = list(command) if isinstance(command, (list, tuple)) else [command]
    argv += ["--config", str(cfg_path), "--out", str(out), *extra]
    return main(argv), out


SAMPLE_CFG = {
    "dataset": {"kind": "two_point_1d"},
    "sampler": {"kind": "ddim", "n_steps": 5, "batch": 8},
}


def test_sample_writes_finals_and_manifest(tmp_path):
    code, out = run_cli(tmp_path, "sample", SAMPLE_CFG)
    assert code == 0
    finals = np.loadtxt(out / "finals.csv", delimiter=",")
    assert finals.shape == (8,)
    assert np.all(np.abs(np.abs(finals) - 1.0) < 0.05)
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "sample"
    assert manifest["outputs"] == ["finals.csv"]
    assert manifest["seed_override"] is None
    assert manifest["threads"] == 1
    assert manifest["config"]["sampler"]["n_steps"] == 5
    assert len(manifest["config_sha256"]) == 64
    assert "numpy" in manifest["versions"]


def test_yaml_date_in_config_is_written_as_text(tmp_path):
    cfg_path = tmp_path / "dated.yaml"
    cfg_path.write_text(yaml.safe_dump(SAMPLE_CFG) + "note: 2020-01-01\n")
    out = tmp_path / "out"
    assert main(["sample", "--config", str(cfg_path), "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["config"]["note"] == "2020-01-01"


def test_sample_is_byte_reproducible_across_threads(tmp_path):
    _, out1 = run_cli(tmp_path, "sample", SAMPLE_CFG)
    _, out2 = run_cli(tmp_path, "sample", SAMPLE_CFG, "--threads", "4")
    assert (out1 / "finals.csv").read_bytes() == (out2 / "finals.csv").read_bytes()


def test_sample_seed_override_changes_output(tmp_path):
    _, out1 = run_cli(tmp_path, "sample", SAMPLE_CFG)
    code, out2 = run_cli(tmp_path, "sample", SAMPLE_CFG, "--seed", "5")
    assert code == 0
    assert (out1 / "finals.csv").read_bytes() != (out2 / "finals.csv").read_bytes()
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["seed_override"] == 5


def test_sample_trajectories_csv(tmp_path):
    cfg = {"dataset": {"kind": "two_point_1d"},
           "sampler": {"kind": "stochastic_sde", "n_steps": 4, "batch": 3,
                       "trajectories": True}}
    code, out = run_cli(tmp_path, "sample", cfg)
    assert code == 0
    rows = list(csv.reader((out / "trajectories.csv").open()))
    assert rows[0] == ["step", "s", "chain", "x_0"]
    assert len(rows) == 1 + 5 * 3
    assert rows[1][:3] == ["0", "1", "0"]


def test_sweep_artifacts(tmp_path):
    cfg = {"dataset": {"kind": "two_point_1d"},
           "sampler": {"kind": "ddim", "n_steps": 4, "batch": 16},
           "sweep": {"s_start_grid": [0.2, 0.4, 0.6, 0.8, 1.0], "repeats": 2}}
    code, out = run_cli(tmp_path, "sweep", cfg)
    assert code == 0
    rows = list(csv.reader((out / "sweep_table.csv").open()))
    assert rows[0] == ["dataset", "s=0.2", "s=0.4", "s=0.6", "s=0.8", "s=1"]
    assert rows[1][0] == "two_point_1d"
    assert len(rows) == 2
    runs = list(csv.reader((out / "sweep_runs.csv").open()))
    assert runs[0] == ["s_start", "repeat", "frechet"]
    assert len(runs) == 1 + 2 * 5
    knee = json.loads((out / "knee.json").read_text())
    assert set(knee) == {"s_start", "second_difference", "low_confidence"}
    assert knee["s_start"] in [0.2, 0.4, 0.6, 0.8, 1.0]


def test_scan_csv_layout(tmp_path):
    pts = tmp_path / "line.csv"
    pts.write_text("-1,0\n1,0\n")
    cfg = {"dataset": {"kind": "csv", "path": str(pts)},
           "sampler": {"kind": "stochastic_sde", "n_steps": 40, "batch": 8},
           "scan": {"times": [0.2, 0.9], "theta_targets": [0.96],
                    "n_alpha": 61}}
    code, out = run_cli(tmp_path, "scan", cfg)
    assert code == 0
    rows = list(csv.reader((out / "scan.csv").open()))
    assert rows[0][:4] == ["time", "s", "theta", "n_minima"]
    assert len(rows[0]) == 4 + 61
    assert len(rows) == 4
    for row in rows[1:]:
        t, s, theta = float(row[0]), float(row[1]), float(row[2])
        assert t + s == pytest.approx(1.0)
        assert 0 < theta < 1
        assert float(row[3]) == int(float(row[3]))
        assert float(row[4]) == 0.0  # anchored at the first alpha


def test_bifurcate_reports_critical_values(tmp_path):
    cfg = {"dataset": {"kind": "two_point_1d"}, "bifurcate": {"theta_count": 24}}
    code, out = run_cli(tmp_path, "bifurcate", cfg)
    assert code == 0
    crit = json.loads((out / "critical.json").read_text())
    tc = bifurcation.critical_theta_1d()
    assert crit == {"theta_c_1d": tc, "theta_c": tc, "theta_c_exact": True,
                    "s_c": VpSchedule().invert_theta(tc)}
    rows = list(csv.reader((out / "branches.csv").open()))
    assert rows[0] == ["branch", "theta", "x_0", "stability"]
    assert len(rows) > 24


def test_bifurcate_without_a_dataset_reports_the_1d_level_only(tmp_path):
    code, out = run_cli(tmp_path, "bifurcate", {"bifurcate": {"theta_count": 8}})
    assert code == 0
    assert ((out / "critical.json").read_text()
            == '{\n  "theta_c_1d": 0.6435942529055827\n}\n')


@pytest.mark.parametrize("dataset, points, expect", [
    ({"kind": "hypersphere", "d": 3, "n": 8, "seed": 5,
      "normalize": {"radius": 1.0}}, None,
     {"theta_c": 0.7587979032397262, "theta_c_exact": True}),
    ({"kind": "gaussian_mixture", "centers": [[1.0, 0.0], [-1.0, 0.5]],
      "std": 0.1, "n_per_mode": 4}, None, {"theta_c_exact": False}),
    # so wide a pair splits before the schedule starts: theta_c < theta(1)
    ({"kind": "csv"}, "-300,0\n300,0\n", {"s_c": None, "theta_c_exact": False}),
    ({"kind": "csv"}, "0.5,2\n", {"theta_c": 1.0, "s_c": 0.0,
                                   "theta_c_exact": False}),
], ids=["certified_sphere", "mixture", "wide_pair", "single_point"])
def test_bifurcate_reads_the_critical_level_from_its_dataset(
        tmp_path, dataset, points, expect):
    if points is not None:
        (tmp_path / "points.csv").write_text(points)
        dataset = {**dataset, "path": str(tmp_path / "points.csv")}
    code, out = run_cli(tmp_path, "bifurcate", {"dataset": dataset,
                                                "bifurcate": {"theta_count": 8}})
    assert code == 0
    crit = json.loads((out / "critical.json").read_text())
    assert {k: crit[k] for k in expect} == expect
    if crit["s_c"] is not None:
        assert crit["s_c"] == VpSchedule().invert_theta(crit["theta_c"])


def test_bifurcate_seed_flag_draws_the_dataset(tmp_path):
    cfg = {"dataset": {"kind": "hypersphere", "d": 3, "n": 8, "seed": 0},
           "bifurcate": {"theta_count": 8}}
    crit, seeds = [], []
    for seed in ("11", "12"):
        code, out = run_cli(tmp_path, "bifurcate", cfg, "--seed", seed)
        assert code == 0
        crit.append(json.loads((out / "critical.json").read_text())["theta_c"])
        seeds.append(json.loads((out / "manifest.json").read_text())
                     ["config"]["dataset"]["seed"])
    assert crit[0] != crit[1]
    assert seeds == [11, 12]


def test_bifurcate_consumes_sweep_table(tmp_path):
    table = tmp_path / "sweep_table.csv"
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    vals = [5.0, 1.0, 1.0, 1.0, 1.0]  # flat plateau, sharp rise at 0.2
    header = "dataset," + ",".join(f"s={g}" for g in grid)
    table.write_text(header + "\ntwo_point_1d," +
                     ",".join(str(v) for v in vals) + "\n")
    cfg = {"bifurcate": {"theta_count": 8, "sweep_csv": str(table)}}
    code, out = run_cli(tmp_path, "bifurcate", cfg)
    assert code == 0
    crit = json.loads((out / "critical.json").read_text())
    assert crit["knee"]["s_start"] == pytest.approx(0.4)
    assert not crit["knee"]["low_confidence"]


def test_bifurcate_rejects_malformed_sweep_table(tmp_path, capsys):
    table = tmp_path / "bad.csv"
    table.write_text("just,two\ncolumns,here\n")
    cfg = {"bifurcate": {"sweep_csv": str(table)}}
    code, _ = run_cli(tmp_path, "bifurcate", cfg)
    assert code == 2
    assert "sweep_csv" in capsys.readouterr().err


def test_dataset_generate_and_seed_override(tmp_path):
    cfg = {"dataset": {"kind": "hypersphere", "d": 2, "n": 12, "seed": 1}}
    code, out = run_cli(tmp_path, ["dataset", "generate"], cfg)
    assert code == 0
    pts = np.loadtxt(out / "points.csv", delimiter=",")
    assert pts.shape == (12, 2)
    _, out2 = run_cli(tmp_path, ["dataset", "generate"], cfg, "--seed", "9")
    pts2 = np.loadtxt(out2 / "points.csv", delimiter=",")
    assert not np.array_equal(pts, pts2)
    manifest = json.loads((out2 / "manifest.json").read_text())
    assert manifest["config"]["dataset"]["seed"] == 9


def test_dataset_normalize_defaults_to_unit_radius(tmp_path):
    cfg = {"dataset": {"kind": "gaussian_mixture", "centers": [[0.4, -0.2]],
                       "std": 1.0, "n_per_mode": 12}}
    code, out = run_cli(tmp_path, ["dataset", "normalize"], cfg)
    assert code == 0
    pts = np.loadtxt(out / "points.csv", delimiter=",")
    assert np.allclose(np.linalg.norm(pts, axis=1), 1.0, atol=1e-9)
    assert np.allclose(pts.mean(axis=0), 0.0, atol=1e-9)


def test_dataset_inspect_prints_report(tmp_path, capsys):
    cfg = {"dataset": {"kind": "two_point_1d"}}
    code, out = run_cli(tmp_path, ["dataset", "inspect"], cfg)
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["n_points"] == 2 and report["dim"] == 1
    assert report["centered"] is True
    assert json.loads((out / "inspect.json").read_text())["radius"] == 1.0


def test_config_errors_exit_2(tmp_path, capsys):
    cases = [
        ("sample", {"dataset": {"kind": "two_point_1d"}}),          # no sampler
        ("sample", {**SAMPLE_CFG,
                    "sampler": {"kind": "pndm", "n_steps": 5}}),    # unknown kind
        ("sample", {"dataset": {"kind": "hypersphere", "d": 2, "n": 8,
                                "r": -1.0}, **{k: v for k, v in
                                               SAMPLE_CFG.items()
                                               if k == "sampler"}}),
        ("sweep", SAMPLE_CFG),                                      # no sweep
        ("bifurcate", {"dataset": {"kind": "hypersphere", "d": 3, "n": 8,
                                   "r": float("nan")},
                       "bifurcate": {}}),                           # NaN
    ]
    for command, cfg in cases:
        code, _ = run_cli(tmp_path, command, cfg)
        assert code == 2
        assert capsys.readouterr().err.startswith("error:")


def test_short_sweep_grid_exits_2_before_sampling(tmp_path, capsys):
    cfg = {**SAMPLE_CFG, "sweep": {"s_start_grid": [0.2, 0.6, 1.0]}}
    code, out = run_cli(tmp_path, "sweep", cfg)
    assert code == 2
    assert "sweep.s_start_grid" in capsys.readouterr().err
    assert list(out.iterdir()) == []


SWEEP_HEADER = "dataset,s=0.2,s=0.4,s=0.6,s=0.8,s=1\n"


@pytest.mark.parametrize("command, cfg, extra, table", [
    ("sample", {**SAMPLE_CFG, "sampler": {**SAMPLE_CFG["sampler"],
                                          "seed": 2 ** 64}}, [], None),
    ("sample", SAMPLE_CFG, ["--seed", str(2 ** 64)], None),
    ("bifurcate", {"bifurcate": {"theta_count": 8}}, ["--seed", str(2 ** 64)],
     None),
    ("bifurcate", {"dataset": {"kind": "hypersphere", "d": 3, "n": 8,
                               "r": float("nan")},
                   "bifurcate": {"theta_count": 8}}, [], None),
    (["dataset", "generate"], {"dataset": {"kind": "hypersphere", "d": 2,
                                           "n": 5, "seed": 2 ** 64}}, [], None),
    ("sample", {**SAMPLE_CFG, "sampler": {**SAMPLE_CFG["sampler"],
                                          "s_min": 10 ** 400}}, [], None),
    ("sample", {**SAMPLE_CFG, "sampler": {**SAMPLE_CFG["sampler"],
                                          "s_start": 10 ** 400}}, [], None),
    (["dataset", "generate"], {"dataset": {
        "kind": "gaussian_mixture", "centers": [[1.0, 2.0], [3.0]],
        "std": 0.1, "n_per_mode": 2}}, [], None),
    (["dataset", "generate"], {"dataset": {
        "kind": "gaussian_mixture", "centers": [["a", 2.0]],
        "std": 0.1, "n_per_mode": 2}}, [], None),
    ("bifurcate", {}, [], SWEEP_HEADER + "x,5,1,nan,1,1\n"),
    ("bifurcate", {}, [], SWEEP_HEADER + "x,5,1,inf,1,1\n"),
    ("bifurcate", {}, [], "dataset,s=0.2,s=0.2,s=0.6,s=0.8,s=1\nx,5,1,1,1,1\n"),
    ("scan", {**SAMPLE_CFG, "scan": {"times": [0.5], "n_alpha": 5,
                                     "smoothing_window": 3}}, [], None),
    (["dataset", "normalize"], {"dataset": [1, 2]}, [], None),
    (["dataset", "normalize"], {"dataset": "abc"}, [], None),
    (["dataset", "normalize"], {"dataset": None}, [], None),
    ("sweep", {**SAMPLE_CFG, "sampler": {**SAMPLE_CFG["sampler"],
                                          "seed": 2 ** 64 - 1},
               "sweep": {"s_start_grid": [0.2, 0.4, 0.6, 0.8, 1.0],
                         "repeats": 2}}, [], None),
], ids=["sampler_seed", "flag_seed", "bifurcate_flag_seed",
        "bifurcate_nan_dataset_r", "dataset_seed",
        "huge_s_min", "huge_s_start", "ragged_centers", "text_center",
        "nan_sweep_table", "inf_sweep_table", "repeated_sweep_column",
        "short_scan_grid", "normalize_list_dataset", "normalize_text_dataset",
        "normalize_empty_dataset", "sweep_last_repeat_seed"])
def test_bad_inputs_exit_2_before_writing(tmp_path, capsys, command, cfg,
                                          extra, table):
    if table is not None:
        path = tmp_path / "sweep_table.csv"
        path.write_text(table)
        cfg = {"bifurcate": {"theta_count": 8, "sweep_csv": str(path)}}
    code, out = run_cli(tmp_path, command, cfg, *extra)
    assert code == 2
    assert capsys.readouterr().err.startswith("error:")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command, cfg", [
    ("bifurcate", {"dataset": {"kind": "two_point_1d"},
                   "bifurcate": {"theta_count": 8}}),
    ("sample", SAMPLE_CFG),
    ("sample", {**SAMPLE_CFG, "sampler": {**SAMPLE_CFG["sampler"],
                                          "trajectories": True}}),
    ("sweep", {**SAMPLE_CFG,
               "sweep": {"s_start_grid": [0.2, 0.4, 0.6, 0.8, 1.0]}}),
    ("scan", {"dataset": {"kind": "two_point_1d"},
              "sampler": {"kind": "stochastic_sde", "n_steps": 20, "batch": 4},
              "scan": {"times": [0.5], "n_alpha": 21}}),
    (["dataset", "generate"], {"dataset": {"kind": "hypersphere", "d": 2,
                                           "n": 5}}),
    (["dataset", "normalize"], {"dataset": {"kind": "hypersphere", "d": 2,
                                            "n": 5}}),
    (["dataset", "inspect"], {"dataset": {"kind": "two_point_1d"}}),
])
def test_manifest_lists_every_output(tmp_path, command, cfg):
    code, out = run_cli(tmp_path, command, cfg)
    assert code == 0
    outputs = json.loads((out / "manifest.json").read_text())["outputs"]
    written = {p.name for p in out.iterdir()} - {"manifest.json"}
    assert sorted(outputs) == sorted(written)


@pytest.mark.parametrize("below", [False, True])
def test_out_naming_a_file_exits_2(tmp_path, capsys, below):
    blocker = tmp_path / "taken"
    blocker.write_text("keep me\n")
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(SAMPLE_CFG))
    out = blocker / "sub" if below else blocker
    code = main(["sample", "--config", str(cfg_path), "--out", str(out)])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: --out")
    assert blocker.read_text() == "keep me\n"


def test_seed_flag_equals_config_seed(tmp_path):
    # --seed is written into the config, so the run equals the config seed
    flagged = {**SAMPLE_CFG, "sampler": {**SAMPLE_CFG["sampler"], "seed": 3}}
    configured = {**SAMPLE_CFG, "sampler": {**SAMPLE_CFG["sampler"], "seed": 99}}
    _, out1 = run_cli(tmp_path, "sample", flagged, "--seed", "99")
    _, out2 = run_cli(tmp_path, "sample", configured)
    assert (out1 / "finals.csv").read_bytes() == (out2 / "finals.csv").read_bytes()
    manifest = json.loads((out1 / "manifest.json").read_text())
    assert manifest["config"]["sampler"]["seed"] == 99
    assert manifest["seed_override"] == 99


def test_bad_flags_exit_2(tmp_path, capsys):
    code, _ = run_cli(tmp_path, "sample", SAMPLE_CFG, "--threads", "0")
    assert code == 2
    code, _ = run_cli(tmp_path, "sample", SAMPLE_CFG, "--seed", "-1")
    assert code == 2
    assert "error:" in capsys.readouterr().err


def test_diverged_sampler_exits_3(tmp_path, capsys):
    cfg = {"dataset": {"kind": "two_point_1d"},
           "schedule": {"beta_max": 1.0e8},
           "sampler": {"kind": "stochastic_sde", "n_steps": 50, "batch": 4}}
    with np.errstate(all="ignore"):
        code, _ = run_cli(tmp_path, "sample", cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_stalled_normalization_exits_3(tmp_path, capsys):
    # two tight antipodal clusters make the center/project alternation
    # contract too slowly to certify within its iteration budget
    cfg = {"dataset": {"kind": "gaussian_mixture",
                       "centers": [[5.0, 1.0], [-3.0, 2.0]],
                       "std": 0.1, "n_per_mode": 6}}
    code, _ = run_cli(tmp_path, ["dataset", "normalize"], cfg)
    assert code == 3
    assert capsys.readouterr().err.startswith("numerical failure:")


def test_console_entry_point_round_trip(tmp_path):
    cfg_path = tmp_path / "cfg.yaml"
    cfg_path.write_text(yaml.safe_dump(SAMPLE_CFG))
    outs = []
    for name in ("a", "b"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, "-m", "symbreak.cli", "sample",
             "--config", str(cfg_path), "--out", str(out)],
            capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        outs.append((out / "finals.csv").read_bytes())
    assert outs[0] == outs[1]
