"""Each benchmark check passes on a real round's output and fails on a
deliberately perturbed copy of it.

    python3 -m pytest bench -q
"""

import dataclasses
import json
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import spans
import workloads

SEED = 3


def _round(name, tmp_path_factory):
    wl = workloads.WORKLOADS[name]
    ctx = wl.setup(SEED, tmp_path_factory.mktemp(name))
    return wl, ctx, wl.run(ctx)


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    return _round("sweep_sde_gmm", tmp_path_factory)


@pytest.fixture(scope="module")
def ddim(tmp_path_factory):
    return _round("ddim_gls_short", tmp_path_factory)


@pytest.fixture(scope="module")
def wide(tmp_path_factory):
    return _round("wide_sphere", tmp_path_factory)


@pytest.fixture(scope="module")
def landscape(tmp_path_factory):
    return _round("landscape", tmp_path_factory)


@pytest.mark.parametrize("fixture", ["sweep", "ddim", "wide", "landscape"])
def test_every_check_passes_on_real_output(fixture, request):
    wl, ctx, out = request.getfixturevalue(fixture)
    assert wl.check(ctx, out) == []


def test_sweep_checks_catch_perturbations(sweep):
    _, ctx, out = sweep
    ref = ctx.model.dataset.points
    values, finals = out["values"], out["finals"]
    assert checks.frechet_matches(ref, finals, values * 1.01, (0, 4, 9))
    noisy = finals[-1] + 0.01 * np.random.default_rng(0).standard_normal(finals[-1].shape)
    width = checks.kernel_width(ctx.scfg.s_min)
    assert checks.finals_on_data(finals[-1], ref, width, 0.95) == []
    assert checks.finals_on_data(noisy, ref, width, 0.95)
    centers = workloads.GMM_CENTERS
    assert checks.entropy_near(out["entropy"] + 1e-6, finals[-1], centers, np.log(4.0), 0.03)
    one_mode = np.repeat(finals[-1][:1], len(finals[-1]), axis=0)
    assert checks.entropy_near(0.0, one_mode, centers, np.log(4.0), 0.03)
    flat = values.copy()
    flat[0] = flat[-1]
    s_c = checks.gmm_critical_s(ref)
    assert checks.degradation_exceeds_plateau(ctx.grid, values, s_c) == []
    assert checks.degradation_exceeds_plateau(ctx.grid, flat, s_c)


def test_ddim_checks_catch_perturbations(ddim):
    _, ctx, out = ddim
    inits = list(out["gls_inits"])
    inits[1] = dataclasses.replace(inits[1], mean=inits[1].mean * 1.001)
    assert checks.gls_moments(inits, ctx.grid, ctx.model.dataset.points)
    inits[1] = dataclasses.replace(out["gls_inits"][1],
                                   covariance=out["gls_inits"][1].covariance * 1.001)
    assert checks.gls_moments(inits, ctx.grid, ctx.model.dataset.points)
    swapped = {(n, init): out["values"][n, other]
               for n in (3, 5, 10)
               for init, other in (("gls", "standard_normal"),
                                   ("standard_normal", "gls"))}
    assert checks.gls_no_worse(out["values"], (3, 5)) == []
    assert checks.gls_no_worse(swapped, (3, 5))


def test_wide_checks_catch_perturbations(wide):
    wl, ctx, out = wide
    assert checks.norms_equal(out["finals"] * (1 + 1e-6), 1.0)
    scores = out["scores"].copy()
    scores[8] += 1e-6 * np.abs(scores[8]).max()
    assert checks.score_rows_match(ctx.probes, scores, ctx.model.dataset.points,
                                   ctx.scfg.s_start, wl.probe_rows)


def test_landscape_checks_catch_perturbations(landscape):
    wl, ctx, out = landscape
    assert checks.exit_codes_zero({**out["codes"], "scan": 3})
    report = json.loads((ctx.out["bifurcate"] / "critical.json").read_text())
    assert checks.critical_value({"theta_c_1d": report["theta_c_1d"] + 1e-9})
    rows = (ctx.out["bifurcate"] / "branches.csv").read_text().splitlines()[1:]
    rows = [r.split(",") for r in rows]
    thetas = np.linspace(0.05, 0.995, 96)
    assert checks.branch_counts(rows, thetas) == []
    upper = next(i for i, r in enumerate(rows) if r[0] == "upper")
    assert checks.branch_counts(rows[:upper] + rows[upper + 1:], thetas)
    profiles = out["scan"].values
    assert checks.well_counts([profiles[0], profiles[0]], wl.scan_thetas)
    assert checks.well_counts([profiles[1], profiles[1]], wl.scan_thetas)

    table = workloads.read_scan(ctx.out["scan"] / "scan.csv")
    direct = wl._direct_scan(ctx, table)
    scaled = [dict(r, values=r["values"] * 1.02) for r in table]
    assert checks.scan_matches_direct(scaled, direct)
    miscounted = [dict(r, n_minima=r["n_minima"] + 1) for r in table]
    assert checks.scan_matches_direct(miscounted, direct)

    report = json.loads((ctx.out["inspect"] / "inspect.json").read_text())
    assert checks.inspect_report(dict(report, min_norm=0.99), 256, 8)
    finals = out["run"].finals
    assert checks.finals_equal(np.nextafter(finals, np.inf), finals)
    values = out["corr"].values + 1e-6
    assert checks.correlation_entries(values, out["run"].trajectories, [(3, 5)])
    points = [p.x * (1 + 1e-6) for p in out["fixed"].points]
    assert checks.fixed_points_consistent(points, out["model"].dataset.points,
                                          wl.fixed_point_theta)


def test_benchmark_json_names_what_the_runner_reports():
    spec = json.loads((Path(run.BENCH).parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"])
            for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == spans.PER_LAYER
