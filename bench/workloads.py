"""The benchmark's workloads.

Each workload makes its inputs from one seed in `setup`, does one round of
fixed work in `run` through the package's public API and CLI, and checks a
round's outputs in `check`.  `run` may call `lap()` between operations to
split a long round into separately calibrated timing segments.  `setup` returns a context holding the built
inputs plus two constants of the inputs: `items` (requested chain-steps,
plus scan path points for `landscape`) and `ops` (sampler runs, CLI
invocations and analysis calls in one round).
"""

from __future__ import annotations

import contextlib
import csv
import json
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import yaml

from symbreak import analysis, bifurcation, cli, config, samplers

import checks

GMM_CENTERS = [[2.4, 0.6], [0.9, -0.4], [-1.6, 0.8], [-0.4, -2.0]]
S_GRID_10 = [round(0.1 * k, 1) for k in range(1, 11)]


@dataclass(frozen=True)
class CalibrationShape:
    """A workload's calibration loop (run.Calibration): `streams` Philox
    generators with one draw each, `reps` softmax-weighted means of a
    batch x points x dim kernel, and an interpreter loop of `loops` steps,
    mixed like the workload's own time; `reference_s` is the loop's median
    time on the reference machine."""

    streams: int
    batch: int
    points: int
    dim: int
    reps: int
    loops: int
    reference_s: float


def _seeds(seed: int) -> tuple[int, int]:
    """Dataset and sampler seeds; never equal, so their streams never coincide."""
    return 2 * seed + 1, 2 * seed


def _gmm(seed: int) -> dict:
    """The anisotropic 4-mode mixture: N=64, D=2, std 0.1."""
    return {"kind": "gaussian_mixture", "centers": GMM_CENTERS, "std": 0.1,
            "n_per_mode": 16, "seed": seed}


class SweepSdeGmm:
    """Late-start sweep of the stochastic SDE over the 10-point s_start grid."""

    name = "sweep_sde_gmm"
    calibration = CalibrationShape(200, 1000, 64, 2, 40, 100_000, 0.038)

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        data_seed, sampler_seed = _seeds(seed)
        cfg = {"dataset": _gmm(data_seed),
               "sampler": {"kind": "stochastic_sde", "n_steps": 100,
                           "batch": 1000, "seed": sampler_seed},
               "sweep": {"s_start_grid": S_GRID_10}}
        model = config.build_model(cfg)
        scfg, batch, _ = config.build_sampler(cfg, model.schedule)
        grid, _ = config.build_sweep(cfg, model.schedule)
        return SimpleNamespace(model=model, scfg=scfg, batch=batch, grid=grid,
                               items=batch * scfg.n_steps * len(grid),
                               ops=2 * len(grid) + 1)

    def run(self, ctx, lap=lambda: None) -> dict:
        ref = ctx.model.dataset.points
        finals = []

        def metric(f):
            finals.append(f)
            return analysis.frechet_gaussian(ref, f).frechet

        sweep = samplers.late_start_sweep(
            ctx.model, ctx.scfg.kind, ctx.scfg.n_steps, ctx.grid, metric,
            init=ctx.scfg.init, batch=ctx.batch, seed=ctx.scfg.seed,
            s_min=ctx.scfg.s_min)
        entropy = analysis.mode_entropy(finals[-1], GMM_CENTERS)
        return {"values": sweep.values[0], "finals": finals, "entropy": entropy}

    def check(self, ctx, out) -> list[str]:
        ref = ctx.model.dataset.points
        full_start = out["finals"][-1]
        return (checks.frechet_matches(ref, out["finals"], out["values"], (0, 4, 9))
                + checks.finals_on_data(full_start, ref,
                                        checks.kernel_width(ctx.scfg.s_min), 0.95)
                + checks.entropy_near(out["entropy"], full_start, GMM_CENTERS,
                                      np.log(4.0), 0.03)
                + checks.degradation_exceeds_plateau(
                    ctx.grid, out["values"], checks.gmm_critical_s(ref)))


class DdimGlsShort:
    """DDIM at 3, 5 and 10 steps, standard-normal vs gls init, B=6000."""

    name = "ddim_gls_short"
    calibration = CalibrationShape(600, 6000, 64, 2, 5, 50_000, 0.045)
    steps = (3, 5, 10)
    inits = ("standard_normal", "gls")

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        data_seed, sampler_seed = _seeds(seed)
        base = {"dataset": _gmm(data_seed),
                "sweep": {"s_start_grid": [0.3, 0.5, 1.0]}}
        model = config.build_model(base)
        grid, _ = config.build_sweep(base, model.schedule)
        runs = {}
        for n in self.steps:
            for init in self.inits:
                cfg = dict(base, sampler={"kind": "ddim", "n_steps": n,
                                          "init": init, "batch": 6000,
                                          "seed": sampler_seed})
                runs[n, init] = config.build_sampler(cfg, model.schedule)[:2]
        return SimpleNamespace(
            model=model, grid=grid, runs=runs,
            items=len(grid) * sum(b * c.n_steps for c, b in runs.values()),
            ops=2 * len(runs) * len(grid) + len(grid))

    def run(self, ctx, lap=lambda: None) -> dict:
        ref = ctx.model.dataset.points
        metric = lambda f: analysis.frechet_gaussian(ref, f).frechet
        values = {}
        for key, (scfg, batch) in ctx.runs.items():
            values[key] = samplers.late_start_sweep(
                ctx.model, scfg.kind, scfg.n_steps, ctx.grid, metric,
                init=scfg.init, batch=batch, seed=scfg.seed,
                s_min=scfg.s_min).values[0]
            lap()
        inits = [samplers.gls_init(ctx.model, s) for s in ctx.grid]
        return {"values": values, "gls_inits": inits}

    def check(self, ctx, out) -> list[str]:
        return (checks.gls_moments(out["gls_inits"], ctx.grid,
                                   ctx.model.dataset.points)
                + checks.gls_no_worse(out["values"], (3, 5)))


class WideSphere:
    """Ancestral DDPM with a gls late start on a 2048-point sphere in D=64."""

    name = "wide_sphere"
    calibration = CalibrationShape(0, 512, 2048, 64, 2, 0, 0.039)
    probe_rows = range(0, 64, 8)

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        data_seed, sampler_seed = _seeds(seed)
        cfg = {"dataset": {"kind": "hypersphere", "d": 64, "r": 1.0,
                           "n": 2048, "seed": data_seed},
               "sampler": {"kind": "ancestral_ddpm", "n_steps": 30,
                           "s_start": 0.3, "init": "gls", "batch": 512,
                           "seed": sampler_seed}}
        model = config.build_model(cfg)
        scfg, batch, _ = config.build_sampler(cfg, model.schedule)
        # 64 probe states drawn from the noised marginal at s_start
        rng = np.random.default_rng(seed)
        pts = model.dataset.points
        th = checks.theta(scfg.s_start)
        probes = (th * pts[rng.integers(0, len(pts), 64)]
                  + np.sqrt(1.0 - th * th) * rng.standard_normal((64, pts.shape[1])))
        return SimpleNamespace(model=model, scfg=scfg, batch=batch,
                               probes=probes, items=batch * scfg.n_steps, ops=2)

    def run(self, ctx, lap=lambda: None) -> dict:
        run = samplers.run_sampler(ctx.model, ctx.scfg, ctx.batch)
        scores = ctx.model.score_batch(ctx.probes, ctx.scfg.s_start)
        return {"finals": run.finals, "scores": scores}

    def check(self, ctx, out) -> list[str]:
        return (checks.norms_equal(out["finals"], 1.0)
                + checks.score_rows_match(ctx.probes, out["scores"],
                                          ctx.model.dataset.points,
                                          ctx.scfg.s_start, self.probe_rows))


class Landscape:
    """CLI dataset/sample/scan/bifurcate plus trajectory analysis in the API."""

    name = "landscape"
    calibration = CalibrationShape(20, 64, 256, 8, 20, 300_000, 0.035)
    batch = 64
    scan_thetas = (0.5, 0.96)  # below and above the critical 0.6436
    n_alpha = 141
    fixed_point_theta = 0.97
    bifurcate = {"theta_start": 0.05, "theta_stop": 0.995, "theta_count": 96}

    def setup(self, seed: int, workdir: Path) -> SimpleNamespace:
        data_seed, sampler_seed = _seeds(seed)
        out = {c: workdir / c for c in ("generate", "normalize", "inspect",
                                        "sample", "scan", "bifurcate")}
        line = workdir / "line.csv"
        line.write_text("-1,0\n1,0\n")
        normalized = {"kind": "csv", "path": str(out["normalize"] / "points.csv")}
        sde = {"kind": "stochastic_sde", "batch": self.batch, "seed": sampler_seed}
        cfgs = {
            "generate": {"dataset": {"kind": "hypersphere", "d": 8, "n": 256,
                                     "seed": data_seed}},
            "inspect": {"dataset": normalized},
            "sample": {"dataset": normalized,
                       "sampler": dict(sde, n_steps=100, trajectories=True)},
            "scan": {"dataset": {"kind": "csv", "path": str(line)},
                     "sampler": dict(sde, n_steps=200),
                     "scan": {"theta_targets": list(self.scan_thetas),
                              "n_alpha": self.n_alpha}},
            "bifurcate": {"bifurcate": self.bifurcate},
        }
        paths = {}
        for name, cfg in cfgs.items():
            paths[name] = workdir / f"{name}.yaml"
            paths[name].write_text(yaml.safe_dump(cfg))
        # normalize re-reads the generate config; the CLI adds radius 1
        commands = {f"dataset {action}": ["dataset", action, "--config",
                                          str(paths[cfg]), "--out", str(out[action])]
                    for action, cfg in (("generate", "generate"),
                                        ("normalize", "generate"),
                                        ("inspect", "inspect"))}
        commands.update({c: [c, "--config", str(paths[c]), "--out", str(out[c])]
                         for c in ("sample", "scan", "bifurcate")})
        # fixed scan anchors near the two data points (-1, 0) and (1, 0)
        lift = np.random.default_rng(seed).uniform(0.0, 0.1, 2)
        anchors = (np.array([[1.0, lift[0]]] * 2), np.array([[-1.0, lift[1]]] * 2))
        chain_steps = self.batch * (100 + 200 + 100)
        return SimpleNamespace(
            commands=commands, out=out, paths=paths, seed=seed, anchors=anchors,
            items=chain_steps + 2 * len(self.scan_thetas) * self.n_alpha,
            ops=len(commands) + 4)

    def run(self, ctx, lap=lambda: None) -> dict:
        with contextlib.redirect_stdout(None):  # `dataset inspect` prints its report
            codes = {label: cli.main(argv) for label, argv in ctx.commands.items()}
        cfg = config.load_config(ctx.paths["sample"])
        model = config.build_model(cfg)
        scfg, batch, keep = config.build_sampler(cfg, model.schedule)
        run = samplers.run_sampler(model, scfg, batch, keep_trajectories=keep)
        corr = analysis.correlation_trajectory(run)
        node = int(np.argmin(np.abs(model.schedule.theta_at(run.s_grid)
                                    - self.fixed_point_theta)))
        fixed = bifurcation.fixed_points_general(
            model, self.fixed_point_theta, list(run.trajectories[:16, node]))
        line = config.build_model(config.load_config(ctx.paths["scan"]))
        times = [line.schedule.horizon - line.schedule.invert_theta(th)
                 for th in self.scan_thetas]
        scan = analysis.potential_scan(line, *ctx.anchors,
                                       analysis.default_alpha_grid(self.n_alpha), times)
        return {"codes": codes, "model": model, "run": run, "corr": corr,
                "fixed": fixed, "scan": scan}

    def check(self, ctx, out) -> list[str]:
        fails = checks.exit_codes_zero(out["codes"])
        if fails:
            return fails
        o = ctx.out
        report = json.loads((o["bifurcate"] / "critical.json").read_text())
        with open(o["bifurcate"] / "branches.csv", newline="") as fh:
            branches = list(csv.reader(fh))[1:]
        thetas = np.linspace(self.bifurcate["theta_start"],
                             self.bifurcate["theta_stop"],
                             self.bifurcate["theta_count"])
        table = read_scan(o["scan"] / "scan.csv")
        run, data = out["run"], out["model"].dataset.points
        rng = np.random.default_rng(ctx.seed)
        n_nodes, n_chains = out["corr"].values.shape
        entries = list(zip(rng.integers(0, n_nodes, 16), rng.integers(0, n_chains, 16)))
        return (fails
                + checks.critical_value(report)
                + checks.branch_counts(branches, thetas)
                + checks.well_counts(out["scan"].values, self.scan_thetas)
                + checks.scan_matches_direct(table, self._direct_scan(ctx, table))
                + checks.inspect_report(
                    json.loads((o["inspect"] / "inspect.json").read_text()), 256, 8)
                + checks.finals_equal(np.loadtxt(o["sample"] / "finals.csv",
                                                 delimiter=",", ndmin=2), run.finals)
                + checks.correlation_entries(out["corr"].values, run.trajectories,
                                             entries)
                + checks.fixed_points_consistent([p.x for p in out["fixed"].points],
                                                 data, self.fixed_point_theta))

    def _direct_scan(self, ctx, table) -> list[np.ndarray]:
        """Potential along the scan's path by direct evaluation.

        Re-runs the scan's sampler through the API and picks the anchors as
        the CLI documents: chain 0, plus the first chain whose final is
        nearest a different data point.
        """
        cfg = config.load_config(ctx.paths["scan"])
        model = config.build_model(cfg)
        scfg, batch, _ = config.build_sampler(cfg, model.schedule)
        run = samplers.run_sampler(model, scfg, batch, keep_trajectories=True)
        pts = model.dataset.points
        modes = np.argmin(np.sum((run.finals[:, None] - pts[None]) ** 2, axis=2), axis=1)
        others = np.flatnonzero(modes != modes[0])
        second = int(others[0]) if others.size else 1
        alpha = np.linspace(-np.pi / 5.0, 7.0 * np.pi / 10.0, self.n_alpha)
        t_nodes = model.schedule.horizon - run.s_grid
        rows = []
        for row in table:
            k = int(np.argmin(np.abs(t_nodes - row["time"])))
            x1, x2 = run.trajectories[0, k], run.trajectories[second, k]
            path = np.cos(alpha)[:, None] * x1 + np.sin(alpha)[:, None] * x2
            rows.append(model.potential_batch(path, row["time"]))
        return rows


def read_scan(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    return [{"time": float(r[0]), "theta": float(r[2]), "n_minima": int(r[3]),
             "values": np.array([float(v) for v in r[4:]])} for r in rows]


WORKLOADS = {w.name: w for w in (SweepSdeGmm(), DdimGlsShort(), WideSphere(),
                                 Landscape())}
