"""Command-line driver: deterministic batch experiments from a YAML config.

Commands: bifurcate, sample, sweep, scan, dataset (generate/normalize/
inspect).  Every command reads one config file, writes CSV/JSON/NPY
artifacts plus a manifest.json into --out, and is bit-reproducible for a
fixed config and seed.  Exit codes: 0 success, 2 config/input error, 3
numerical failure.

--threads is accepted and recorded in the manifest; the numerical kernels
are vectorized single-threaded numpy, so results never depend on it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import hashlib
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import (__version__, analysis, bifurcation, config as cfgmod, datasets,
               rng, samplers)
from .errors import ConfigError, NumericalError, SymbreakError


def _write_json(path: Path, obj) -> None:
    # serialize first, so a value json cannot encode leaves no partial file;
    # default=str writes YAML dates and the like as the config hash sees them
    text = json.dumps(obj, indent=2, sort_keys=True, default=str)
    path.write_text(text + "\n")


def _grid_text(g) -> str:
    """g at 6 significant digits where that reads back as g, else the
    shortest text that does, so a table's header keeps its grid exactly."""
    text = f"{g:.6g}"
    return text if float(text) == g else repr(float(g))


def _knee_report(grid, curve) -> dict:
    knee = samplers.estimate_knee(grid, curve)
    return {"s_start": knee.s_start,
            "second_difference": knee.second_difference,
            "low_confidence": knee.low_confidence}


def _write_manifest(out: Path, command: str, cfg: dict, seed, threads: int,
                    outputs: list[str], t0: float) -> None:
    blob = json.dumps(cfg, sort_keys=True, default=str).encode()
    manifest = {
        "command": command,
        "config": cfg,
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "seed_override": seed,
        "threads": threads,
        "outputs": outputs,
        "wall_time_s": round(time.monotonic() - t0, 3),
        "versions": {
            "python": sys.version.split()[0],
            "numpy": np.__version__,
            "symbreak": __version__,
        },
    }
    _write_json(out / "manifest.json", manifest)


def cmd_bifurcate(cfg: dict, out: Path) -> list[str]:
    settings = cfgmod.build_bifurcate(cfg)
    report = {"theta_c_1d": bifurcation.critical_theta_1d()}
    if cfg.get("dataset") is not None:
        ds, sched = cfgmod.build_dataset(cfg), cfgmod.build_schedule(cfg)
        cov = np.cov(ds.points, rowvar=False, ddof=0).reshape(ds.dim, ds.dim)
        theta_c = bifurcation.critical_theta_cov(np.linalg.eigvalsh(cov)[-1])
        report["theta_c"] = theta_c
        report["theta_c_exact"] = bool(ds.centered and ds.radius > 0)
        report["s_c"] = (sched.invert_theta(theta_c)  # None: theta(1) > theta_c
                         if theta_c >= sched.theta_at(sched.horizon) else None)
    if settings["sweep_csv"]:
        report["knee"] = _knee_report(
            *_read_sweep_table(Path(settings["sweep_csv"])))
    # build the whole report first, so bad input fails before any write
    thetas = np.linspace(settings["theta_start"], settings["theta_stop"],
                         settings["theta_count"])
    bifurcation.write_branches_csv(bifurcation.bifurcation_diagram_1d(thetas),
                                   out / "branches.csv")
    _write_json(out / "critical.json", report)
    return ["branches.csv", "critical.json"]


def cmd_sample(cfg: dict, out: Path) -> list[str]:
    """finals.csv, one row per chain; with `trajectories: true` also
    trajectories.npy, every chain's state at every grid node as a
    (chains, nodes, D) float64 array, and s_grid.csv, the nodes' forward
    times."""
    model = cfgmod.build_model(cfg)
    scfg, batch, keep = cfgmod.build_sampler(cfg, model.schedule)
    run = samplers.run_sampler(model, scfg, batch, keep_trajectories=keep)
    datasets.write_csv(out / "finals.csv", run.finals)
    if not keep:
        return ["finals.csv"]
    np.save(out / "trajectories.npy", run.trajectories, allow_pickle=False)
    datasets.write_csv(out / "s_grid.csv", run.s_grid[:, None], header=["s"])
    return ["finals.csv", "trajectories.npy", "s_grid.csv"]


def cmd_sweep(cfg: dict, out: Path) -> list[str]:
    model = cfgmod.build_model(cfg)
    scfg, batch, _ = cfgmod.build_sampler(cfg, model.schedule)
    grid, repeats = cfgmod.build_sweep(cfg, model.schedule)
    if len(grid) < samplers.KNEE_MIN_POINTS:  # fail before any sampling
        raise ConfigError(f"sweep.s_start_grid: the knee estimate needs at "
                          f"least {samplers.KNEE_MIN_POINTS} points")
    reference = model.dataset.points
    metric = lambda finals: analysis.frechet_gaussian(reference, finals).frechet
    result = samplers.late_start_sweep(
        model, scfg.kind, scfg.n_steps, grid, metric, init=scfg.init,
        batch=batch, seed=scfg.seed, repeats=repeats, s_min=scfg.s_min)
    label = cfg.get("dataset", {}).get("kind", "dataset")
    mean = result.mean()
    datasets.write_csv(out / "sweep_table.csv", [[label, *mean]],
                       header=["dataset"] + [f"s={_grid_text(g)}" for g in grid])
    datasets.write_csv(out / "sweep_runs.csv",
                       ([g, r, v] for r, row in enumerate(result.values)
                        for g, v in zip(grid, row)),
                       header=["s_start", "repeat", "frechet"])
    _write_json(out / "knee.json", _knee_report(np.asarray(grid), mean))
    return ["sweep_table.csv", "sweep_runs.csv", "knee.json"]


def _anchor_pair(model, run) -> tuple[int, int]:
    """First chain, plus the first chain committed to a different data point."""
    modes = analysis.nearest_center(run.finals, model.dataset.points)
    first = 0
    others = np.flatnonzero(modes != modes[first])
    second = int(others[0]) if others.size else min(1, len(modes) - 1)
    return first, second


def cmd_scan(cfg: dict, out: Path) -> list[str]:
    model = cfgmod.build_model(cfg)
    scfg, batch, _ = cfgmod.build_sampler(cfg, model.schedule)
    times, n_alpha, window = cfgmod.build_scan(cfg, model.schedule)
    run = samplers.run_sampler(model, scfg, batch, keep_trajectories=True)
    t_nodes = model.schedule.horizon - run.s_grid
    node_idx = [int(np.argmin(np.abs(t_nodes - t))) for t in times]
    ia, ib = _anchor_pair(model, run)
    x1 = run.trajectories[ia, node_idx]
    x2 = run.trajectories[ib, node_idx]
    node_times = t_nodes[node_idx]
    alpha = analysis.default_alpha_grid(n_alpha)
    scan = analysis.potential_scan(model, x1, x2, alpha, node_times)
    # s is horizon - t, which is not always bit-equal to run.s_grid[idx]
    horizon = model.schedule.horizon
    datasets.write_csv(
        out / "scan.csv",
        ([t, horizon - t, model.schedule.theta_at(horizon - t),
          analysis.count_local_minima(row, window), *row]
         for t, row in zip(node_times, scan.values)),
        header=["time", "s", "theta", "n_minima"]
        + [f"alpha={_grid_text(a)}" for a in alpha])
    return ["scan.csv"]


def cmd_dataset(cfg: dict, out: Path, action: str) -> list[str]:
    ds = cfgmod.build_dataset(cfg)
    if action in ("generate", "normalize"):
        datasets.save_csv(ds, out / "points.csv")
        return ["points.csv"]
    norms = np.linalg.norm(ds.points, axis=1)
    report = {
        "n_points": ds.n_points,
        "dim": ds.dim,
        "mean": [float(v) for v in ds.points.mean(axis=0)],
        "min_norm": float(norms.min()),
        "max_norm": float(norms.max()),
        "radius": ds.radius,
        "centered": ds.centered,
    }
    _write_json(out / "inspect.json", report)
    print(json.dumps(report, sort_keys=True))
    return ["inspect.json"]


def _read_sweep_table(path: Path) -> tuple[np.ndarray, np.ndarray]:
    try:
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
    except OSError as exc:
        raise ConfigError(f"bifurcate.sweep_csv: cannot read {path}: {exc}") from exc
    if len(rows) < 2 or len(rows[0]) < 1 + samplers.KNEE_MIN_POINTS:
        raise ConfigError("bifurcate.sweep_csv: not a sweep table (need a "
                          f"header row and >= {samplers.KNEE_MIN_POINTS} "
                          "s_start columns)")
    try:
        grid = np.array([float(h.split("=", 1)[1]) for h in rows[0][1:]])
        curve = np.array([float(v) for v in rows[1][1:]])
    except (ValueError, IndexError) as exc:
        raise ConfigError(f"bifurcate.sweep_csv: malformed table: {exc}") from exc
    return grid, curve


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process: parsing leaves it
    unchanged, so every `main` call in a process shares it."""
    parser = argparse.ArgumentParser(
        prog="symbreak",
        description="Exact-score diffusion experiments over finite datasets.")
    sub = parser.add_subparsers(dest="command", required=True)

    def _common(p):
        p.add_argument("--config", required=True, help="YAML config path")
        p.add_argument("--out", required=True, help="output directory")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config's sampler/dataset seed")
        p.add_argument("--threads", type=int, default=1,
                       help="recorded in the manifest; results never depend on it")

    _common(sub.add_parser("bifurcate", help="1D branch diagram and critical values"))
    _common(sub.add_parser("sample", help="run a sampler, write finals"))
    _common(sub.add_parser("sweep", help="late-start metric sweep and knee"))
    _common(sub.add_parser("scan", help="potential scans along an interpolation path"))
    pds = sub.add_parser("dataset", help="generate / normalize / inspect a dataset")
    pds.add_argument("action", choices=("generate", "normalize", "inspect"))
    _common(pds)
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    t0 = time.monotonic()
    try:
        if args.threads < 1:
            raise ConfigError("--threads must be >= 1")
        cfg = cfgmod.load_config(args.config)
        out = Path(args.out)
        try:
            out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:  # a file at the path or on the way to it
            raise ConfigError(f"--out: cannot create {out}: {exc}") from exc
        if args.seed is not None:
            rng.check_seed(args.seed, "--seed")
        # the manifest's config is what ran; bifurcate draws only its dataset
        sec = cfg.get("dataset" if args.command in ("dataset", "bifurcate")
                      else "sampler")
        if isinstance(sec, dict):
            if args.seed is not None:
                sec["seed"] = args.seed
            if getattr(args, "action", None) == "normalize":
                sec.setdefault("normalize", {"radius": 1.0})
        if args.command == "bifurcate":
            outputs = cmd_bifurcate(cfg, out)
        elif args.command == "sample":
            outputs = cmd_sample(cfg, out)
        elif args.command == "sweep":
            outputs = cmd_sweep(cfg, out)
        elif args.command == "scan":
            outputs = cmd_scan(cfg, out)
        else:
            outputs = cmd_dataset(cfg, out, args.action)
        _write_manifest(out, args.command, cfg, args.seed, args.threads,
                        outputs, t0)
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except SymbreakError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
