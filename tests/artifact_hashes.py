"""Print one `name sha256` line for each CLI artifact and API output.

    PYTHONPATH=src python3 tests/artifact_hashes.py > hashes.txt
    PYTHONPATH=src python3 tests/artifact_hashes.py --arrays DIR > hashes.txt
    PYTHONPATH=src python3 tests/artifact_hashes.py --delta DIR_A DIR_B

Run it on two checkouts, each with its own `src` on PYTHONPATH, and `diff`
the two outputs: the names that differ are the bytes a change moved.
`--arrays DIR` also writes each API output to `DIR/<name>.npy`, or, for an
output of several parts, to `DIR/<name>/<part>.npy` (a `score`'s
log_density, score and weights; a `run_sampler`'s s_grid, finals and
trajectories; a fixed-point set's parts by index), and each CSV
artifact's numbers or NPY artifact's array to `DIR/<name>.npy`.
`--delta A B` then prints `name max|A - B|` for each array found in both
dumps, largest first (`shape` where the shapes differ, `nan` where only one
side is NaN).  It covers

- 13 CLI runs with `--seed 11`: `sample` with trajectories for each sampler
  kind, and once more at D=2 and B=1000, whose finals span the CSV
  writer's chunks; two `sweep`s, one `scan`, `bifurcate` with and without a
  dataset, and `dataset generate`, `normalize` and `inspect`, with one more
  `generate` from a CRLF `csv` file of edge cells (-0.0, the least
  subnormal, the largest float) and a blank line;
- the benchmark's `landscape` commands (`bench/workloads.py`) at bench
  seeds 0, 3 and 7;
- every `ExactScoreModel` batch method, `score` and `hessian` on the
  two-point, a 3-mode mixture and an N=2048, D=64 sphere sample, at
  batches 1, 7 and 513 and four forward times;
- `run_sampler` for each kind and init, once at the benchmark's
  `wide_sphere` shape, whose step noise is drawn in chunks, and at shapes
  either side of the rule for drawing noise whole: criterion 8's mixture
  at B=6000 (41 SDE steps, each init), drawn in chunks, the last one
  step wide, and a D=8 sphere sample at B=64 (100 SDE steps), drawn whole;
  and 3-step DDIM on criterion 8's mixture at B=6000 for each init, whose
  two-column draw takes `rng.chain_normals`' narrow path across several
  row blocks, with some rows redrawn;
  `fixed_points_general`, `frechet_gaussian` and `critical_theta_cov`.

The two `gmm4_B6000_ddim` lines came with the narrow draw, after the
script printed 319 lines; those 319 lines did not change with it.

Manifests are skipped: they hold wall times.  This is a script, not a
collected test.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import sys
import tempfile
from pathlib import Path

import numpy as np
import yaml

from symbreak import (EmpiricalDataset, ExactScoreModel, SamplerConfig,
                      VpSchedule, analysis, bifurcation, center_and_normalize,
                      cli, gaussian_mixture, hypersphere, run_sampler,
                      two_point_1d)

BENCH = Path(__file__).resolve().parent.parent / "bench"
BENCH_SEEDS = (0, 3, 7)
GMM3 = [[1.5, 0.3], [-0.6, 1.2], [-1.4, -0.7]]
GMM4 = [[2.4, 0.6], [0.9, -0.4], [-1.6, 0.8], [-0.4, -2.0]]  # criterion 8's


def digest(*parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(repr((part.dtype.str, part.shape)).encode())
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            h.update(repr(part).encode())
    return h.hexdigest()


def _save(arrays: Path | None, name: str, value) -> None:
    if arrays is not None:
        path = arrays / f"{name}.npy"
        path.parent.mkdir(parents=True, exist_ok=True)
        np.save(path, np.asarray(value))


def _artifacts(name: str, out: Path, arrays: Path | None):
    for path in sorted(out.iterdir()):
        if path.name != "manifest.json":
            if path.suffix == ".csv":  # a header reads as a row of NaN
                _save(arrays, f"{name}/{path.name}",
                      np.genfromtxt(path, delimiter=",", ndmin=2))
            elif path.suffix == ".npy":
                _save(arrays, f"{name}/{path.name}",
                      np.load(path, allow_pickle=False))
            yield f"{name}/{path.name}", digest(path.read_bytes())


def _cli(name: str, argv: list[str]):
    with contextlib.redirect_stdout(io.StringIO()):  # `dataset inspect` prints
        code = cli.main(argv)
    if code:
        raise SystemExit(f"{name}: exit code {code}")


def cli_hashes(work: Path, arrays: Path | None):
    line = work / "line.csv"
    line.write_text("-1,0\n1,0\n")
    edges = work / "edges.csv"
    edges.write_bytes(b"-0.0,5e-324\r\n\r\n1.7976931348623157e308,-1.5\r\n"
                      b"0.25,2\r\n")
    gmm = {"kind": "gaussian_mixture", "centers": GMM3, "std": 0.08,
           "n_per_mode": 16}
    sphere8 = {"kind": "hypersphere", "d": 8, "n": 64,
               "normalize": {"radius": 1.0}}
    sweep = {"s_start_grid": [0.2, 0.4, 0.6, 0.8, 1.0], "repeats": 2}
    runs = [
        ("sample_sde", "sample", {
            "dataset": {"kind": "two_point_1d"},
            "sampler": {"kind": "stochastic_sde", "n_steps": 20, "batch": 16,
                        "trajectories": True}}),
        ("sample_ancestral", "sample", {
            "dataset": gmm,
            "sampler": {"kind": "ancestral_ddpm", "n_steps": 20, "batch": 16,
                        "init": "gls", "s_start": 0.6, "trajectories": True}}),
        ("sample_ddim", "sample", {
            "dataset": sphere8,
            "sampler": {"kind": "ddim", "n_steps": 10, "batch": 16,
                        "init": "gls", "s_start": 0.5, "trajectories": True}}),
        ("sample_sde_B1000", "sample", {
            "dataset": gmm,
            "sampler": {"kind": "stochastic_sde", "n_steps": 20,
                        "batch": 1000, "trajectories": True}}),
        ("sweep_sde", "sweep", {
            "dataset": gmm, "sweep": sweep,
            "sampler": {"kind": "stochastic_sde", "n_steps": 30, "batch": 200}}),
        ("sweep_ddim", "sweep", {
            "dataset": gmm, "sweep": sweep,
            "sampler": {"kind": "ddim", "n_steps": 5, "batch": 500,
                        "init": "gls"}}),
        ("scan", "scan", {
            "dataset": {"kind": "csv", "path": str(line)},
            "sampler": {"kind": "stochastic_sde", "n_steps": 100, "batch": 8},
            "scan": {"times": [0.2], "theta_targets": [0.5, 0.96],
                     "n_alpha": 61}}),
        ("bifurcate", "bifurcate", {"bifurcate": {"theta_count": 48}}),
        ("bifurcate_dataset", "bifurcate", {
            "dataset": sphere8,
            "bifurcate": {"theta_count": 48, "sweep_csv": str(
                work / "sweep_sde" / "sweep_table.csv")}}),
        ("generate", ["dataset", "generate"], {"dataset": gmm}),
        ("normalize", ["dataset", "normalize"], {"dataset": gmm}),
        ("generate_csv_edges", ["dataset", "generate"], {"dataset": {
            "kind": "csv", "path": str(edges)}}),
        ("inspect", ["dataset", "inspect"], {"dataset": {
            "kind": "csv", "path": str(work / "normalize" / "points.csv")}}),
    ]
    for name, command, cfg in runs:
        path = work / f"{name}.yaml"
        path.write_text(yaml.safe_dump(cfg))
        argv = [command] if isinstance(command, str) else command
        _cli(name, [*argv, "--config", str(path), "--out", str(work / name),
                    "--seed", "11"])
        yield from _artifacts(f"cli/{name}", work / name, arrays)


def landscape_hashes(work: Path, arrays: Path | None):
    sys.path.insert(0, str(BENCH))
    from workloads import Landscape

    for seed in BENCH_SEEDS:
        root = work / f"landscape{seed}"
        root.mkdir()
        ctx = Landscape().setup(seed, root)
        for label, argv in ctx.commands.items():
            _cli(label, argv)
        for label, out in ctx.out.items():
            yield from _artifacts(f"landscape/seed{seed}/{label}", out,
                                  arrays)


def _ring() -> EmpiricalDataset:
    angles = 2 * np.pi * np.arange(12) / 12
    return EmpiricalDataset(np.column_stack([np.cos(angles), np.sin(angles)]),
                            radius=1.0, centered=True)


def _run_parts(run) -> dict:
    return {"s_grid": run.s_grid, "finals": run.finals,
            "trajectories": run.trajectories}


def _parts(value) -> dict:
    """An API output as its named parts, in hashing order."""
    if isinstance(value, dict):
        return value
    if isinstance(value, tuple):
        return {str(i): part for i, part in enumerate(value)}
    return {"": value}


def api_hashes(arrays: Path | None):
    for name, value in api_outputs():
        parts = _parts(value)
        for label, part in parts.items():
            _save(arrays, f"{name}/{label}" if label else name, part)
        yield name, digest(*parts.values())


def delta(a: Path, b: Path) -> None:
    rows = []
    for path in sorted(a.rglob("*.npy")):
        other = b / path.relative_to(a)
        if not other.exists():
            continue
        x, y = np.load(path), np.load(other)
        name = str(path.relative_to(a))[:-len(".npy")]
        if x.shape != y.shape:
            rows.append((np.inf, name, "shape"))
        elif x.dtype.kind not in "fiub":
            rows.append((0.0 if np.array_equal(x, y) else np.inf, name,
                         "equal" if np.array_equal(x, y) else "differ"))
        elif np.any(np.isnan(x) != np.isnan(y)):
            rows.append((np.inf, name, "nan"))
        else:
            both = ~np.isnan(x) & (x != y)  # equal infinities do not move
            d = float(np.max(np.abs(x[both] - y[both]), initial=0.0))
            rows.append((d, name, f"{d:.3g}"))
    for _, name, text in sorted(rows, key=lambda r: -r[0]):
        print(name, text)


def api_outputs():
    schedule = VpSchedule()
    data = {
        "two_point": two_point_1d(),
        "gmm3": gaussian_mixture(GMM3, 0.08, 16, seed=7),
        "sphere64": hypersphere(64, 1.0, 2048, seed=1),
    }
    for dname, ds in data.items():
        model = ExactScoreModel(ds, schedule)
        for batch in (1, 7, 513):
            X = np.random.default_rng(batch).standard_normal((batch, ds.dim))
            for s in (1e-4, 0.05, 0.3, 1.0):
                t = schedule.horizon - s
                key = f"api/{dname}/B{batch}/s{s:g}"
                outputs = {
                    "mixture_logpdf_batch": model.mixture_logpdf_batch(X, s),
                    "posterior_weights_batch": model.posterior_weights_batch(X, s),
                    "score_batch": model.score_batch(X, s),
                    "posterior_mean_batch": model.posterior_mean_batch(X, s),
                    "potential_batch": model.potential_batch(X, t),
                    "potential_gradient_batch":
                        model.potential_gradient_batch(X, t),
                }
                if batch == 1:
                    ev = model.score(X[0], s)
                    outputs["score"] = {"log_density": ev.log_density,
                                        "score": ev.score,
                                        "weights": ev.weights}
                    outputs["hessian"] = model.hessian(X[0], t)
                for method, value in outputs.items():
                    yield f"{key}/{method}", value

    gmm = ExactScoreModel(data["gmm3"], schedule)
    for kind in ("stochastic_sde", "ancestral_ddpm", "ddim"):
        for init in ("standard_normal", "gls"):
            cfg = SamplerConfig(kind=kind, n_steps=10, s_start=0.7, init=init,
                                seed=11)
            run = run_sampler(gmm, cfg, 33, keep_trajectories=True)
            yield f"api/run_sampler/{kind}/{init}", _run_parts(run)
    # 512 chains in D=64: 30 steps of noise are more than one chunk
    cfg = SamplerConfig(kind="ancestral_ddpm", n_steps=30, s_start=0.3,
                        init="gls", seed=11)
    run = run_sampler(ExactScoreModel(data["sphere64"], schedule), cfg, 512,
                      keep_trajectories=True)
    yield "api/run_sampler/wide_sphere", _run_parts(run)
    gmm4 = ExactScoreModel(gaussian_mixture(GMM4, 0.1, 16, seed=7), schedule)
    for init in ("standard_normal", "gls"):
        cfg = SamplerConfig(kind="stochastic_sde", n_steps=41, s_start=1.0,
                            init=init, seed=11)
        run = run_sampler(gmm4, cfg, 6000, keep_trajectories=True)
        yield f"api/run_sampler/gmm4_B6000/{init}", _run_parts(run)
    for init in ("standard_normal", "gls"):
        cfg = SamplerConfig(kind="ddim", n_steps=3, s_start=0.5, init=init,
                            seed=11)
        run = run_sampler(gmm4, cfg, 6000, keep_trajectories=True)
        yield f"api/run_sampler/gmm4_B6000_ddim/{init}", _run_parts(run)
    cfg = SamplerConfig(kind="stochastic_sde", n_steps=100, s_start=1.0,
                        seed=11)
    run = run_sampler(ExactScoreModel(hypersphere(8, 1.0, 256, seed=4),
                                      schedule), cfg, 64, keep_trajectories=True)
    yield "api/run_sampler/sphere8_B64", _run_parts(run)

    fixed = {
        "two_point": (data["two_point"], (0.5, 0.8, 0.95)),
        "gmm3": (data["gmm3"], (0.6, 0.9, 0.97)),
        "sphere8": (center_and_normalize(hypersphere(8, 1.0, 64, seed=5),
                                         r=1.0), (0.7, 0.9, 0.97)),
        "ring12": (_ring(), (0.8, 0.95)),
    }
    for dname, (ds, thetas) in fixed.items():
        model = ExactScoreModel(ds, schedule)
        for theta in thetas:
            res = bifurcation.fixed_points_general(model, theta)
            yield (f"api/fixed_points_general/{dname}/theta{theta:g}",
                   (*(p.x for p in res.points),
                    [p.stability for p in res.points],
                    res.n_seeds, res.failed_seeds))

    rng = np.random.default_rng(5)
    full = rng.standard_normal((200, 3))
    flat = np.column_stack([full[:, :2], np.zeros(200)])
    for name, ref, gen in (("full_rank", full, 0.5 * full[::-1] + 0.2),
                           ("one_flat", flat, full),
                           ("both_flat", flat, 2.0 * flat + 1.0)):
        yield (f"api/frechet_gaussian/{name}",
               analysis.frechet_gaussian(ref, gen).frechet)

    lams = (0.0, 0.25, 1.0, 2.0, 1e3, 9e4, 1e154, 1e200, 1.7e308)
    yield "api/critical_theta_cov", [bifurcation.critical_theta_cov(lam)
                                     for lam in lams]


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--arrays", type=Path, metavar="DIR",
                        help="also write each API output as .npy under DIR")
    parser.add_argument("--delta", type=Path, nargs=2, metavar=("A", "B"),
                        help="print the largest |A - B| of each array in both")
    args = parser.parse_args()
    if args.delta:
        delta(*args.delta)
        return
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        for name, sha in (*cli_hashes(work, args.arrays),
                          *landscape_hashes(work, args.arrays),
                          *api_hashes(args.arrays)):
            print(name, sha)


if __name__ == "__main__":
    main()
