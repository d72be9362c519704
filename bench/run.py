#!/usr/bin/env python3
"""Run one benchmark workload and print its metrics as JSON.

    python3 bench/run.py --workload sweep_sde_gmm --seed 0 --seconds 15 --trace 0

The package is imported from `src/` next to this directory.  With --trace 0
the last stdout line holds the end-to-end metrics (wall_s, items_per_s,
setup_s, peak_mb); with --trace 1 it holds the per-layer metrics.  The line
before it describes the machine and the rounds.  BLAS runs on one thread,
and the process is pinned to one core.

Times in the end-to-end metrics are calibrated: each timing is divided by
the time of the workload's calibration loop run next to it, and multiplied
by that loop's median time on the reference machine (2 cores).  On a shared
machine the core's speed drifts by tens of percent over seconds to minutes;
the ratio cancels most of that drift, and the package's own speed still
moves it one for one.  The raw medians are printed on the info line.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
from pathlib import Path

BENCH = Path(__file__).resolve().parent
SRC = BENCH.parent / "src"
WORK = BENCH / "_work"
BLAS_THREADS = "1"
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_PROBES = 5
MIN_ROUNDS = 3
# name -> (unit, better); the metrics a run with --trace 0 reports.  Their
# bounds are in BENCHMARK.json.
END_TO_END = {
    "wall_s": ("s", "lower"),
    "items_per_s": ("1/s", "higher"),
    "setup_s": ("s", "lower"),
    "peak_mb": ("MB", "lower"),
}


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=15.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="time import plus set-up once, print it and exit")
    return p.parse_args(argv)


def _import_package():
    """Import symbreak from this checkout's src/, not from anywhere else."""
    sys.path.insert(0, str(SRC))
    import symbreak.cli  # noqa: F401  -- every CLI invocation pays this import
    import symbreak
    if not Path(symbreak.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"symbreak was imported from {symbreak.__file__}")


def _blas_threads():
    """Thread count OpenBLAS reports, or None when it cannot be asked."""
    import ctypes
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    for lib in sorted(libs):
        handle = ctypes.CDLL(lib)
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(handle, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def _machine():
    import numpy as np
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"cores": os.cpu_count(), "pinned_to": sorted(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads_setting": BLAS_THREADS, "blas_threads": _blas_threads()}


class Calibration:
    """A plain-numpy stand-in for a workload's hot loop, shaped by its
    `CalibrationShape`, that never touches the package.  It is timed next
    to each measurement, so it meets the same core speed, cache and memory
    traffic as the rounds around it."""

    def __init__(self, shape):
        import numpy as np
        rng = np.random.default_rng(0)
        self.np, self.shape = np, shape
        self.x = rng.standard_normal((shape.batch, shape.dim))
        self.y = rng.standard_normal((shape.points, shape.dim))

    def __call__(self) -> float:
        np, sh, x, y = self.np, self.shape, self.x, self.y
        t0 = time.perf_counter()
        for i in range(sh.streams):
            np.random.Generator(np.random.Philox(key=i)).standard_normal(sh.dim)
        for _ in range(sh.reps):
            logits = x @ y.T
            logits -= logits.max(axis=1, keepdims=True)
            w = np.exp(logits)
            w /= w.sum(axis=1, keepdims=True)
            w @ y
        acc = 0
        for i in range(sh.loops):
            acc += i * i
        return time.perf_counter() - t0


class Stopwatch:
    """Times a round in segments, each divided by the mean of the calibration
    loops run just before and after it.  A workload calls `lap` between
    operations, so a long round is calibrated in short pieces."""

    def __init__(self, calibrate):
        self.calibrate = calibrate
        self.before = calibrate()

    def start(self):
        self.raw = self.ratio = 0.0
        self.t0 = time.perf_counter()

    def lap(self):
        segment = time.perf_counter() - self.t0
        after = self.calibrate()
        self.raw += segment
        self.ratio += segment / (0.5 * (self.before + after))
        self.before = after
        self.t0 = time.perf_counter()


def _setup_times(args) -> list[tuple[float, float]]:
    """(set-up, calibration) pairs, each from a fresh interpreter that times
    import plus set-up as a CLI run pays it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    pairs = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
        setup, calib = proc.stdout.split()[-2:]
        pairs.append((float(setup), float(calib)))
    return pairs


class Run:
    """Rounds of one workload, with their operation and check tallies."""

    def __init__(self, workload, seed, workdir):
        self.workload, self.seed, self.workdir = workload, seed, workdir
        self.attempted = self.failed = 0
        self.failures: list[str] = []

    def round(self, ctx, tracer=None, with_setup=False, watch=None) -> float:
        """One round, checked afterwards; returns its wall time.  With a
        stopwatch, the round is also timed in calibrated segments.  Under
        tracemalloc, `peak_bytes` is the round's peak, before the checks."""
        with tracer.installed() if tracer else contextlib.nullcontext():
            t0 = time.perf_counter()
            if watch:
                watch.start()
            if with_setup:
                ctx = self.workload.setup(self.seed, self.workdir)
            out = self.workload.run(ctx, watch.lap if watch else lambda: None)
            if watch:
                watch.lap()
            elapsed = time.perf_counter() - t0
        if tracemalloc.is_tracing():
            self.peak_bytes = tracemalloc.get_traced_memory()[1]
        self.attempted += ctx.ops
        self.failed += sum(1 for code in out.get("codes", {}).values() if code != 0)
        for msg in self.workload.check(ctx, out):
            if msg not in self.failures:
                self.failures.append(msg)
        return elapsed


def _end_to_end(run: Run, ctx, seconds, probes) -> tuple[dict, dict]:
    calibrate = Calibration(run.workload.calibration)
    calibrate()
    run.round(ctx)  # warm-up: caches fill, lazy set-up finishes
    watch = Stopwatch(calibrate)
    times, ratios = [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(times) < MIN_ROUNDS:
        run.round(ctx, watch=watch)
        times.append(watch.raw)
        ratios.append(watch.ratio)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run.round(ctx)
    finally:
        tracemalloc.stop()
    peak = run.peak_bytes - base
    reference = run.workload.calibration.reference_s
    wall = reference * statistics.median(ratios)
    setup = reference * statistics.median(s / c for s, c in probes)
    values = {"wall_s": wall, "items_per_s": ctx.items / wall,
              "setup_s": setup, "peak_mb": peak / 1e6}
    info = {"rounds": len(times), "raw_wall_s": statistics.median(times),
            "raw_wall_s_quartiles": statistics.quantiles(times, n=4),
            "raw_setup_s": statistics.median(s for s, _ in probes),
            "calibration_s": watch.before, "items": ctx.items, "ops_per_round": ctx.ops}
    return {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in values.items()}, info


def _per_layer(run: Run, ctx, seconds) -> tuple[dict, dict]:
    """Alternate plain and traced units of set-up plus one round."""
    import spans
    run.round(ctx)
    plain, traced, units = [], [], []
    t_end = time.perf_counter() + seconds
    while time.perf_counter() < t_end or len(traced) < MIN_ROUNDS:
        plain.append(run.round(None, with_setup=True))
        tracer = spans.Tracer()
        traced.append(run.round(None, tracer, with_setup=True))
        units.append(tracer.metrics())
    tracer = spans.Tracer(memory=True)
    tracemalloc.start()
    try:
        run.round(None, tracer, with_setup=True)
    finally:
        tracemalloc.stop()
    values = {k: statistics.median(u[k] for u in units) for k in units[0]}
    values["samplers.peak_mb"] = tracer.sampler_peak_bytes / 1e6
    values["trace.overhead_s"] = statistics.median(traced) - statistics.median(plain)
    info = {"units": len(units), "plain_s": statistics.median(plain),
            "traced_s": statistics.median(traced)}
    return {k: {"value": values[k], "unit": unit}
            for k, (unit, _) in spans.PER_LAYER.items()}, info


def main(argv=None) -> int:
    args = _parse(argv)
    for var in THREAD_VARS:  # before numpy loads BLAS
        os.environ[var] = BLAS_THREADS
    # one core for the whole run, so each calibration times the core the
    # rounds next to it ran on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    t0 = time.perf_counter()
    try:
        _import_package()
    except ImportError as exc:
        print(f"error: cannot import symbreak from {SRC}: {exc}", file=sys.stderr)
        return 2
    import workloads
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=WORK) as tmp:
            workdir = Path(tmp)
            ctx = workload.setup(args.seed, workdir)
            if args.setup_probe:
                setup = time.perf_counter() - t0
                calibrate = Calibration(workload.calibration)
                calibrate()  # first call pays one-off costs
                print(setup, statistics.median(calibrate() for _ in range(3)))
                return 0
            run = Run(workload, args.seed, workdir)
            if args.trace:
                metrics, info = _per_layer(run, ctx, args.seconds)
            else:
                metrics, info = _end_to_end(run, ctx, args.seconds, _setup_times(args))
    finally:
        try:
            WORK.rmdir()
        except OSError:  # another run still holds a directory here
            pass
    for msg in run.failures:
        print(f"check failed: {msg}", file=sys.stderr)
    print(json.dumps({"workload": args.workload, "seed": args.seed,
                      "machine": _machine(), **info}))
    print(json.dumps({"correct": not run.failures, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
