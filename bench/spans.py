"""Per-layer spans recorded from outside the package.

`Tracer.installed()` swaps each public function of the package's modules for
a wrapper that times the call, and restores the originals on exit.  The
package itself is unchanged; calls it makes between its own modules go
through module attributes and class methods, so they are timed as well.

A span's self time is its duration minus the durations of the spans it
directly caused.  Spans are folded into totals as they close: self time and
call count per (layer, function), plus the work counts below.
"""

from __future__ import annotations

import contextlib
import functools
import time
import tracemalloc
from collections import defaultdict
from pathlib import Path

import numpy as np

from symbreak import (analysis, bifurcation, cli, config, datasets,
                      exact_score, rng, samplers, schedule)

# ExactScoreModel methods that evaluate the B x N posterior kernel once;
# the remaining public methods only delegate to these.
KERNEL_METHODS = ("mixture_logpdf_batch", "posterior_weights_batch",
                  "score_batch", "posterior_mean_batch", "score",
                  "potential_batch", "hessian")
DELEGATING_METHODS = ("mixture_logpdf", "potential", "potential_gradient_batch",
                      "potential_gradient", "second_derivative_origin_1d",
                      "laplacian_origin")
# Sampler entry points that run the chains; run_sampler delegates to them.
CHAIN_RUNNERS = ("sample_stochastic", "sample_ddim")
DATASET_BUILDERS = ("two_point_1d", "hypersphere", "gaussian_mixture",
                    "center_and_normalize")

FUNCTIONS = {
    "datasets": (datasets, DATASET_BUILDERS + ("save_csv", "load_csv")),
    "samplers": (samplers, ("forward_sample", "gls_init", "run_sampler",
                            "late_start_sweep", "estimate_knee") + CHAIN_RUNNERS),
    "analysis": (analysis, ("default_alpha_grid", "interpolation_path",
                            "potential_scan", "count_local_minima",
                            "frechet_gaussian", "mode_entropy",
                            "correlation_trajectory", "coordinate_trajectories")),
    "bifurcation": (bifurcation, ("critical_theta_1d", "critical_theta_sphere",
                                  "fixed_points_1d", "default_seed_points",
                                  "fixed_points_general", "bifurcation_diagram_1d",
                                  "drift_field", "write_branches_csv")),
    "config": (config, ("load_config", "build_schedule", "parse_time_value",
                        "build_dataset", "build_model", "build_sampler",
                        "build_sweep", "build_scan", "build_bifurcate")),
    "cli": (cli, ("main",)),
}
METHODS = {
    "schedule": (schedule.VpSchedule, ("beta_at", "theta_at", "invert_theta",
                                       "discrete_grid")),
    "exact_score": (exact_score.ExactScoreModel, KERNEL_METHODS + DELEGATING_METHODS),
}
# rng.stream is imported by name into these modules as well
STREAM_USERS = (rng, datasets, samplers, bifurcation)

# name -> (unit, better); the metrics a traced run reports
PER_LAYER = {
    "exact_score.busy_s": ("s", "lower"),
    "exact_score.calls": ("count", "lower"),
    "exact_score.rows": ("count", "lower"),
    "exact_score.kernel_entries": ("count", "lower"),
    "exact_score.bytes_computed": ("bytes", "lower"),
    "samplers.busy_s": ("s", "lower"),
    "samplers.chains": ("count", "higher"),
    "samplers.chain_steps": ("count", "higher"),
    "samplers.gls_init_s": ("s", "lower"),
    "samplers.peak_mb": ("MB", "lower"),
    "rng.stream_us": ("us", "lower"),
    "rng.streams": ("count", "lower"),
    "schedule.busy_s": ("s", "lower"),
    "analysis.busy_s": ("s", "lower"),
    "analysis.frechet_s": ("s", "lower"),
    "analysis.potential_scan_s": ("s", "lower"),
    "analysis.correlation_s": ("s", "lower"),
    "bifurcation.busy_s": ("s", "lower"),
    "datasets.build_s": ("s", "lower"),
    "datasets.csv_s": ("s", "lower"),
    "config.load_s": ("s", "lower"),
    "cli.busy_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


class Tracer:
    """Collects spans of one traced unit of work.

    With memory=True, tracemalloc must be running; each chain-running span
    then records its peak traced bytes above the level at its start.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.self_s = defaultdict(float)  # (layer, function) -> seconds
        self.calls = defaultdict(int)     # (layer, function) -> count
        self.counts = defaultdict(float)  # work counts, by metric name
        self.sampler_peak_bytes = 0
        self._stack: list[list[float]] = []  # child seconds of each open span

    def _wrap(self, layer: str, name: str, fn):
        hook = getattr(self, f"_after_{layer}", None)
        measure_memory = self.memory and name in CHAIN_RUNNERS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if measure_memory:
                tracemalloc.reset_peak()
                base = tracemalloc.get_traced_memory()[0]
            frame = [0.0]
            self._stack.append(frame)
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = time.perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][0] += dur
                self.self_s[layer, name] += dur - frame[0]
                self.calls[layer, name] += 1
                if measure_memory:
                    self.sampler_peak_bytes = max(
                        self.sampler_peak_bytes,
                        tracemalloc.get_traced_memory()[1] - base)
                if hook is not None:
                    hook(name, args, kwargs)
        return wrapper

    def _after_exact_score(self, name, args, kwargs):
        if name not in KERNEL_METHODS:
            return
        model = args[0]
        x = np.shape(_arg(args, kwargs, 1, "x" if name in ("score", "hessian") else "X"))
        rows = x[0] if len(x) == 2 else 1
        n, d = model.dataset.n_points, model.dataset.dim
        self.counts["exact_score.calls"] += 1
        self.counts["exact_score.rows"] += rows
        self.counts["exact_score.kernel_entries"] += rows * n
        # float64 traffic: states in and out, data in, and the B x N matrix
        # written and read twice (logits, then weights)
        self.counts["exact_score.bytes_computed"] += 8 * (2 * rows * d + n * d + 4 * rows * n)

    def _after_samplers(self, name, args, kwargs):
        if name in CHAIN_RUNNERS:
            batch = _arg(args, kwargs, 2, "batch")
            self.counts["samplers.chains"] += batch
            self.counts["samplers.chain_steps"] += batch * _arg(args, kwargs, 1, "config").n_steps

    def _after_cli(self, name, args, kwargs):
        argv = _arg(args, kwargs, 0, "argv")
        out = Path(argv[argv.index("--out") + 1])
        self.counts["cli.bytes_written"] += sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file())

    @contextlib.contextmanager
    def installed(self):
        saved = []

        def patch(owner, attr, wrapper):
            saved.append((owner, attr, getattr(owner, attr)))
            setattr(owner, attr, wrapper)

        try:
            for layer, (module, names) in FUNCTIONS.items():
                for name in names:
                    patch(module, name, self._wrap(layer, name, getattr(module, name)))
            for layer, (cls, names) in METHODS.items():
                for name in names:
                    patch(cls, name, self._wrap(layer, name, getattr(cls, name)))
            stream = self._wrap("rng", "stream", rng.stream)
            for module in STREAM_USERS:
                patch(module, "stream", stream)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def metrics(self) -> dict[str, float]:
        """Per-layer figures of this unit, except trace.overhead_s."""
        layer = defaultdict(float)
        for (lay, _), sec in self.self_s.items():
            layer[lay] += sec
        s = self.self_s
        streams = self.calls["rng", "stream"]
        m = {
            "exact_score.busy_s": layer["exact_score"],
            "samplers.busy_s": layer["samplers"] - s["samplers", "gls_init"],
            "samplers.gls_init_s": s["samplers", "gls_init"],
            "samplers.peak_mb": self.sampler_peak_bytes / 1e6,
            "rng.stream_us": 1e6 * s["rng", "stream"] / streams if streams else 0.0,
            "rng.streams": float(streams),
            "schedule.busy_s": layer["schedule"],
            "analysis.busy_s": layer["analysis"],
            "analysis.frechet_s": s["analysis", "frechet_gaussian"],
            "analysis.potential_scan_s": s["analysis", "potential_scan"],
            "analysis.correlation_s": s["analysis", "correlation_trajectory"],
            "bifurcation.busy_s": layer["bifurcation"],
            "datasets.build_s": sum(s["datasets", f] for f in DATASET_BUILDERS),
            "datasets.csv_s": s["datasets", "save_csv"] + s["datasets", "load_csv"],
            "config.load_s": layer["config"],
            "cli.busy_s": layer["cli"],
        }
        for name in ("exact_score.calls", "exact_score.rows",
                     "exact_score.kernel_entries", "exact_score.bytes_computed",
                     "samplers.chains", "samplers.chain_steps", "cli.bytes_written"):
            m[name] = float(self.counts[name])
        return m
