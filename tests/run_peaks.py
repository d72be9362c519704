"""Print the tracemalloc peak of each benchmark sampler shape's run.

    PYTHONPATH=src python3 tests/run_peaks.py

For each shape it prints one line: the peak of `run_sampler`, and the peak
of one `posterior_mean_batch` pass on the same batch at s_start, in MB.
The difference is what the run holds beside the kernel: its state, step
temporaries and noise.  The shapes are those the benchmark's sampler
workloads run (`bench/workloads.py`):

- `wide_sphere`: B=512 on an N=2048, D=64 sphere, 30 ancestral steps from
  s=0.3 with a gls init, its step noise drawn in chunks;
- `landscape_sample`: `landscape`'s B=64, D=8 SDE run of 100 steps with
  trajectories, drawn whole;
- `sweep_sde_gmm`: one grid point of the sweep, B=1000 and 100 SDE steps on
  the 4-mode mixture, with the repeat's shared normals drawn before tracing;
- `gmm4_B6000_ddim10` and `gmm4_B6000_sde41`: criterion 8's mixture at
  B=6000, 10 DDIM steps from s=0.5 with a gls init, and 41 SDE steps from
  s=1.0, whose noise is drawn in chunks.

Each shape runs once untraced first, so that one-time state (the narrow
draw's tables) is not counted.  A memory claim runs this on two checkouts
and compares the lines.  This is a script, not a collected test.
"""

from __future__ import annotations

import gc
import tracemalloc

from symbreak import (ExactScoreModel, SamplerConfig, VpSchedule,
                      center_and_normalize, forward_sample, gaussian_mixture,
                      hypersphere, run_sampler)
from symbreak.rng import chain_normals

GMM4 = [[2.4, 0.6], [0.9, -0.4], [-1.6, 0.8], [-0.4, -2.0]]


def _peak(call) -> float:
    """The tracemalloc peak of `call()`, in MB, after an untraced call."""
    call()
    gc.collect()  # untraced free-list objects would move the peak
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


def _shapes(schedule: VpSchedule):
    """(name, model, config, batch, shared normals or None) per shape."""
    sphere64 = ExactScoreModel(hypersphere(64, 1.0, 2048, seed=1), schedule)
    sphere8 = ExactScoreModel(center_and_normalize(
        hypersphere(8, 1.0, 256, seed=4), 1.0), schedule)
    gmm4 = ExactScoreModel(gaussian_mixture(GMM4, 0.1, 16, seed=7), schedule)
    yield ("wide_sphere", sphere64, SamplerConfig(
        kind="ancestral_ddpm", n_steps=30, s_start=0.3, init="gls", seed=11),
        512, None)
    yield ("landscape_sample", sphere8, SamplerConfig(
        kind="stochastic_sde", n_steps=100, s_start=1.0, seed=11), 64, None)
    z = chain_normals(11, 1000, 101 * 2)
    z.flags.writeable = False
    yield ("sweep_sde_gmm", gmm4, SamplerConfig(
        kind="stochastic_sde", n_steps=100, s_start=1.0, seed=11), 1000, z)
    yield ("gmm4_B6000_ddim10", gmm4, SamplerConfig(
        kind="ddim", n_steps=10, s_start=0.5, init="gls", seed=11), 6000, None)
    yield ("gmm4_B6000_sde41", gmm4, SamplerConfig(
        kind="stochastic_sde", n_steps=41, s_start=1.0, seed=11), 6000, None)


def main() -> None:
    for name, model, cfg, batch, z in _shapes(VpSchedule()):
        keep = name == "landscape_sample"
        run = _peak(lambda: run_sampler(model, cfg, batch,
                                        keep_trajectories=keep, normals=z))
        X = forward_sample(model, cfg.s_start, batch, seed=0)
        kernel = _peak(lambda: model.posterior_mean_batch(X, cfg.s_start))
        print(f"{name:18s} run_sampler {run:.4f} MB  "
              f"posterior_mean_batch {kernel:.4f} MB")


if __name__ == "__main__":
    main()
