"""The benchmark's tracer (bench/spans.py) wraps package functions by name.

A rename or removal in src/ that it does not follow would break the traced
benchmark run, so every name it lists must resolve.
"""

import importlib.util
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


@pytest.fixture(scope="module")
def spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_functions_resolve(spans):
    missing = [f"{layer}.{name}" for layer, (module, names) in spans.FUNCTIONS.items()
               for name in names if not callable(getattr(module, name, None))]
    assert missing == []


def test_traced_methods_resolve(spans):
    missing = [f"{cls.__name__}.{name}" for cls, names in spans.METHODS.values()
               for name in names if not callable(getattr(cls, name, None))]
    assert missing == []


def test_stream_users_import_stream(spans):
    assert [m.__name__ for m in spans.STREAM_USERS if not hasattr(m, "stream")] == []


@pytest.mark.parametrize("kind", ["stochastic_sde", "ancestral_ddpm", "ddim"])
def test_sampler_makes_one_kernel_pass_per_step(spans, kind):
    # the tracer counts a call per kernel method; a method that quietly made
    # a second pass through another would count twice
    from symbreak import (ExactScoreModel, SamplerConfig, VpSchedule,
                          run_sampler, two_point_1d)
    model = ExactScoreModel(two_point_1d(), VpSchedule())
    cfg = SamplerConfig(kind=kind, n_steps=7, s_start=0.8)
    tracer = spans.Tracer()
    with tracer.installed():
        run_sampler(model, cfg, 5)
    assert tracer.metrics()["exact_score.calls"] == cfg.n_steps + 1
    tracer = spans.Tracer()
    with tracer.installed():
        model.score([0.3], 0.5)
    assert tracer.metrics()["exact_score.calls"] == 1


@pytest.mark.parametrize("kind", ["stochastic_sde", "ddim"])
def test_sweep_runs_its_chains_through_the_traced_runners(spans, kind):
    # the tracer counts chains and steps inside sample_stochastic and
    # sample_ddim; a sweep that bypassed them would report zero work
    from symbreak import (ExactScoreModel, VpSchedule, late_start_sweep,
                          two_point_1d)
    model = ExactScoreModel(two_point_1d(), VpSchedule())
    n_steps = 6
    tracer = spans.Tracer()
    with tracer.installed():
        late_start_sweep(model, kind, n_steps, [0.3, 0.6, 0.9],
                         lambda finals: 0.0, batch=5)
    m = tracer.metrics()
    assert m["samplers.chains"] == 15
    assert m["samplers.chain_steps"] == 15 * n_steps
    assert m["exact_score.calls"] == 3 * (n_steps + 1)
