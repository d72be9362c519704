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
