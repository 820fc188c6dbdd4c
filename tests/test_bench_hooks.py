"""The benchmark's tracer wraps program functions by name; each must exist.

`perfbench/tracing.py` lists a function it cannot find as absent and
drops its per-layer metrics instead of failing, so a rename would only
show as missing benchmark metrics. This test makes it a test failure.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _tracing()


@pytest.mark.parametrize(
    "module, attr", [(m, a) for m, a, _, _ in tracing.FUNCTIONS], ids=lambda v: v
)
def test_traced_function_exists(module, attr):
    assert callable(getattr(importlib.import_module(f"xnesyl.{module}"), attr, None))


@pytest.mark.parametrize(
    "module, cls, attr", [(m, c, a) for m, c, a, _, _ in tracing.METHODS], ids=lambda v: v
)
def test_traced_method_exists(module, cls, attr):
    owner = getattr(importlib.import_module(f"xnesyl.{module}"), cls)
    assert callable(owner.__dict__.get(attr))
