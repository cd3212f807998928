"""The benchmark's tracer (perfbench/tracing.py) wraps radiuslab functions
by module and name.  A renamed or inlined target would leave its layer
metrics silently at zero, so every target it names must resolve here."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()
TARGETS = ([(mod, attr) for mod, attr, _ in tracing.SPAN_TARGETS + tracing.AGGREGATE_TARGETS]
           + [("norms", attr) for attr in tracing.NORM_FACTORIES])


@pytest.mark.parametrize("module, attr", TARGETS)
def test_traced_target_resolves(module, attr):
    mod = importlib.import_module(f"radiuslab.{module}")
    assert callable(getattr(mod, attr, None)), f"radiuslab.{module}.{attr}"
