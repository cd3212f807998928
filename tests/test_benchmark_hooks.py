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


def test_check_runners_are_swappable_module_functions(monkeypatch):
    # the tracer times each check by swapping its runner, by identity, for a
    # wrapper in the module dicts; that only reaches the suite when every
    # runner is a module attribute under its own name and default_checks()
    # reads those attributes at call time
    from radiuslab import inequalities

    def stand_in(*args, **kwargs):
        raise AssertionError("not called")

    for defn in inequalities.default_checks():
        name = defn.runner.__name__
        assert getattr(inequalities, name, None) is defn.runner, defn.name
        with monkeypatch.context() as patch:
            patch.setattr(inequalities, name, stand_in)
            swapped = {d.name: d.runner for d in inequalities.default_checks()}
        assert swapped[defn.name] is stand_in, defn.name
