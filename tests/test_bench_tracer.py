import importlib
import importlib.util
import os

import pytest

_TRACER = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracer.py")


def _tracer():
    """bench/tracer.py as a module, imported but not installed."""
    spec = importlib.util.spec_from_file_location("bench_tracer", _TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_TARGETS = [(module, attr) for module, attr, _, _ in _tracer()._TARGETS]


# Tracer.install looks each wrapped name up with a plain getattr, so a name
# deleted from the package would fail every traced benchmark run
@pytest.mark.parametrize("module, attr", _TARGETS, ids=[f"{m}:{a}" for m, a in _TARGETS])
def test_every_traced_name_resolves(module, attr):
    owner = importlib.import_module(module)
    for part in attr.split("."):
        owner = getattr(owner, part)
    assert callable(owner)
