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


# the tracer's counters read attributes of what the wrapped calls return,
# so every golden case runs in-process under an installed Tracer, and its
# exit code and stdout must be those of the untraced run: a name or an
# attribute the tracer wraps or reads that goes missing fails here
def test_golden_cases_run_unchanged_under_the_tracer(capsys, monkeypatch):
    from groupoidal import cli
    from test_golden import CASES, GOLDEN

    monkeypatch.chdir(GOLDEN)
    tracer = _tracer().Tracer()
    tracer.install()
    try:
        runs = {case: (cli.main(argv + ["--format", "json"]), capsys.readouterr().out)
                for case, argv in sorted(CASES.items())}
    finally:
        tracer.uninstall()
    bad = []
    for case, (code, out) in runs.items():
        with open(os.path.join(GOLDEN, f"{case}.json"), "rb") as fh:
            if code != 0 or out.encode() != fh.read():
                bad.append(f"{case}: exit {code}, stdout differs from its golden file")
    assert not bad, "\n".join(bad)
    assert tracer.layer_metrics()["cli.jobs"][0] == len(CASES)
