"""perfbench/tracer.py wraps misopt functions by name; every name it pins
must still exist, or a traced benchmark run fails."""

import importlib
import importlib.util
import sys
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    # Load the tracer by path without writing its bytecode cache.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.WRAPPED
    for module_name, attr, span in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"
    # wrapped by hand in Tracer.install
    from misopt import objective, solver

    assert callable(solver.evaluate)
    assert isinstance(objective.EvalContext.__dict__.get("from_scenario"), classmethod)
