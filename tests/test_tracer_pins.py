"""perfbench/tracer.py wraps misopt functions by name and reads fields of
what they return; every name it pins must still exist, and its counters must
agree with what a solve reports, or a traced benchmark run fails or lies."""

import importlib
import importlib.util
import sys
from pathlib import Path

from misopt import ArrayAngles, MisGeometry, Scenario, SolverConfig, objective, solver

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer(monkeypatch):
    # Load the tracer by path without writing its bytecode cache.
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_name_the_tracer_wraps_resolves(monkeypatch):
    tracer = _load_tracer(monkeypatch)
    assert tracer.WRAPPED
    for module_name, attr, span in tracer.WRAPPED:
        module = importlib.import_module(module_name)
        assert callable(getattr(module, attr, None)), f"{module_name}.{attr} ({span})"
    # wrapped by hand in Tracer.install
    assert callable(solver.evaluate)
    assert isinstance(objective.EvalContext.__dict__.get("from_scenario"), classmethod)


def test_installed_tracer_counts_what_the_report_stages_hold(monkeypatch):
    tracer_module = _load_tracer(monkeypatch)
    # Re-set every attribute the tracer replaces, so teardown restores it.
    for module_name, attr, _ in tracer_module.WRAPPED:
        module = importlib.import_module(module_name)
        monkeypatch.setattr(module, attr, getattr(module, attr))
    monkeypatch.setattr(solver, "evaluate", solver.evaluate)
    context = objective.EvalContext
    monkeypatch.setattr(context, "from_scenario", context.__dict__["from_scenario"])
    tracer = tracer_module.Tracer()
    tracer.install()

    scenario = Scenario(
        geom=MisGeometry(2, 2, 1, 1),
        mis_arrival=ArrayAngles(0.59, 1.13),
        users=[(ArrayAngles(0.08, 0.31), 0.04), (ArrayAngles(2.31, 0.5), 0.028)],
    )
    # one restart and no warm start: exactly one anneal
    stages = solver.solve(scenario, SolverConfig(rng_seed=3)).stages
    spans, counts = tracer.aggregate(), tracer.counts
    assert stages
    assert spans["solver.inner_solve"]["calls"] == len(stages)
    assert counts["solver.inner_solve.iters"] == sum(s.num_iters for s in stages)
    assert counts["solver.inner_solve.stalled_out"] == sum(s.stalled for s in stages)
    evals = (
        spans["objective.evaluate_value"]["calls"]
        + spans["objective.evaluate_grad"]["calls"]
        + counts.get("solver.line_search.accepted", 0)
    )
    assert evals == sum(s.num_evals for s in stages)
