"""In-memory span tracer for one misopt process.

The tracer replaces functions of the misopt modules (the public ones a layer
exposes, plus the two pool-task bodies of ``misopt.experiments``) with
wrappers that record a span per call: name, start, end and the index of the
enclosing span.
Each function is replaced under the name its caller looks up at call time
(``misopt.solver.evaluate`` rather than ``misopt.objective.evaluate``), so no
module of the program is edited.  Spans stay in flat arrays until
:meth:`Tracer.aggregate` turns them into per-name totals.

Span names are ``<layer>.<function>``, with the layer named after the misopt
module that owns the function.  Besides spans, some wrappers count what the
call returned (line-search evaluations, stalls, inner iterations) and how
often a retraction raised.
"""

from __future__ import annotations

import importlib
import time
from array import array

# (module, attribute, span name): the functions wrapped, each under the name
# its callers resolve.  ``evaluate`` and ``EvalContext.from_scenario`` are
# wrapped by hand in :meth:`Tracer.install`.
WRAPPED = (
    ("misopt.objective", "all_selections", "geometry.all_selections"),
    ("misopt.objective", "cascaded_channel", "channel.cascaded_channel"),
    ("misopt.solver", "retract_circle", "manifolds.retract_circle"),
    ("misopt.solver", "retract_multinomial", "manifolds.retract_multinomial"),
    ("misopt.solver", "project_to_tangent", "manifolds.project_to_tangent"),
    ("misopt.solver", "transport", "manifolds.transport"),
    ("misopt.solver", "grad_norm", "manifolds.grad_norm"),
    ("misopt.solver", "line_search", "solver.line_search"),
    ("misopt.solver", "inner_solve", "solver.inner_solve"),
    ("misopt.experiments", "solve", "solver.solve"),
    ("misopt.cli", "solve", "solver.solve"),
    ("misopt.experiments", "build_arc_scenario", "experiments.build_arc_scenario"),
    ("misopt.cli", "build_arc_scenario", "experiments.build_arc_scenario"),
    ("misopt.experiments", "sms_baseline", "experiments.sms_baseline"),
    ("misopt.experiments", "_solve_task", "experiments.task"),
    ("misopt.experiments", "_solve_chain", "experiments.task"),
    ("misopt.cli", "sweep_ms2_sizes", "experiments.sweep_ms2_sizes"),
    ("misopt.cli", "sweep_users_1d2d", "experiments.sweep_users_1d2d"),
    ("misopt.cli", "write_sweep_csv", "cli.write"),
    ("misopt.cli", "write_users_csv", "cli.write"),
    ("misopt.cli", "write_solve_csv", "cli.write"),
    ("misopt.cli", "results_digest", "cli.write"),
    ("misopt.cli", "write_manifest", "cli.write"),
)


class Tracer:
    """Records nested spans of one thread plus named counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []

    def count(self, key: str, amount: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + int(amount)

    def _intern(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def wrap(self, name: str, func, on_result=None, error_type=None):
        """Return ``func`` wrapped so each call records a span called ``name``.

        ``on_result(result)`` sees every return value; an exception of
        ``error_type`` bumps the ``<name>.errors`` counter and propagates.
        """
        nid = self._intern(name)
        stack, clock = self._stack, time.perf_counter
        name_id, parent, start, end = self.name_id, self.parent, self.start, self.end
        error_key = f"{name}.errors"

        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = func(*args, **kwargs)
            except BaseException as exc:
                if error_type is not None and isinstance(exc, error_type):
                    self.count(error_key)
                raise
            finally:
                end[idx] = clock()
                stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap the misopt functions in :data:`WRAPPED`, plus ``evaluate``
        (split by ``want_grad``) and ``EvalContext.from_scenario``."""
        from misopt import manifolds, objective, solver

        hooks = {
            "solver.line_search": (self._on_line_search, None),
            "solver.inner_solve": (self._on_inner_solve, None),
            "manifolds.retract_circle": (None, manifolds.RetractionError),
            "manifolds.retract_multinomial": (None, manifolds.RetractionError),
        }
        wrappers: dict[tuple, object] = {}
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(module_name)
            func = getattr(module, attr)
            if (span, func) not in wrappers:
                wrappers[span, func] = self.wrap(span, func, *hooks.get(span, (None, None)))
            setattr(module, attr, wrappers[span, func])

        evaluate = solver.evaluate
        value_eval = self.wrap("objective.evaluate_value", evaluate)
        grad_eval = self.wrap("objective.evaluate_grad", evaluate)

        def traced_evaluate(point, mu, ctx, want_grad=False):
            return (grad_eval if want_grad else value_eval)(point, mu, ctx, want_grad)

        solver.evaluate = traced_evaluate
        from_scenario = objective.EvalContext.__dict__["from_scenario"].__func__
        objective.EvalContext.from_scenario = classmethod(
            self.wrap("objective.from_scenario", from_scenario)
        )

    def _on_line_search(self, result) -> None:
        self.count("solver.line_search.evals", result.num_evals)
        if result.stalled:
            self.count("solver.line_search.stalled")
            self.count("solver.line_search.stalled_evals", result.num_evals)
        else:
            self.count("solver.line_search.accepted")

    def _on_inner_solve(self, result) -> None:
        self.count("solver.inner_solve.iters", result.num_iters)
        self.count("solver.inner_solve.stalled_out", int(result.stalled))

    def aggregate(self) -> dict:
        """Per span name: calls, busy seconds (sum of durations), self seconds
        (durations minus the direct child spans they enclose), outer seconds
        (durations of the spans whose parent belongs to another layer, so
        the layer's busy time counted once) and the longest single span."""
        out = {name: {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "outer_s": 0.0,
                      "max_s": 0.0} for name in self.names}
        layer = [name.split(".", 1)[0] for name in self.names]
        child_time = [0.0] * len(self.name_id)
        durations = [e - s for s, e in zip(self.start, self.end)]
        for idx, p in enumerate(self.parent):
            if p >= 0:
                child_time[p] += durations[idx]
        for idx, (nid, p) in enumerate(zip(self.name_id, self.parent)):
            entry = out[self.names[nid]]
            dur = durations[idx]
            entry["calls"] += 1
            entry["busy_s"] += dur
            entry["self_s"] += dur - child_time[idx]
            entry["max_s"] = max(entry["max_s"], dur)
            if p < 0 or layer[self.name_id[p]] != layer[nid]:
                entry["outer_s"] += dur
        return out
