"""Child processes of the benchmark; each runs in a fresh interpreter.

``python3 perfbench/child.py setup SCENARIOS_JSON``
    Times importing misopt and building the scenarios and ``EvalContext``s
    of one workload, then prints one JSON object with that time and the
    numerical environment (numpy, BLAS, multiprocessing start method).

``python3 perfbench/child.py trace TRACE_DIR CLI_ARGS...``
    Runs ``misopt.cli.main(CLI_ARGS)`` under the span tracer and writes
    ``trace.json`` (per-span totals and counters) and ``spans.npz`` (every
    span as the arrays ``name_id``, ``parent``, ``start`` and ``end``, with
    ``names`` mapping ids to span names) into TRACE_DIR.  Exits with the
    CLI's exit code.

Both expect misopt on ``PYTHONPATH``.
"""

from __future__ import annotations

import json
import os
import sys
import time


def _setup(scenarios_json: str) -> int:
    t0 = time.perf_counter()
    from misopt import ArcScenarioSpec, EvalContext, MisGeometry, build_arc_scenario

    contexts = [
        EvalContext.from_scenario(
            build_arc_scenario(
                ArcScenarioSpec(geom=MisGeometry(mr, mc, nr, nc), num_users=users)
            )
        )
        for mr, mc, nr, nc, users in json.loads(scenarios_json)
    ]
    setup_s = time.perf_counter() - t0

    import multiprocessing

    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):  # numpy older than 1.26 prints, returns nothing
        blas = {}
    print(json.dumps({
        "setup_s": setup_s,
        "contexts": len(contexts),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_config": blas.get("openblas configuration", ""),
        "start_method": multiprocessing.get_start_method(),
    }))
    return 0


def _trace(trace_dir: str, cli_args: list) -> int:
    import misopt.cli
    from tracer import Tracer

    tracer = Tracer()
    tracer.install()
    code = tracer.wrap("cli.main", misopt.cli.main)(cli_args)
    t1 = time.perf_counter()
    totals = tracer.aggregate()
    import numpy

    numpy.savez(
        os.path.join(trace_dir, "spans.npz"),
        names=numpy.array(tracer.names),
        name_id=numpy.frombuffer(tracer.name_id, dtype=numpy.int32),
        parent=numpy.frombuffer(tracer.parent, dtype=numpy.int64),
        start=numpy.frombuffer(tracer.start),
        end=numpy.frombuffer(tracer.end),
    )
    with open(os.path.join(trace_dir, "trace.json"), "w", encoding="utf-8") as handle:
        json.dump({
            "dump_s": time.perf_counter() - t1,
            "span_count": len(tracer.name_id),
            "spans": totals,
            "counts": tracer.counts,
        }, handle, indent=1, sort_keys=True)
    return code


def main(argv: list) -> int:
    if len(argv) >= 2 and argv[0] == "setup":
        return _setup(argv[1])
    if len(argv) >= 2 and argv[0] == "trace":
        return _trace(argv[1], argv[2:])
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
