"""Write ``BENCH_<label>.json``: the solver work and the solution quality of
one misopt tree, serial and in process.

Usage::

    python tools/bench.py --label L [--src DIR] [--seeds N]
    python tools/bench.py --compare BASE.json NEW.json

``--label L`` imports ``misopt`` from ``--src`` (default: the ``src``
directory of this checkout) and writes ``BENCH_L.json`` in the current
directory.  It runs two perfbench workloads (``perfbench/workloads.py``,
imported read-only, as ``tools/csv_digests.py`` does) through
``misopt.cli.main`` with ``--jobs 1``, each on the first seeds of several
of its seed streams (:data:`STREAMS`; ``--seeds N`` runs N seeds of every
stream), and records per stream:

- ``evaluations``: the number of ``solver.evaluate`` calls, counted by a
  wrapper.  Serial runs make the count exact and repeatable on one host.
- ``worst_snr``: per seed, the per-cell worst-case SNRs that the workload's
  output check reads.
- ``check_failures`` and ``failed_seeds``: the runs whose CSV failed that
  check (criterion 7 for ``ms2-grid``, criterion 8c for ``users-chain``).
- ``smallest_8c_slack`` (``users-chain``): the smallest
  ``snr(k_i) / snr(k_{i+1}) - 1`` over each layout's consecutive user
  counts, with its seed.
- ``cpu_s``: process CPU time, an indication only.

It also records the acceptance margins at :data:`ACCEPTANCE_SEEDS`, as numbers
and not as gates: criterion 7's minimum gain and 8a's best small-layer gain
over the 6x6 movable-size sweep (K=8, 3 restarts), and 8b's peak gain over the
64-element scheme-1 allocation ladder (K=8, 16 restarts), each with its
evaluation count.  The bench never fails on a margin or a check; it exits 1
only when a run fails.

``--compare BASE NEW`` prints, per stream, NEW's evaluations over BASE's, the
median and geometric mean of the per-cell worst-SNR ratios NEW/BASE (cells
paired by seed and position), both trees' check failures and smallest 8c
slacks, and both trees' acceptance margins.  Counts and SNRs are compared on
one host only: BLAS bits can differ between CPUs.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import re
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
from csv_digests import WORKLOADS, _chain_slack  # noqa: E402

# Workload -> (the stream seeds, seeds run from each stream).
STREAMS = {
    "ms2-grid": ((7, 1009), 30),
    "users-chain": ((1, 7, 1009, 11, 42, 2024), 60),
}
ACCEPTANCE_SEEDS = (7, 1009, 11)


class _Counted:
    """Counts the calls of ``module.evaluate`` while it is entered."""

    def __init__(self, module):
        self.module, self.calls = module, 0

    def __enter__(self):
        self._evaluate = evaluate = self.module.evaluate

        def counted(*args, **kwargs):
            self.calls += 1
            return evaluate(*args, **kwargs)

        self.module.evaluate = counted
        return self

    def __exit__(self, *exc):
        self.module.evaluate = self._evaluate


def _stream(cli, workload, first_seed: int, count: int, counter, tmp: str) -> dict:
    """One workload on the first ``count`` seeds of its stream from
    ``first_seed``: its record (see the module docstring)."""
    stream = workload.seeds(first_seed)
    seeds = [next(stream) for _ in range(count)]
    calls, cpu = counter.calls, time.process_time()
    snrs, failed, slacks = [], [], []
    for seed in seeds:
        out = os.path.join(tmp, f"{workload.name}-{first_seed}-{seed}")
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(workload.cli_args(seed, 1, out))
        if code != 0:
            raise RuntimeError(f"{workload.name} at seed {seed} exited {code}")
        path = os.path.join(out, workload.csv_name)
        cells = workload.check(path)
        snrs.append([snr for snr, _ in cells])
        if len(cells) != workload.cells or not all(ok for _, ok in cells):
            failed.append(seed)
        slack = _chain_slack(path)
        if slack is not None:
            slacks.append((slack, seed))
    record = {
        "seeds": seeds,
        "evaluations": counter.calls - calls,
        "cpu_s": round(time.process_time() - cpu, 3),
        "check_failures": len(failed),
        "failed_seeds": failed,
        "worst_snr": snrs,
    }
    if slacks:
        slack, seed = min(slacks)
        record["smallest_8c_slack"] = {"slack": slack, "seed": seed}
    return record


def _acceptance(misopt, seed: int, counter) -> dict:
    """Criteria 7, 8a and 8b at ``seed``, as tests/test_acceptance.py sets
    them up, with the evaluations of each sweep."""
    calls = counter.calls
    ms2 = misopt.sweep_ms2_sizes(
        misopt.ArcScenarioSpec(misopt.MisGeometry(6, 6, 6, 6), 8),
        misopt.SolverConfig(rng_seed=seed, num_restarts=3),
    ).gains()
    ms2_calls = counter.calls - calls
    # 8a: the cells with at most 4 movable elements (row-major 6x6 sweep).
    small = [6 * (nr - 1) + nc - 1 for nr in range(1, 7) for nc in range(1, 7) if nr * nc <= 4]
    steps = misopt.experiments.allocation_steps(64, 1)
    alloc = misopt.sweep_allocation(
        [misopt.ArcScenarioSpec(geom, 8) for geom in steps],
        misopt.SolverConfig(rng_seed=seed, num_restarts=16),
    ).gains()
    return {
        "criterion_7_min_gain": float(ms2.min()),
        "criterion_8a_best_small_gain": float(ms2[small].max()),
        "criterion_8b_peak_gain": float(alloc.max()),
        "evaluations": {
            "ms2_sweep": ms2_calls,
            "alloc_sweep": counter.calls - calls - ms2_calls,
        },
    }


def bench(src: str, seeds: int | None) -> dict:
    """The bench record of the ``misopt`` under ``src``."""
    sys.path.insert(0, os.path.abspath(src))
    import numpy
    import misopt
    import misopt.cli
    import misopt.solver

    record = {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "cpus": os.cpu_count(),
        "workloads": {},
        "acceptance": {},
    }
    with _Counted(misopt.solver) as counter, tempfile.TemporaryDirectory() as tmp:
        for name, (firsts, count) in STREAMS.items():
            record["workloads"][name] = {
                str(first): _stream(
                    misopt.cli, WORKLOADS[name], first, seeds or count, counter, tmp
                )
                for first in firsts
            }
        for seed in ACCEPTANCE_SEEDS:
            record["acceptance"][str(seed)] = _acceptance(misopt, seed, counter)
    return record


def _dumps(record: dict) -> str:
    """``record`` as indented JSON, with each list of numbers on one line."""
    text = json.dumps(record, indent=1)
    return re.sub(r"\[\s+([^][{}]*?)\s+\]", lambda m: f"[{' '.join(m[1].split())}]", text)


def compare(base: dict, new: dict) -> str:
    """A markdown delta of two bench records (see the module docstring)."""
    lines = [
        "| Workload | Stream | Evaluations NEW/BASE | Median cell ratio | Geomean | Min "
        "| Failures BASE → NEW | Smallest 8c slack BASE → NEW |",
        "| --- | --- | --- | --- | --- | --- | --- | --- |",
    ]
    for name, streams in new["workloads"].items():
        for first, b in streams.items():
            a = base["workloads"][name][first]
            if a["seeds"] != b["seeds"]:
                raise ValueError(f"{name} stream {first} ran different seeds")
            ratios = [
                y / x for xs, ys in zip(a["worst_snr"], b["worst_snr"]) for x, y in zip(xs, ys)
            ]
            slack = " → ".join(
                f"{r['smallest_8c_slack']['slack']:.2%}" if "smallest_8c_slack" in r else "–"
                for r in (a, b)
            )
            lines.append(
                f"| {name} | {first} | {b['evaluations'] / a['evaluations']:.3f} "
                f"| {statistics.median(ratios):.4f} "
                f"| {statistics.geometric_mean(ratios):.4f} | {min(ratios):.4f} "
                f"| {a['check_failures']} → {b['check_failures']} | {slack} |"
            )
    lines += ["", "| Seed | Value | BASE | NEW |", "| --- | --- | --- | --- |"]
    for seed, b in new["acceptance"].items():
        a = base["acceptance"][seed]
        rows = [(key, a[key], b[key]) for key in b if key != "evaluations"]
        rows += [(f"{key} evaluations", a["evaluations"][key], b["evaluations"][key])
                 for key in b["evaluations"]]
        lines += [f"| {seed} | {key} | {x:.6g} | {y:.6g} |" for key, x, y in rows]
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--label", help="write BENCH_<label>.json")
    parser.add_argument(
        "--src",
        default=os.path.join(HERE, os.pardir, "src"),
        help="misopt source tree (default: this checkout's src)",
    )
    parser.add_argument(
        "--seeds",
        type=int,
        help="seeds per stream (default: 30 for ms2-grid, 60 for users-chain)",
    )
    parser.add_argument("--compare", nargs=2, metavar=("BASE", "NEW"), help="print a delta")
    args = parser.parse_args(argv)
    if (args.label is None) == (args.compare is None):
        parser.error("give exactly one of --label and --compare")
    if args.seeds is not None and args.seeds < 1:
        parser.error("--seeds must be at least 1")
    if args.compare:
        base, new = (json.loads(Path(path).read_text("utf-8")) for path in args.compare)
        print(compare(base, new))
        return 0
    record = {"label": args.label, **bench(args.src, args.seeds)}
    path = f"BENCH_{args.label}.json"
    Path(path).write_text(_dumps(record) + "\n", encoding="utf-8")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
