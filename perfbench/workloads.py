"""The benchmark's workloads and the checks on their output.

Each workload is one misopt CLI subcommand at a fixed size.  Solver work
differs a lot from one seed to the next (a different random start changes how
long every anneal runs), so one run of a workload solves a stream of solver
seeds drawn from the workload seed, one CLI call each, for as long as the run
lasts.  The first seed of the stream is the workload seed itself.

This module uses only the standard library: the benchmark process never
imports misopt.
"""

from __future__ import annotations

import csv
import math
import random
from dataclasses import dataclass
from typing import Callable, Iterator

# Relative tolerances of acceptance criteria 7 and 8c in tests/test_acceptance.py.
NESTING_RTOL = 1e-6
MONOTONE_RTOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    args: tuple
    csv_name: str
    cells: int
    # (m_rows, m_cols, n_rows, n_cols, users) of every scenario the run
    # builds, for the set-up probe.
    scenarios: tuple
    # CSV rows -> (worst_snr, ok) per cell.
    check_rows: Callable

    @staticmethod
    def seeds(seed: int) -> Iterator[int]:
        """Solver seeds of one run: the workload seed, then seeds drawn from
        it without end.  A given seed always gives the same stream."""
        yield seed
        rng = random.Random(seed)
        while True:
            yield rng.randrange(2**31)

    def cli_args(self, seed: int, jobs: int, out: str) -> list[str]:
        return [*self.args, "--seed", str(seed), "--jobs", str(jobs), "--out", out]

    def check(self, path) -> list[tuple[float, bool]]:
        """Read the workload's CSV and return ``(worst_snr, ok)`` per cell."""
        with open(path, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        return self.check_rows(rows)


def _positive(*values: float) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


def _check_ms2(rows) -> list:
    # Criterion 7: a cell warm-started from the baseline never reports below it.
    out = []
    for row in rows:
        base, mis = float(row["baseline_snr"]), float(row["mis_snr"])
        ok = _positive(base, mis) and mis >= base * (1 - NESTING_RTOL)
        out.append((mis, ok))
    return out


def _check_users(rows) -> list:
    # Criterion 8c: within a layout, worst-case SNR does not rise with users.
    out = [(float(r["worst_snr"]), _positive(float(r["worst_snr"]))) for r in rows]
    layouts: dict[str, list] = {}
    for idx, row in enumerate(rows):
        layouts.setdefault(row["config"].split(":")[0], []).append(
            (int(row["users"]), idx)
        )
    for members in layouts.values():
        members.sort()
        for (_, prev), (_, cur) in zip(members, members[1:]):
            if out[cur][0] > out[prev][0] * (1 + MONOTONE_RTOL):
                out[cur] = (out[cur][0], False)
    return out


def _check_solve(rows) -> list:
    snrs = [float(r["snr"]) for r in rows]
    if not snrs:
        return []
    return [(min(snrs), _positive(*snrs))]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="ms2-grid",
            args=("sweep-ms2", "--m-rows", "3", "--m-cols", "3", "--users", "8",
                  "--restarts", "1"),
            csv_name="sweep_ms2.csv",
            cells=9,
            scenarios=tuple((3, 3, nr, nc, 8) for nr in (1, 2, 3) for nc in (1, 2, 3)),
            check_rows=_check_ms2,
        ),
        Workload(
            name="users-chain",
            args=("sweep-users", "--users", "4,8,16,32", "--restarts", "2"),
            csv_name="sweep_users.csv",
            cells=8,
            scenarios=tuple(
                geom + (k,)
                for geom in ((1, 64, 1, 36), (8, 8, 6, 6))
                for k in (4, 8, 16, 32)
            ),
            check_rows=_check_users,
        ),
        Workload(
            name="solve-large",
            args=("solve", "--m-rows", "16", "--m-cols", "16", "--n-rows", "8",
                  "--n-cols", "8", "--users", "16", "--restarts", "2"),
            csv_name="solve.csv",
            cells=1,
            scenarios=((16, 16, 8, 8, 16),),
            check_rows=_check_solve,
        ),
    )
}
