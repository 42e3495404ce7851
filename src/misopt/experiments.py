"""Scenario builders and study drivers for the numerical studies.

The target coverage area is a :class:`CoverageArc`: users on an azimuth arc
at a common elevation and a common SNR scale.  An
:class:`ArcScenarioSpec` places a user count on that arc over one geometry.
Every study takes the specs it solves, built by the caller (the CLI builds
them from its configuration), and returns a :class:`Study`: its ordered
``(label, spec, report)`` entries and the index of its baseline entry, the
single-layer layout (movable layer grown to the full fixed layer, one
pattern) that :meth:`Study.gains` normalizes by; the user sweep has none.
A study copies nothing out of its reports; the CSV writers render every dB
value with :func:`format_db`.  :func:`sweep_ms2_sizes` and
:func:`case_study` keep the fixed layer unchanged and warm-start each
movable-layer cell from the baseline solution embedded as a phase pair
(baseline phases on layer 1, identity phases on layer 2), so a cell can
never report worse than the baseline it is normalized by.

Sweep cells (the allocation baseline among them, and the two chains of the
user sweep) are independent tasks; with ``jobs > 1`` :func:`_run_tasks`
runs them in a process pool and gathers them by index, so results do not
depend on completion order.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace

import numpy as np

from . import __version__
from .channel import BROADSIDE, ArrayAngles, Scenario
from .geometry import MisGeometry, _require_real
from .solver import SolveReport, SolverConfig, solve

__all__ = [
    "CoverageArc",
    "ArcScenarioSpec",
    "Study",
    "USERS_LAYOUTS",
    "build_arc_scenario",
    "sms_baseline",
    "sweep_ms2_sizes",
    "allocation_steps",
    "sweep_allocation",
    "sweep_users_1d2d",
    "case_study",
    "write_sweep_csv",
    "write_users_csv",
    "write_case_study_csv",
    "write_solve_csv",
    "format_db",
    "write_manifest",
    "results_digest",
]

# The user sweep's two layouts: a 1D and a 2D surface, 29 and 9 patterns.
USERS_LAYOUTS = {"1d": MisGeometry(1, 64, 1, 36), "2d": MisGeometry(8, 8, 6, 6)}

@dataclass(frozen=True)
class CoverageArc:
    """Target coverage area: an azimuth arc at one elevation and SNR scale,
    lit by a base station whose signal reaches the surface from ``mis_arrival``."""

    azimuth_lo: float = -math.pi / 3
    azimuth_hi: float = math.pi / 3
    elevation: float = math.pi / 4
    iota: float = 0.01
    mis_arrival: ArrayAngles = BROADSIDE

    def __post_init__(self):
        # Every user direction lies between these two; ArrayAngles checks them.
        ArrayAngles(self.azimuth_lo, self.elevation)
        ArrayAngles(self.azimuth_hi, self.elevation)
        if not self.azimuth_lo < self.azimuth_hi:
            raise ValueError("azimuth_lo must be below azimuth_hi")
        _require_real("iota", self.iota)
        if not 0 < self.iota < math.inf:
            raise ValueError("iota must be positive and finite")


@dataclass(frozen=True)
class ArcScenarioSpec:
    """``num_users`` users spread uniformly over ``arc``, served by ``geom``."""

    geom: MisGeometry
    num_users: int
    arc: CoverageArc = CoverageArc()

    def __post_init__(self):
        value = self.num_users
        integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
        if not integer or value < 1:
            raise ValueError(f"num_users must be a positive integer, got {value!r}")


@dataclass(frozen=True)
class Study:
    """A study's ordered ``(label, spec, report)`` entries and the index of
    the entry its gains are normalized by (``None`` when there is none)."""

    entries: tuple
    baseline: int | None = None

    def gains(self) -> np.ndarray:
        """Each entry's worst-case SNR over the baseline entry's, exactly 1 at
        the baseline itself."""
        if self.baseline is None:
            raise ValueError("the study has no baseline entry")
        snr = np.array([report.worst_snr for _, _, report in self.entries])
        gain = snr / snr[self.baseline]
        gain[self.baseline] = 1.0
        return gain


def build_arc_scenario(spec: ArcScenarioSpec) -> Scenario:
    """Place the users at azimuths uniformly spaced over the arc, endpoints included."""
    arc = spec.arc
    azimuths = np.linspace(arc.azimuth_lo, arc.azimuth_hi, spec.num_users)
    users = [(ArrayAngles(float(az), arc.elevation), arc.iota) for az in azimuths]
    return Scenario(geom=spec.geom, mis_arrival=arc.mis_arrival, users=users)


def _single_layer(spec: ArcScenarioSpec) -> ArcScenarioSpec:
    """``spec`` with its movable layer grown to the full fixed layer (one pattern)."""
    geom = replace(spec.geom, n_rows=spec.geom.m_rows, n_cols=spec.geom.m_cols)
    return replace(spec, geom=geom)


def _layout_label(geom: MisGeometry) -> str:
    return f"ms1={geom.m_rows}x{geom.m_cols}/ms2={geom.n_rows}x{geom.n_cols}"


def sms_baseline(spec: ArcScenarioSpec, config: SolverConfig) -> SolveReport:
    """Solve the single-pattern reduction (movable layer grown to the fixed layer),
    with the same restart budget and seeds as the runs it normalizes."""
    return solve(build_arc_scenario(_single_layer(spec)), config)


def _embedded_start(baseline: SolveReport, cell_geom: MisGeometry) -> tuple:
    """Map a single-layer solution onto a cell's two layers as a warm-start
    phase pair.

    The baseline's combined per-element phase goes onto layer 1 (its one
    placement covers every element in order, so that phase is ms2 * ms1);
    layer 2 is all ones, so every pattern reproduces the baseline beam exactly.
    """
    return (
        baseline.ms2_phase * baseline.ms1_phase,
        np.ones(cell_geom.num_ms2, dtype=complex),
    )


def _solve_task(args) -> SolveReport:
    spec, config, warm = args
    return solve(build_arc_scenario(spec), config, warm=warm)


def _run_tasks(task, args: list, jobs: int) -> list:
    """``[task(a) for a in args]``, in a pool of up to ``jobs`` processes when
    there is more than one task."""
    if jobs <= 1 or len(args) <= 1:
        return [task(a) for a in args]
    with ProcessPoolExecutor(max_workers=min(jobs, len(args))) as pool:
        return list(pool.map(task, args))


def _warm_from_baseline(
    spec: ArcScenarioSpec, cells: list, config: SolverConfig, jobs: int = 1
) -> list:
    """Solve ``spec``'s single-layer baseline, then every cell spec warm-started
    from it; ``(spec, report)`` per cell, in order, then the baseline's."""
    baseline = sms_baseline(spec, config)
    tasks = [(cell, config, _embedded_start(baseline, cell.geom)) for cell in cells]
    reports = _run_tasks(_solve_task, tasks, jobs)
    return [*zip(cells, reports), (_single_layer(spec), baseline)]


def sweep_ms2_sizes(spec: ArcScenarioSpec, config: SolverConfig, jobs: int = 1) -> Study:
    """Every movable-layer size from 1x1 to ``spec.geom``'s full fixed layer
    (whose movable layer is ignored), row-major, normalized by the last,
    full-size cell: the single-layer baseline."""
    m_rows, m_cols = spec.geom.m_rows, spec.geom.m_cols
    cells = [
        replace(spec, geom=replace(spec.geom, n_rows=nr, n_cols=nc))
        for nr in range(1, m_rows + 1)
        for nc in range(1, m_cols + 1)
    ][:-1]
    pairs = _warm_from_baseline(spec, cells, config, jobs)
    entries = tuple((_layout_label(s.geom), s, report) for s, report in pairs)
    return Study(entries, len(entries) - 1)


def allocation_steps(total_elements: int, scheme: int) -> list:
    """Element-allocation ladder at a fixed total element count.

    Step 0 is the single-layer baseline holding every element.  Scheme 1
    keeps the fixed layer's rows and gives the movable layer half of those
    rows as its column count, then moves fixed-layer columns over step by
    step; scheme 2 swaps the roles of rows and columns.  Every step
    preserves the total element count.
    """
    side = math.isqrt(total_elements)
    if side * side != total_elements:
        raise ValueError(f"total_elements {total_elements} is not a perfect square")
    if side % 2 != 0:
        raise ValueError(f"side {side} must be even to halve into the movable layer")
    if scheme not in (1, 2):
        raise ValueError("scheme must be 1 or 2")
    half = side // 2
    steps = [MisGeometry(side, side, side, side)]
    for j in range(1, half + 1):
        if scheme == 1:
            steps.append(MisGeometry(side, side - j, 2 * j, half))
        else:
            steps.append(MisGeometry(side - j, side, half, 2 * j))
    return steps


def sweep_allocation(specs: list, config: SolverConfig, jobs: int = 1) -> Study:
    """Worst-case SNR along an allocation ladder (see :func:`allocation_steps`),
    normalized by the first entry: the single-layer baseline of ``specs[0]``,
    which is also the first task of the pool.  The specs must share one user
    count and one arc."""
    if len({(spec.num_users, spec.arc) for spec in specs}) != 1:
        raise ValueError("allocation specs must share one user count and one arc")
    cells = [_single_layer(specs[0]), *specs[1:]]
    reports = _run_tasks(_solve_task, [(cell, config, None) for cell in cells], jobs)
    labels = ["single-layer"] + [_layout_label(cell.geom) for cell in cells[1:]]
    return Study(tuple(zip(labels, cells, reports)), 0)


def _solve_chain(args) -> list:
    """Solve one geometry's specs, largest user count first (equal counts in
    ``specs`` order), warm-starting each from the previous solution's phases.
    Returns the reports in ``specs`` order."""
    specs, config = args
    order = sorted(range(len(specs)), key=lambda i: specs[i].num_users, reverse=True)
    out = [None] * len(specs)
    warm = None
    for i in order:
        out[i] = solve(build_arc_scenario(specs[i]), config, warm=warm)
        warm = (out[i].ms1_phase, out[i].ms2_phase)
    return out


def sweep_users_1d2d(chains: dict, config: SolverConfig, jobs: int = 1) -> Study:
    """Worst-case SNR versus user count, one warm-started chain per layout.

    ``chains`` maps a layout label (``"1d"``, ``"2d"``) to its specs, one
    geometry each; entries come out chain by chain, in ``specs`` order, each
    labelled ``<layout label>:<geometry>``.  The study has no baseline.
    """
    reports = _run_tasks(
        _solve_chain, [(specs, config) for specs in chains.values()], jobs
    )
    return Study(
        tuple(
            (f"{label}:{_layout_label(spec.geom)}", spec, report)
            for (label, specs), chain in zip(chains.items(), reports)
            for spec, report in zip(specs, chain)
        )
    )


def case_study(spec: ArcScenarioSpec, config: SolverConfig) -> Study:
    """A tiny two-layer layout (the paper's figures 6 and 7) versus its
    single-layer counterpart: the entries ``mis`` (warm-started from the
    embedded baseline) and ``sms``, the baseline; each report carries its
    (user, pattern) SNR table."""
    mis, sms = _warm_from_baseline(spec, [spec], config)
    return Study((("mis", *mis), ("sms", *sms)), 1)


def _fmt(value: float) -> str:
    return repr(float(value))


def format_db(snr: float) -> str:
    """``10 log10(snr)`` to four decimals, ``-inf`` unless ``snr > 0``."""
    return f"{10.0 * math.log10(snr):.4f}" if snr > 0 else "-inf"


def _write_csv(path, header: list, rows) -> None:
    """``header`` and then ``rows`` as a utf-8 CSV with ``\\n`` line ends."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_sweep_csv(studies, seed: int, path) -> None:
    """One row per entry of each baselined :class:`Study` in ``studies``:
    geometry (the entry label), users, seed, baseline_snr, mis_snr, gain."""
    _write_csv(
        path,
        ["geometry", "users", "seed", "baseline_snr", "mis_snr", "gain"],
        (
            [label, spec.num_users, seed,
             _fmt(study.entries[study.baseline][2].worst_snr),
             _fmt(report.worst_snr), _fmt(gain)]
            for study in studies
            for (label, spec, report), gain in zip(study.entries, study.gains())
        ),
    )


def write_users_csv(study: Study, seed: int, path) -> None:
    """One row per entry of ``study``: config (its label), users,
    num_patterns, worst_snr, worst_snr_db, seed."""
    _write_csv(
        path,
        ["config", "users", "num_patterns", "worst_snr", "worst_snr_db", "seed"],
        (
            [label, spec.num_users, spec.geom.num_patterns,
             _fmt(report.worst_snr), format_db(report.worst_snr), seed]
            for label, spec, report in study.entries
        ),
    )


def write_case_study_csv(study: Study, path) -> None:
    """Per-(scheme, user, pattern) SNR rows of every entry of ``study``, the
    scheme being its label: scheme, user, pattern, snr, snr_db, chosen (1 for
    the user's scheduled pattern, else 0)."""
    _write_csv(
        path,
        ["scheme", "user", "pattern", "snr", "snr_db", "chosen"],
        (
            [scheme, k + 1, u + 1, _fmt(snr), format_db(snr),
             int(report.chosen_pattern[k] == u + 1)]
            for scheme, _, report in study.entries
            for k, row in enumerate(report.snr_table.tolist())
            for u, snr in enumerate(row)
        ),
    )


def write_solve_csv(report: SolveReport, path) -> None:
    """One row per user of ``report``: user, pattern (its scheduled
    placement), snr, snr_db."""
    per_user = enumerate(zip(report.per_user_snr, report.chosen_pattern), start=1)
    _write_csv(
        path,
        ["user", "pattern", "snr", "snr_db"],
        ([k, int(pattern), _fmt(snr), format_db(snr)] for k, (snr, pattern) in per_user),
    )


def results_digest(path) -> str:
    """Hex sha256 of the bytes of the file at ``path``."""
    with open(path, "rb") as handle:
        return hashlib.sha256(handle.read()).hexdigest()


def write_manifest(path, config: dict, digest: str) -> None:
    """JSON manifest of a run: its config, the config's seed, the misopt
    version and the digest of its results."""
    payload = {
        "config": config,
        "seed": config["seed"],
        "tool_version": __version__,
        "results_digest": digest,
    }
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")
