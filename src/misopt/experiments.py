"""Scenario builders and sweep drivers for the numerical studies.

The target coverage area is a :class:`CoverageArc`: users on an azimuth arc
at a common elevation and a common SNR scale.  An
:class:`ArcScenarioSpec` places a user count on that arc over one geometry.
Every sweep and :func:`case_study` takes the specs it solves, built by the
caller (the CLI builds them from its configuration).  Every sweep
normalizes against a single-layer baseline (movable layer grown to the full
fixed layer, one pattern).  Sweeps that keep the fixed layer unchanged
warm-start each movable-layer cell from the baseline solution embedded as a
phase pair (baseline phases on layer 1, identity phases on layer 2), so a
cell can never report worse than the baseline it is normalized by.

A user-sweep entry and a case study hold their reports and copy nothing out
of them; the CSV writers render every dB value with :func:`format_db`.

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
from .geometry import MisGeometry
from .solver import SolveReport, SolverConfig, solve

__all__ = [
    "CoverageArc",
    "ArcScenarioSpec",
    "SweepResult",
    "UsersSweep",
    "CaseStudyResult",
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
        if not self.azimuth_lo < self.azimuth_hi:
            raise ValueError("azimuth_lo must be below azimuth_hi")
        # Every user direction lies between these two; ArrayAngles checks ranges.
        ArrayAngles(self.azimuth_lo, self.elevation)
        ArrayAngles(self.azimuth_hi, self.elevation)
        if not 0 < self.iota < math.inf:
            raise ValueError("iota must be positive and finite")


@dataclass(frozen=True)
class ArcScenarioSpec:
    """``num_users`` users spread uniformly over ``arc``, served by ``geom``."""

    geom: MisGeometry
    num_users: int
    arc: CoverageArc = CoverageArc()

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError("num_users must be >= 1")


@dataclass
class SweepResult:
    """Worst-case SNR of every cell against the shared baseline SNR."""

    mis_snr: np.ndarray
    baseline_snr: float
    gain: np.ndarray
    cell_labels: list
    num_users: int
    seed: int
    reports: list


@dataclass
class UsersSweep:
    """One ``(label, spec, report)`` entry per solved spec, chain by chain."""

    entries: list
    seed: int


@dataclass
class CaseStudyResult:
    """The two-layer report and its single-layer baseline's."""

    mis: SolveReport
    sms: SolveReport


def build_arc_scenario(spec: ArcScenarioSpec) -> Scenario:
    """Place the users at azimuths uniformly spaced over the arc, endpoints included."""
    arc = spec.arc
    azimuths = np.linspace(arc.azimuth_lo, arc.azimuth_hi, spec.num_users)
    users = [(ArrayAngles(float(az), arc.elevation), arc.iota) for az in azimuths]
    return Scenario(geom=spec.geom, mis_arrival=arc.mis_arrival, users=users)


def _single_layer_geom(geom: MisGeometry) -> MisGeometry:
    return replace(geom, n_rows=geom.m_rows, n_cols=geom.m_cols)


def _layout_label(geom: MisGeometry) -> str:
    return f"ms1={geom.m_rows}x{geom.m_cols}/ms2={geom.n_rows}x{geom.n_cols}"


def sms_baseline(spec: ArcScenarioSpec, config: SolverConfig) -> SolveReport:
    """Solve the single-pattern reduction (movable layer grown to the fixed layer),
    with the same restart budget and seeds as the runs it normalizes."""
    sms_spec = replace(spec, geom=_single_layer_geom(spec.geom))
    return solve(build_arc_scenario(sms_spec), config)


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


def _sweep_result(
    reports: list,
    base: int,
    labels: list,
    shape,
    num_users: int,
    config: SolverConfig,
) -> SweepResult:
    """Normalize each cell's worst-case SNR by that of cell ``base``.

    ``reports`` and ``labels`` are in cell order; the baseline cell's gain is
    1 by definition.
    """
    mis = np.array([rep.worst_snr for rep in reports]).reshape(shape)
    base_snr = reports[base].worst_snr
    gain = mis / base_snr
    gain.flat[base] = 1.0
    return SweepResult(
        mis_snr=mis,
        baseline_snr=base_snr,
        gain=gain,
        cell_labels=labels,
        num_users=num_users,
        seed=config.rng_seed,
        reports=reports,
    )


def sweep_ms2_sizes(
    spec: ArcScenarioSpec, config: SolverConfig, jobs: int = 1
) -> SweepResult:
    """Every movable-layer size from 1x1 to ``spec.geom``'s full fixed layer
    (whose movable layer is ignored), normalized by the full-size cell."""
    m_rows, m_cols = spec.geom.m_rows, spec.geom.m_cols
    geoms = [
        replace(spec.geom, n_rows=nr, n_cols=nc)
        for nr in range(1, m_rows + 1)
        for nc in range(1, m_cols + 1)
    ]
    baseline = sms_baseline(spec, config)
    tasks = [
        (replace(spec, geom=g), config, _embedded_start(baseline, g))
        for g in geoms[:-1]
    ]
    return _sweep_result(
        _run_tasks(_solve_task, tasks, jobs) + [baseline],
        len(geoms) - 1,
        [_layout_label(g) for g in geoms],
        (m_rows, m_cols),
        spec.num_users,
        config,
    )


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


def sweep_allocation(specs: list, config: SolverConfig, jobs: int = 1) -> SweepResult:
    """Worst-case SNR along an allocation ladder (see :func:`allocation_steps`),
    normalized by the single-layer baseline of ``specs[0]``, which is the
    first task of the pool.  The specs must share one user count and one arc."""
    if len({(spec.num_users, spec.arc) for spec in specs}) != 1:
        raise ValueError("allocation specs must share one user count and one arc")
    sms_spec = replace(specs[0], geom=_single_layer_geom(specs[0].geom))
    reports = _run_tasks(
        _solve_task, [(spec, config, None) for spec in (sms_spec, *specs[1:])], jobs
    )
    labels = ["single-layer"] + [_layout_label(spec.geom) for spec in specs[1:]]
    return _sweep_result(reports, 0, labels, len(labels), specs[0].num_users, config)


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


def sweep_users_1d2d(chains: dict, config: SolverConfig, jobs: int = 1) -> UsersSweep:
    """Worst-case SNR versus user count, one warm-started chain per layout.

    ``chains`` maps a layout label (``"1d"``, ``"2d"``) to its specs, one
    geometry each; entries come out chain by chain, in ``specs`` order, each
    labelled ``<layout label>:<geometry>``.
    """
    reports = _run_tasks(
        _solve_chain, [(specs, config) for specs in chains.values()], jobs
    )
    entries = [
        (f"{label}:{_layout_label(spec.geom)}", spec, report)
        for (label, specs), chain in zip(chains.items(), reports)
        for spec, report in zip(specs, chain)
    ]
    return UsersSweep(entries=entries, seed=config.rng_seed)


def case_study(spec: ArcScenarioSpec, config: SolverConfig) -> CaseStudyResult:
    """A tiny two-layer layout (the paper's figures 6 and 7) versus its
    single-layer counterpart, warm-started from the embedded baseline; each
    report carries its (user, pattern) SNR table."""
    sms = sms_baseline(spec, config)
    warm = _embedded_start(sms, spec.geom)
    mis = solve(build_arc_scenario(spec), config, warm=warm)
    return CaseStudyResult(mis=mis, sms=sms)


def _fmt(value: float) -> str:
    return repr(float(value))


def format_db(snr: float) -> str:
    """``10 log10(snr)`` to four decimals, ``-inf`` unless ``snr > 0``."""
    return f"{10.0 * math.log10(snr):.4f}" if snr > 0 else "-inf"


def write_sweep_csv(results, path) -> None:
    """One row per cell of each :class:`SweepResult` in ``results``: geometry
    (the cell label), users, seed, baseline_snr, mis_snr, gain."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["geometry", "users", "seed", "baseline_snr", "mis_snr", "gain"])
        for res in results:
            base = _fmt(res.baseline_snr)
            for label, mis, gain in zip(
                res.cell_labels, res.mis_snr.ravel(), res.gain.ravel()
            ):
                writer.writerow(
                    [label, res.num_users, res.seed, base, _fmt(mis), _fmt(gain)]
                )


def write_users_csv(sweep: UsersSweep, path) -> None:
    """One row per entry of ``sweep``: config (its label), users,
    num_patterns, worst_snr, worst_snr_db, seed."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(
            ["config", "users", "num_patterns", "worst_snr", "worst_snr_db", "seed"]
        )
        for label, spec, report in sweep.entries:
            writer.writerow(
                [
                    label,
                    spec.num_users,
                    spec.geom.num_patterns,
                    _fmt(report.worst_snr),
                    format_db(report.worst_snr),
                    sweep.seed,
                ]
            )


def write_case_study_csv(result: CaseStudyResult, path) -> None:
    """Per-(scheme, user, pattern) SNR rows for both the two-layer (``mis``)
    and the single-layer (``sms``) solution: scheme, user, pattern, snr,
    snr_db, chosen (1 for the user's scheduled pattern, else 0)."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["scheme", "user", "pattern", "snr", "snr_db", "chosen"])
        for scheme, report in (("mis", result.mis), ("sms", result.sms)):
            table = report.snr_table
            for k in range(table.shape[0]):
                for u in range(table.shape[1]):
                    snr = float(table[k, u])
                    writer.writerow(
                        [
                            scheme,
                            k + 1,
                            u + 1,
                            _fmt(snr),
                            format_db(snr),
                            int(report.chosen_pattern[k] == u + 1),
                        ]
                    )


def write_solve_csv(report: SolveReport, path) -> None:
    """One row per user of ``report``: user, pattern (its scheduled
    placement), snr, snr_db."""
    with open(path, "w", newline="", encoding="utf-8") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(["user", "pattern", "snr", "snr_db"])
        for k, (snr, pattern) in enumerate(
            zip(report.per_user_snr, report.chosen_pattern)
        ):
            writer.writerow([k + 1, int(pattern), _fmt(float(snr)), format_db(snr)])


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
