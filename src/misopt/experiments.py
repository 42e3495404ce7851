"""Scenario builders and study drivers for the numerical studies.

The target coverage area is a :class:`CoverageArc`: users on an azimuth arc
at a common elevation and a common SNR scale.  An
:class:`ArcScenarioSpec` places a user count on that arc over one geometry.
Every study takes the specs it solves, built by the caller (the CLI builds
them from its configuration), and returns a :class:`Study`: its ordered
``(label, spec, report)`` entries and the index of its baseline entry, the
single-layer layout (movable layer grown to the full fixed layer, one
pattern) that :meth:`Study.gains` normalizes by; the user sweep has none.
A study copies nothing out of its reports.  :func:`sweep_ms2_sizes` and
:func:`case_study` keep the fixed layer unchanged and warm-start each
movable-layer cell from the baseline solution embedded as a phase pair
(layer 2 carries the baseline's phases where placement 1 puts it, layer 1
the rest), so placement 1 reproduces the baseline beam and a cell can never
report worse than the baseline it is normalized by.

Sweep cells (the allocation baseline among them, and the two chains of the
user sweep) are independent tasks; with ``jobs > 1`` :func:`_run_tasks`
runs them on ``jobs`` processes, the calling one among them, and gathers
them by index, so results do not depend on which process ran a task or when
it finished.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import BROADSIDE, ArrayAngles, Scenario, _check_iota
from .geometry import MisGeometry, _require_int, all_selections
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
    "format_db",
]

# The user sweep's two layouts: a 1D and a 2D surface, 29 and 9 patterns.
USERS_LAYOUTS = {"1d": MisGeometry(1, 64, 1, 36), "2d": MisGeometry(8, 8, 6, 6)}

@dataclass(frozen=True)
class CoverageArc:
    """Target coverage area: an azimuth arc at one elevation and SNR scale,
    lit by a base station whose signal reaches the surface at broadside."""

    azimuth_lo: float = -math.pi / 3
    azimuth_hi: float = math.pi / 3
    elevation: float = math.pi / 4
    iota: float = 0.01

    def __post_init__(self):
        # Every user direction lies between these two; ArrayAngles checks them.
        ArrayAngles(self.azimuth_lo, self.elevation)
        ArrayAngles(self.azimuth_hi, self.elevation)
        if not self.azimuth_lo < self.azimuth_hi:
            raise ValueError("azimuth_lo must be below azimuth_hi")
        _check_iota(self.iota)


@dataclass(frozen=True)
class ArcScenarioSpec:
    """``num_users`` users spread uniformly over ``arc``, served by ``geom``."""

    geom: MisGeometry
    num_users: int
    arc: CoverageArc = CoverageArc()

    def __post_init__(self):
        _require_int("num_users", self.num_users, 1)
        _check_iota(self.arc.iota, self.geom.num_ms1)


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
    return Scenario(geom=spec.geom, mis_arrival=BROADSIDE, users=users)


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

    The baseline's combined per-element phase (its one placement covers
    every element in order, so that phase is ms2 * ms1) goes onto layer 2 at
    the elements placement 1 covers, and onto layer 1 everywhere else, with
    ones under layer 2.  Placement 1 reproduces the baseline beam exactly,
    and every other placement moves layer 2's part of it elsewhere.  (Layer
    2 all ones would give every placement the baseline beam: a symmetric
    point where the schedule's gradient is exactly 0, slow to leave.)
    """
    combined = baseline.ms2_phase * baseline.ms1_phase
    covered = all_selections(cell_geom)[0]
    ms1_phase = combined.copy()
    ms1_phase[covered] = 1.0
    return ms1_phase, combined[covered]


def _solve_task(args) -> SolveReport:
    spec, config, warm = args
    return solve(build_arc_scenario(spec), config, warm=warm)


def _claim(task, args: list, counter) -> list:
    """``(i, task(args[i]))`` for each task index ``i`` this process claims
    from ``counter``; a failure first exhausts it, so the others stop."""
    done = []
    while True:
        with counter.get_lock():
            i = counter.value
            counter.value = i + 1
        if i >= len(args):
            return done
        try:
            done.append((i, task(args[i])))
        except BaseException:
            counter.value = len(args)
            raise


_worker_state = ()


def _init_worker(*state) -> None:
    # Pool initargs reach a worker under fork, spawn and forkserver alike,
    # the shared counter too; a submitted call's arguments cannot carry it.
    global _worker_state
    _worker_state = state


def _worker_claim() -> list:
    return _claim(*_worker_state)


def _run_tasks(task, args: list, jobs: int) -> list:
    """``[task(a) for a in args]``, on ``min(jobs, len(args))`` processes (the
    caller and its pool workers) when there is more than one task."""
    if jobs <= 1 or len(args) <= 1:
        return [task(a) for a in args]
    # Imported here: concurrent.futures.process is a fifth of `import misopt`.
    import multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    counter = multiprocessing.Value("i", 0)
    workers = min(jobs, len(args)) - 1
    with ProcessPoolExecutor(
        workers, initializer=_init_worker, initargs=(task, args, counter)
    ) as pool:
        futures = [pool.submit(_worker_claim) for _ in range(workers)]
        done = dict(_claim(task, args, counter))
        for future in futures:
            done.update(future.result())
    return [done[i] for i in range(len(args))]


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
    _require_int("total_elements", total_elements, 1)
    _require_int("scheme", scheme, 1)
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
    which is also the first task claimed.  The specs must share one user
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


def format_db(snr: float) -> str:
    """``10 log10(snr)`` to four decimals: ``nan`` for NaN, ``-inf`` for an
    SNR of zero or below."""
    return f"{10.0 * math.log10(snr):.4f}" if snr > 0 or math.isnan(snr) else "-inf"
