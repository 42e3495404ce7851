"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-5 run the checks of :mod:`misopt.checks` that ``selftest`` and
``oracle-check`` also run, here with the acceptance seeds and counts.
Heavy runs (the movable-size sweep, the allocation ladder, the user sweep)
are computed once in module-scoped fixtures and shared between criteria;
their solve reports also feed the monotone-trace criterion.
"""

import time

import numpy as np
import pytest

from misopt import (
    ArcScenarioSpec,
    MisGeometry,
    SolverConfig,
    build_arc_scenario,
    solve,
    sweep_allocation,
    sweep_ms2_sizes,
    sweep_users_1d2d,
)
from misopt.checks import (
    check_gradients,
    check_manifold_primitives,
    check_model_equivalence,
    check_oracle_optimality,
    check_softmin_sandwich,
)
from misopt.cli import main as cli_main
from misopt.experiments import USERS_LAYOUTS, allocation_steps

SEED = 7
# Pool width of the three sweep fixtures; results do not depend on it.
JOBS = 2

# Reports collected from every acceptance solve, for the trace criterion.
_collected = []


def _collect(tag, reports):
    for report in reports:
        _collected.append((tag, report))


def _ok(num, detail):
    print(f"[acceptance {num:>2}] PASS: {detail}")


@pytest.fixture(scope="module")
def ms2_sweep():
    config = SolverConfig(rng_seed=SEED, num_restarts=3)
    start = time.perf_counter()
    result = sweep_ms2_sizes(
        ArcScenarioSpec(MisGeometry(6, 6, 6, 6), 8), config, jobs=JOBS
    )
    elapsed = time.perf_counter() - start
    _collect("ms2-sweep", [report for _, _, report in result.entries])
    return result, elapsed


@pytest.fixture(scope="module")
def alloc_sweep():
    config = SolverConfig(rng_seed=SEED, num_restarts=16)
    start = time.perf_counter()
    specs = [ArcScenarioSpec(geom, 8) for geom in allocation_steps(64, 1)]
    result = sweep_allocation(specs, config, jobs=JOBS)
    elapsed = time.perf_counter() - start
    _collect("alloc-sweep", [report for _, _, report in result.entries])
    return result, elapsed


@pytest.fixture(scope="module")
def users_sweep():
    config = SolverConfig(rng_seed=SEED, num_restarts=2)
    start = time.perf_counter()
    chains = {
        label: [ArcScenarioSpec(geom, count) for count in (4, 8, 16, 32)]
        for label, geom in USERS_LAYOUTS.items()
    }
    result = sweep_users_1d2d(chains, config, jobs=JOBS)
    elapsed = time.perf_counter() - start
    _collect("users-sweep", [report for _, _, report in result.entries])
    return result, elapsed


def _check(num, check, *args, time_limit):
    """Run a shared check from :mod:`misopt.checks` under a wall-time limit."""
    start = time.perf_counter()
    result = check(*args)
    elapsed = time.perf_counter() - start
    assert result.passed, result.detail
    assert elapsed < time_limit
    _ok(num, f"{result.detail} ({elapsed:.1f}s)")
    return result


def test_criterion_01_gradient_correctness():
    _check(1, check_gradients, SEED, 20, time_limit=10.0)


def test_criterion_02_lse_sandwich():
    _check(2, check_softmin_sandwich, SEED + 1, 100, time_limit=5.0)


def test_criterion_03_model_equivalence():
    _check(3, check_model_equivalence, SEED + 2, 50, time_limit=5.0)


def test_criterion_04_manifold_primitives():
    _check(4, check_manifold_primitives, SEED + 3, 50, time_limit=5.0)


def test_criterion_05_oracle_optimality():
    result = _check(5, check_oracle_optimality, SEED, time_limit=60.0)
    _collect("oracle-instance", result.reports)


def test_criterion_06_matched_filter_closed_form():
    start = time.perf_counter()
    ratios = {}
    for rows, cols in ((2, 2), (4, 4), (8, 8)):
        geom = MisGeometry(rows, cols, rows, cols)
        spec = ArcScenarioSpec(geom=geom, num_users=1)
        report = solve(build_arc_scenario(spec), SolverConfig(rng_seed=SEED, num_restarts=2))
        _collect("matched-filter", [report])
        m = rows * cols
        ratios[m] = report.worst_snr / (0.01 * m * m)
    elapsed = time.perf_counter() - start
    for m, ratio in ratios.items():
        assert abs(ratio - 1.0) < 0.01, f"M={m} ratio {ratio}"
    assert elapsed < 30.0
    detail = ", ".join(f"M={m}: {r:.6f}" for m, r in ratios.items())
    _ok(6, f"matched-filter ratios within 1% ({detail}) ({elapsed:.1f}s)")


def test_criterion_07_feasible_set_nesting(ms2_sweep):
    result, elapsed = ms2_sweep
    gain = result.gains()
    assert np.all(gain >= 1.0 - 1e-6)
    assert gain[35] == 1.0
    assert elapsed < 900.0
    _ok(
        7,
        f"full 6x6 sweep: every cell >= baseline (min gain {gain.min():.6f}) "
        f"({elapsed:.0f}s)",
    )


def test_criterion_08a_small_movable_layer_gain(ms2_sweep):
    result, elapsed = ms2_sweep
    small_cells = [
        (nr, nc)
        for nr in range(1, 7)
        for nc in range(1, 7)
        if nr * nc <= 4 and (nr, nc) != (6, 6)
    ]
    gain = result.gains()
    best = max(float(gain[(nr - 1) * 6 + nc - 1]) for nr, nc in small_cells)
    assert best >= 1.10
    _ok(8, f"(a) best gain with <=4 movable elements {best:.4f} >= 1.10 ({elapsed:.0f}s)")


def test_criterion_08b_allocation_peak_gain(alloc_sweep):
    result, elapsed = alloc_sweep
    gain = result.gains()
    peak = float(gain.max())
    at = result.entries[int(gain.argmax())][0]
    assert peak >= 1.20
    assert elapsed < 1800.0
    _ok(8, f"(b) allocation peak gain {peak:.4f} >= 1.20 at {at} ({elapsed:.0f}s)")


def test_criterion_08c_worst_snr_monotone_in_users(users_sweep):
    result, elapsed = users_sweep
    by_label = {}
    for label, spec, report in result.entries:
        by_label.setdefault(label.split(":")[0], []).append(
            (spec.num_users, report.worst_snr)
        )
    for label, pairs in by_label.items():
        pairs.sort()
        values = [v for _, v in pairs]
        for earlier, later in zip(values, values[1:]):
            assert later <= earlier * (1 + 1e-9), f"{label}: {values}"
    assert elapsed < 1800.0
    _ok(8, f"(c) worst-case SNR non-increasing in user count for 1D and 2D ({elapsed:.0f}s)")


def test_criterion_09_monotone_inner_traces(ms2_sweep, alloc_sweep, users_sweep):
    total_segments = 0
    for tag, report in _collected:
        for stage in report.stages:
            assert np.all(np.diff(stage.objective_trace) >= 0.0), f"non-monotone trace in {tag}"
            total_segments += 1
    assert total_segments > 0
    _ok(9, f"all {total_segments} inner-loop traces are non-decreasing")


def test_criterion_10_determinism_byte_identical_csv(tmp_path, capsys):
    start = time.perf_counter()
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    args = ["case-study", "--figure", "6", "--seed", "7"]
    assert cli_main(args + ["--out", str(out_a)]) == 0
    assert cli_main(args + ["--out", str(out_b)]) == 0
    capsys.readouterr()
    bytes_a = (out_a / "case_study.csv").read_bytes()
    bytes_b = (out_b / "case_study.csv").read_bytes()
    assert bytes_a == bytes_b
    elapsed = time.perf_counter() - start
    _ok(10, f"repeated case-study runs emit byte-identical CSV ({elapsed:.1f}s)")
