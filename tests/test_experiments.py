import math
import os
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import misopt
from misopt import (
    ArcScenarioSpec,
    CoverageArc,
    EvalContext,
    MisGeometry,
    SolverConfig,
    build_arc_scenario,
    case_study,
    sms_baseline,
    solver,
    sweep_allocation,
    sweep_ms2_sizes,
    sweep_users_1d2d,
)
from misopt.cli import (
    results_digest,
    write_case_study_csv,
    write_manifest,
    write_sweep_csv,
    write_users_csv,
)
from misopt.experiments import (
    _embedded_start,
    _run_tasks,
    _solve_chain,
    allocation_steps,
    format_db,
)
from misopt.manifolds import project_to_tangent
from misopt.objective import ProductPoint, evaluate

@pytest.fixture
def fast(monkeypatch):
    """One restart of short solves: at most 60 iterations per stage and 10
    stages per anneal (the mu floor ends it there).  The studies here run
    serially, so the patched constants reach every solve."""
    monkeypatch.setattr(solver, "MAX_INNER_ITERS", 60)
    monkeypatch.setattr(solver, "MU_MIN_RATIO", 2.0**-9)
    return SolverConfig(rng_seed=0, num_restarts=1)


def _ladder(total, scheme, num_users, arc=CoverageArc()):
    return [ArcScenarioSpec(g, num_users, arc) for g in allocation_steps(total, scheme)]


def _small_chains(user_counts):
    """The user sweep's chains on a 1x4/1x2 and a 2x2/1x1 layout."""
    layouts = {"1d": MisGeometry(1, 4, 1, 2), "2d": MisGeometry(2, 2, 1, 1)}
    return {
        label: [ArcScenarioSpec(geom, count) for count in user_counts]
        for label, geom in layouts.items()
    }


def test_arc_scenario_endpoints():
    spec = ArcScenarioSpec(geom=MisGeometry(2, 2, 1, 1), num_users=2)
    scenario = build_arc_scenario(spec)
    azimuths = [angles.azimuth for angles, _ in scenario.users]
    np.testing.assert_allclose(azimuths, [-math.pi / 3, math.pi / 3], atol=1e-15)
    assert all(iota == 0.01 for _, iota in scenario.users)
    assert all(angles.elevation == math.pi / 4 for angles, _ in scenario.users)


def test_arc_scenario_uniform_spacing():
    spec3 = ArcScenarioSpec(geom=MisGeometry(2, 2, 1, 1), num_users=3)
    azimuths = [a.azimuth for a, _ in build_arc_scenario(spec3).users]
    np.testing.assert_allclose(azimuths, [-math.pi / 3, 0.0, math.pi / 3], atol=1e-15)

    spec4 = ArcScenarioSpec(geom=MisGeometry(2, 2, 1, 1), num_users=4)
    azimuths = [a.azimuth for a, _ in build_arc_scenario(spec4).users]
    gaps = np.diff(azimuths)
    np.testing.assert_allclose(gaps, 2 * math.pi / 9, atol=1e-15)


def test_arc_scenario_validation():
    for bad in (0, True, 2.5, 2.0, "2"):
        with pytest.raises(ValueError, match="num_users must be a positive integer"):
            ArcScenarioSpec(geom=MisGeometry(2, 2, 1, 1), num_users=bad)
    ArcScenarioSpec(geom=MisGeometry(2, 2, 1, 1), num_users=np.int64(2))
    with pytest.raises(ValueError):
        ArcScenarioSpec(
            geom=MisGeometry(2, 2, 1, 1),
            num_users=2,
            arc=CoverageArc(azimuth_lo=1.0, azimuth_hi=-1.0),
        )
    with pytest.raises(ValueError, match="elevation"):
        CoverageArc(elevation=2.0)
    with pytest.raises(ValueError, match="azimuth"):
        CoverageArc(azimuth_lo=-4.0)



@pytest.mark.parametrize(
    "field, kwargs",
    [
        ("iota", {"iota": True}),
        ("iota", {"iota": np.bool_(True)}),
        ("iota", {"iota": "0.01"}),
        ("azimuth", {"azimuth_lo": True}),
        ("elevation", {"elevation": False}),
    ],
)
def test_coverage_arc_rejects_non_real(field, kwargs):
    with pytest.raises(ValueError, match=rf"^{field} must be a real number"):
        CoverageArc(**kwargs)
    CoverageArc(iota=np.float32(0.02), elevation=np.int64(1), azimuth_hi=1)


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_arc_scenario_rejects_non_finite_iota(bad):
    with pytest.raises(ValueError, match="iota"):
        ArcScenarioSpec(
            geom=MisGeometry(2, 2, 1, 1), num_users=2, arc=CoverageArc(iota=bad)
        )


def test_import_leaves_the_process_pool_out():
    """Only a pooled study (jobs > 1) imports concurrent.futures.process."""
    src = str(Path(misopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = "import sys, misopt.cli; sys.exit('concurrent.futures.process' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, timeout=60
    )
    assert proc.returncode == 0


def _index_and_pid(i):
    # Long enough that a worker cannot drain every task before the caller claims.
    time.sleep(0.02)
    return i, os.getpid()


def _record_then_fail(args):
    folder, i = args
    (folder / str(i)).touch()
    raise ValueError(f"task {i} failed")


def _record_claim(args):
    folder, i = args
    (folder / f"{i}-{os.getpid()}").touch(exist_ok=False)
    return i


def test_the_caller_is_one_of_the_jobs_processes():
    results = _run_tasks(_index_and_pid, list(range(5)), 2)
    assert [i for i, _ in results] == list(range(5))
    pids = {pid for _, pid in results}
    assert os.getpid() in pids
    assert len(pids) <= 2


def test_a_failing_task_stops_the_other_processes_claiming(tmp_path):
    with pytest.raises(ValueError, match="failed"):
        _run_tasks(_record_then_fail, [(tmp_path, i) for i in range(8)], 2)
    assert 1 <= len(list(tmp_path.iterdir())) <= 2


def test_each_task_is_claimed_once_with_more_processes_than_cores(tmp_path):
    assert _run_tasks(_record_claim, [(tmp_path, i) for i in range(64)], 4) == list(range(64))
    claims = [path.name.split("-")[0] for path in tmp_path.iterdir()]
    assert sorted(map(int, claims)) == list(range(64))


@pytest.mark.parametrize("method", ["spawn", "forkserver"])
def test_workers_get_the_counter_under_other_start_methods(method):
    src = str(Path(misopt.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
    code = (
        "import multiprocessing, sys\n"
        f"multiprocessing.set_start_method({method!r})\n"
        "from misopt.experiments import _run_tasks\n"
        "sys.exit(_run_tasks(abs, [-3, -1, -2], 2) != [3, 1, 2])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path}, timeout=60
    )
    assert proc.returncode == 0


def test_sms_baseline_reduces_to_single_pattern(fast):
    spec = ArcScenarioSpec(geom=MisGeometry(2, 2, 1, 1), num_users=2)
    report = sms_baseline(spec, fast)
    assert report.snr_table.shape == (2, 1)
    np.testing.assert_array_equal(report.chosen_pattern, [1, 1])


def test_sms_baseline_single_element_value(fast):
    spec = ArcScenarioSpec(geom=MisGeometry(1, 1, 1, 1), num_users=2)
    report = sms_baseline(spec, fast)
    assert report.worst_snr == pytest.approx(0.01, rel=1e-9)


def test_sms_baseline_matched_filter_value():
    spec = ArcScenarioSpec(geom=MisGeometry(2, 1, 1, 1), num_users=1)
    report = sms_baseline(spec, SolverConfig(rng_seed=1, num_restarts=2))
    assert report.worst_snr == pytest.approx(0.04, rel=1e-4)


def test_allocation_steps_hand_listed_total_64():
    dims = [
        (g.m_rows, g.m_cols, g.n_rows, g.n_cols) for g in allocation_steps(64, 1)
    ]
    assert dims == [
        (8, 8, 8, 8),
        (8, 7, 2, 4),
        (8, 6, 4, 4),
        (8, 5, 6, 4),
        (8, 4, 8, 4),
    ]
    dims2 = [
        (g.m_rows, g.m_cols, g.n_rows, g.n_cols) for g in allocation_steps(64, 2)
    ]
    assert dims2 == [
        (8, 8, 8, 8),
        (7, 8, 4, 2),
        (6, 8, 4, 4),
        (5, 8, 4, 6),
        (4, 8, 4, 8),
    ]
    # total element count is conserved along both ladders
    for geoms in (allocation_steps(64, 1), allocation_steps(64, 2)):
        for i, geom in enumerate(geoms):
            if i == 0:
                assert geom.num_ms1 == 64
            else:
                assert geom.num_ms1 + geom.num_ms2 == 64


def test_allocation_steps_validation():
    with pytest.raises(ValueError, match="square"):
        allocation_steps(60, 1)
    with pytest.raises(ValueError, match="even"):
        allocation_steps(81, 1)
    with pytest.raises(ValueError, match="scheme"):
        allocation_steps(64, 3)
    # a bool is not a scheme, and a float is not an element count
    with pytest.raises(ValueError, match="scheme must be a positive integer"):
        allocation_steps(64, True)
    with pytest.raises(ValueError, match="total_elements must be a positive integer"):
        allocation_steps(64.0, 1)
    with pytest.raises(ValueError, match="total_elements"):
        allocation_steps(-4, 1)
    assert len(allocation_steps(np.int64(16), np.int32(2))) == 3


def _check_gains(study, baseline):
    """``gains()`` is each entry's worst SNR over the baseline entry's, and
    exactly 1 at ``baseline``, the study's baseline index."""
    assert study.baseline == baseline
    snr = np.array([report.worst_snr for _, _, report in study.entries])
    gains = study.gains()
    expected = snr / study.entries[baseline][2].worst_snr
    expected[baseline] = 1.0
    np.testing.assert_array_equal(gains, expected)
    assert gains[baseline] == 1.0


def test_sweep_allocation_tiny(fast):
    study = sweep_allocation(_ladder(4, 1, 2), fast)
    assert [label for label, _, _ in study.entries] == [
        "single-layer", "ms1=2x1/ms2=2x1"
    ]
    assert study.entries[0][1].geom == MisGeometry(2, 2, 2, 2)
    _check_gains(study, 0)
    assert all(report.worst_snr > 0 for _, _, report in study.entries)


def test_sweep_allocation_keeps_a_repeated_geometry(fast):
    ladder = _ladder(4, 1, 2)
    study = sweep_allocation([ladder[0], ladder[1], ladder[1]], fast)
    assert len(study.entries) == study.gains().size == 3
    assert [spec for _, spec, _ in study.entries][1:] == [ladder[1], ladder[1]]


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before every input was checked")


def test_sweep_allocation_rejects_mixed_specs(monkeypatch, fast):
    monkeypatch.setattr("misopt.experiments.solve", _no_solve)
    ladder = _ladder(4, 1, 2)
    for bad in (
        [ladder[0], replace(ladder[1], num_users=3)],
        [ladder[0], replace(ladder[1], arc=CoverageArc(iota=0.02))],
        [],
    ):
        with pytest.raises(ValueError, match="one user count and one arc"):
            sweep_allocation(bad, fast)


def test_sweep_ms2_tiny_grid_nesting_and_baseline(fast):
    study = sweep_ms2_sizes(ArcScenarioSpec(MisGeometry(2, 2, 2, 2), 2), fast)
    assert all(spec.num_users == 2 for _, spec, _ in study.entries)
    # cells row-major, the full-size cell (the baseline itself) last
    assert [spec.geom.num_ms2 for _, spec, _ in study.entries] == [1, 2, 2, 4]
    _check_gains(study, 3)
    assert np.all(study.gains() >= 1.0 - 1e-6)


def test_sweep_users_small(fast):
    sweep = sweep_users_1d2d(_small_chains((2, 3)), fast)
    assert len(sweep.entries) == 4
    assert sweep.baseline is None
    one_d = [(spec, rep) for label, spec, rep in sweep.entries if label.startswith("1d")]
    assert [spec.num_users for spec, _ in one_d] == [2, 3]
    assert all(rep.snr_table.shape == (spec.num_users, 3) for spec, rep in one_d)
    assert all(rep.worst_snr > 0 for _, _, rep in sweep.entries)


def test_case_study_figure_six_improves_on_baseline():
    spec = ArcScenarioSpec(MisGeometry(2, 1, 1, 1), 4)
    study = case_study(spec, SolverConfig(rng_seed=7, num_restarts=2))
    assert [label for label, _, _ in study.entries] == ["mis", "sms"]
    _check_gains(study, 1)
    (_, _, mis), (_, sms_spec, sms) = study.entries
    assert sms_spec.geom == MisGeometry(2, 1, 2, 1)
    assert mis.snr_table.shape == (4, 2)
    assert sms.snr_table.shape == (4, 1)
    assert mis.worst_snr > sms.worst_snr
    assert set(mis.chosen_pattern.tolist()) == {1, 2}


def test_csv_writers_deterministic(tmp_path, fast):
    result = sweep_allocation(_ladder(4, 1, 2), fast)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_sweep_csv([result], fast.rng_seed, path_a)
    write_sweep_csv([result], fast.rng_seed, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0]
    assert header == "geometry,users,seed,baseline_snr,mis_snr,gain"
    assert results_digest(path_a) == results_digest(path_b)


def test_users_csv_and_manifest(tmp_path, fast):
    sweep = sweep_users_1d2d(_small_chains((2,)), fast)
    path = tmp_path / "users.csv"
    write_users_csv(sweep, fast.rng_seed, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "config,users,num_patterns,worst_snr,worst_snr_db,seed"
    assert len(lines) == 3
    label, spec, report = sweep.entries[0]
    assert lines[1].split(",") == [
        label, "2", "3", repr(report.worst_snr), format_db(report.worst_snr), "0"
    ]

    manifest = tmp_path / "manifest.json"
    config = {"subcommand": "sweep-users", "seed": 4}
    write_manifest(manifest, config=config, digest=results_digest(path))
    import json

    payload = json.loads(manifest.read_text())
    assert payload == {
        "config": config,
        "seed": 4,
        "tool_version": misopt.__version__,
        "results_digest": results_digest(path),
    }


@pytest.mark.parametrize(
    "snr, text",
    [(1.0, "0.0000"), (10.0, "10.0000"), (np.float64(0.5), "-3.0103"),
     (0.0, "-inf"), (-1.0, "-inf"), (math.nan, "nan"), (math.inf, "inf")],
)
def test_format_db(snr, text):
    assert format_db(snr) == text


def test_case_study_csv_schema(tmp_path):
    spec = ArcScenarioSpec(MisGeometry(2, 1, 1, 1), 4)
    result = case_study(spec, SolverConfig(rng_seed=7, num_restarts=1))
    path = tmp_path / "case.csv"
    write_case_study_csv(result, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "scheme,user,pattern,snr,snr_db,chosen"
    # 4 users x 2 patterns for the two-layer run plus 4 x 1 for the baseline
    assert len(lines) == 1 + 8 + 4
    assert [line.split(",")[0] for line in lines[1:]] == ["mis"] * 8 + ["sms"] * 4


def test_chain_keeps_repeated_counts_in_spec_order(monkeypatch, fast):
    """A chain solves its largest count first, equal counts in spec order,
    and returns one report per spec, in spec order."""
    calls = []

    def fake_solve(scenario, config, warm=None):
        calls.append((scenario.num_users, warm is not None))
        return SimpleNamespace(
            call=len(calls) - 1,
            ms1_phase=np.ones(scenario.geom.num_ms1, dtype=complex),
            ms2_phase=np.ones(scenario.geom.num_ms2, dtype=complex),
        )

    monkeypatch.setattr("misopt.experiments.solve", fake_solve)
    geom = MisGeometry(1, 4, 1, 2)
    specs = [ArcScenarioSpec(geom, count) for count in (3, 2, 3)]
    reports = _solve_chain((specs, fast))
    assert calls == [(3, False), (3, True), (2, True)]
    assert [r.call for r in reports] == [0, 2, 1]


@pytest.mark.parametrize(
    "fixed, cells",
    [((3, 3), [(1, 1), (2, 3), (3, 2)]), ((2, 2), [(1, 1)])],
)
def test_embedded_start_keeps_the_baseline_on_placement_one_only(fast, fixed, cells):
    spec = ArcScenarioSpec(MisGeometry(*fixed, *fixed), 4)
    baseline = sms_baseline(spec, fast)
    for cell in cells:
        geom = MisGeometry(*fixed, *cell)
        pair = _embedded_start(baseline, geom)
        for phase, size in zip(pair, (geom.num_ms1, geom.num_ms2)):
            assert phase.shape == (size,)
            np.testing.assert_allclose(np.abs(phase), 1.0, rtol=0, atol=1e-12)
        ctx = EvalContext.from_scenario(build_arc_scenario(replace(spec, geom=geom)))
        table = ctx.pattern_snr_table(*pair)
        np.testing.assert_allclose(table[:, 0], baseline.per_user_snr, rtol=1e-12)
        assert ctx.num_patterns > 1
        # Off the symmetric point where every placement gives the same beam,
        # the schedule block of the gradient at the uniform schedule is nonzero.
        assert not np.allclose(table, table[:, :1], rtol=1e-9, atol=0)
        uniform = np.full(table.shape, 1.0 / ctx.num_patterns)
        point = ProductPoint(*pair, uniform)
        ev = evaluate(point, 0.1 * float(table.mean()), ctx, want_grad=True)
        d_schedule = project_to_tangent(point, ev.grads).d_schedule
        assert np.max(np.abs(d_schedule)) > 1e-9 * np.max(np.abs(ev.grads[2]))


def test_case_study_snr_table_is_the_table_at_its_phases(fast):
    spec = ArcScenarioSpec(MisGeometry(2, 2, 1, 1), 3)
    (_, _, mis), (_, _, sms) = case_study(spec, fast).entries
    sms_spec = replace(spec, geom=MisGeometry(2, 2, 2, 2))
    for report, scenario in (
        (mis, build_arc_scenario(spec)),
        (sms, build_arc_scenario(sms_spec)),
    ):
        table = EvalContext.from_scenario(scenario).pattern_snr_table(
            report.ms1_phase, report.ms2_phase
        )
        np.testing.assert_array_equal(report.snr_table, table)
        np.testing.assert_array_equal(report.per_user_snr, table.max(axis=1))


def test_case_study_uses_the_given_arc(fast):
    arc = CoverageArc(azimuth_lo=-0.5, azimuth_hi=0.5, iota=0.02)
    spec = ArcScenarioSpec(MisGeometry(2, 1, 1, 1), 3, arc)
    (_, _, mis), _ = case_study(spec, fast).entries
    scenario = build_arc_scenario(spec)
    np.testing.assert_allclose([a.azimuth for a, _ in scenario.users], [-0.5, 0.0, 0.5])
    assert all(iota == 0.02 for _, iota in scenario.users)
    # the report's table is the custom arc's table, not the default arc's
    table = EvalContext.from_scenario(scenario).pattern_snr_table(
        mis.ms1_phase, mis.ms2_phase
    )
    np.testing.assert_array_equal(mis.snr_table, table)
    default = EvalContext.from_scenario(build_arc_scenario(replace(spec, arc=CoverageArc())))
    assert not np.allclose(
        mis.snr_table, default.pattern_snr_table(mis.ms1_phase, mis.ms2_phase)
    )
