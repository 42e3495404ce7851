import math
from dataclasses import replace
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
    sweep_allocation,
    sweep_ms2_sizes,
    sweep_users_1d2d,
)
from misopt.experiments import (
    _solve_chain,
    allocation_steps,
    format_db,
    results_digest,
    write_case_study_csv,
    write_manifest,
    write_sweep_csv,
    write_users_csv,
)

FAST = SolverConfig(rng_seed=0, num_restarts=1, max_inner_iters=60, max_outer_iters=10)


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


def test_sms_baseline_reduces_to_single_pattern():
    spec = ArcScenarioSpec(geom=MisGeometry(2, 2, 1, 1), num_users=2)
    report = sms_baseline(spec, FAST)
    assert report.snr_table.shape == (2, 1)
    np.testing.assert_array_equal(report.chosen_pattern, [1, 1])


def test_sms_baseline_single_element_value():
    spec = ArcScenarioSpec(geom=MisGeometry(1, 1, 1, 1), num_users=2)
    report = sms_baseline(spec, FAST)
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


def test_sweep_allocation_tiny():
    study = sweep_allocation(_ladder(4, 1, 2), FAST)
    assert [label for label, _, _ in study.entries] == [
        "single-layer", "ms1=2x1/ms2=2x1"
    ]
    assert study.entries[0][1].geom == MisGeometry(2, 2, 2, 2)
    _check_gains(study, 0)
    assert all(report.worst_snr > 0 for _, _, report in study.entries)


def test_sweep_allocation_keeps_a_repeated_geometry():
    ladder = _ladder(4, 1, 2)
    study = sweep_allocation([ladder[0], ladder[1], ladder[1]], FAST)
    assert len(study.entries) == study.gains().size == 3
    assert [spec for _, spec, _ in study.entries][1:] == [ladder[1], ladder[1]]


def _no_solve(*args, **kwargs):
    raise AssertionError("solved before every input was checked")


def test_sweep_allocation_rejects_mixed_specs(monkeypatch):
    monkeypatch.setattr("misopt.experiments.solve", _no_solve)
    ladder = _ladder(4, 1, 2)
    for bad in (
        [ladder[0], replace(ladder[1], num_users=3)],
        [ladder[0], replace(ladder[1], arc=CoverageArc(iota=0.02))],
        [],
    ):
        with pytest.raises(ValueError, match="one user count and one arc"):
            sweep_allocation(bad, FAST)


def test_sweep_ms2_tiny_grid_nesting_and_baseline():
    study = sweep_ms2_sizes(ArcScenarioSpec(MisGeometry(2, 2, 2, 2), 2), FAST)
    assert all(spec.num_users == 2 for _, spec, _ in study.entries)
    # cells row-major, the full-size cell (the baseline itself) last
    assert [spec.geom.num_ms2 for _, spec, _ in study.entries] == [1, 2, 2, 4]
    _check_gains(study, 3)
    assert np.all(study.gains() >= 1.0 - 1e-6)


def test_sweep_ms2_reproducible():
    spec = ArcScenarioSpec(MisGeometry(2, 2, 2, 2), 2)
    first = sweep_ms2_sizes(spec, FAST)
    second = sweep_ms2_sizes(spec, FAST)
    for (_, _, a), (_, _, b) in zip(first.entries, second.entries):
        assert a.worst_snr == b.worst_snr
    np.testing.assert_array_equal(first.gains(), second.gains())


def test_sweep_users_small():
    sweep = sweep_users_1d2d(_small_chains((2, 3)), FAST)
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


def test_csv_writers_deterministic(tmp_path):
    result = sweep_allocation(_ladder(4, 1, 2), FAST)
    path_a = tmp_path / "a.csv"
    path_b = tmp_path / "b.csv"
    write_sweep_csv([result], FAST.rng_seed, path_a)
    write_sweep_csv([result], FAST.rng_seed, path_b)
    assert path_a.read_bytes() == path_b.read_bytes()
    header = path_a.read_text().splitlines()[0]
    assert header == "geometry,users,seed,baseline_snr,mis_snr,gain"
    assert results_digest(path_a) == results_digest(path_b)


def test_users_csv_and_manifest(tmp_path):
    sweep = sweep_users_1d2d(_small_chains((2,)), FAST)
    path = tmp_path / "users.csv"
    write_users_csv(sweep, FAST.rng_seed, path)
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
     (0.0, "-inf"), (-1.0, "-inf"), (math.nan, "-inf"), (math.inf, "inf")],
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


def test_chain_keeps_repeated_counts_in_spec_order(monkeypatch):
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
    reports = _solve_chain((specs, FAST))
    assert calls == [(3, False), (3, True), (2, True)]
    assert [r.call for r in reports] == [0, 2, 1]


def test_case_study_snr_table_is_the_table_at_its_phases():
    spec = ArcScenarioSpec(MisGeometry(2, 2, 1, 1), 3)
    (_, _, mis), (_, _, sms) = case_study(spec, FAST).entries
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


def test_case_study_uses_the_given_arc():
    arc = CoverageArc(azimuth_lo=-0.5, azimuth_hi=0.5, iota=0.02)
    spec = ArcScenarioSpec(MisGeometry(2, 1, 1, 1), 3, arc)
    (_, _, mis), _ = case_study(spec, FAST).entries
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
