import math

import numpy as np
import pytest

from misopt import (
    ArrayAngles,
    CascadedChannel,
    MisGeometry,
    Scenario,
    cascaded_channel,
    snr,
    snr_full_path,
    upa_steering,
)
from helpers import random_instance, random_scenario


def test_steering_single_element():
    vec = upa_steering(1, 1, 0.5, ArrayAngles(0.7, 0.3))
    np.testing.assert_allclose(vec, [1.0 + 0.0j])


def test_steering_zero_elevation_is_flat():
    vec = upa_steering(3, 4, 0.5, ArrayAngles(-1.1, 0.0))
    np.testing.assert_allclose(vec, np.ones(12, dtype=complex), atol=1e-15)


def test_steering_half_wave_endfire_pair():
    vec = upa_steering(1, 2, 0.5, ArrayAngles(math.pi / 2, math.pi / 2))
    np.testing.assert_allclose(vec, [1.0, -1.0], atol=1e-12)


def test_steering_row_major_flattening():
    angles = ArrayAngles(0.4, 0.9)
    vec = upa_steering(2, 3, 0.5, angles)
    row_gain = math.cos(angles.azimuth) * math.sin(angles.elevation)
    col_gain = math.sin(angles.azimuth) * math.sin(angles.elevation)
    for r in range(2):
        for c in range(3):
            expected = np.exp(1j * 2 * math.pi * 0.5 * (r * row_gain + c * col_gain))
            np.testing.assert_allclose(vec[r * 3 + c], expected, atol=1e-14)


def test_angle_ranges_validated():
    with pytest.raises(ValueError):
        ArrayAngles(4.0, 0.1)
    with pytest.raises(ValueError):
        ArrayAngles(0.0, 2.0)


def test_cascaded_flat_when_both_broadside():
    geom = MisGeometry(3, 2, 1, 1)
    scenario = Scenario(
        geom=geom,
        mis_arrival=ArrayAngles(0.3, 0.0),
        users=[(ArrayAngles(-0.8, 0.0), 0.02)],
    )
    chans = cascaded_channel(scenario)
    np.testing.assert_allclose(chans[0].c, np.ones(6, dtype=complex), atol=1e-15)
    assert chans[0].iota == 0.02


def test_cascaded_unit_modulus_and_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        scenario = random_scenario(rng)
        geom = scenario.geom
        for k, chan in enumerate(cascaded_channel(scenario)):
            np.testing.assert_allclose(np.abs(chan.c), 1.0, atol=1e-14)
            h = upa_steering(
                geom.m_rows,
                geom.m_cols,
                geom.spacing_over_lambda,
                scenario.users[k][0],
            )
            a_mis = upa_steering(
                geom.m_rows,
                geom.m_cols,
                geom.spacing_over_lambda,
                scenario.mis_arrival,
            )
            expected = np.diag(h) @ a_mis
            np.testing.assert_allclose(chan.c, expected, atol=1e-14)


def test_snr_coherent_sum():
    m = 64
    chan = CascadedChannel(c=np.ones(m, dtype=complex), iota=0.01)
    ones = np.ones(m, dtype=complex)
    assert snr(ones, ones, chan) == pytest.approx(40.96, rel=1e-12)


def test_snr_zero_channel():
    chan = CascadedChannel(c=np.zeros(4, dtype=complex), iota=0.01)
    ones = np.ones(4, dtype=complex)
    assert snr(ones, ones, chan) == 0.0


def test_snr_dimension_mismatch():
    chan = CascadedChannel(c=np.ones(4, dtype=complex), iota=0.01)
    with pytest.raises(ValueError):
        snr(np.ones(3, dtype=complex), np.ones(4, dtype=complex), chan)


def test_snr_bounded_by_coherent_maximum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        _, scenario, ctx, point = random_instance(rng)
        m = ctx.num_ms1
        chan = CascadedChannel(c=ctx.channels[0], iota=float(ctx.iota[0]))
        value = snr(point.ms1_phase, np.ones(m, dtype=complex), chan)
        assert 0.0 <= value <= chan.iota * m * m + 1e-12


def test_snr_global_phase_invariance_and_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(10):
        _, scenario, ctx, point = random_instance(rng)
        chan = CascadedChannel(c=ctx.channels[0], iota=float(ctx.iota[0]))
        equiv = np.exp(2j * np.pi * rng.random(ctx.num_ms1))
        base = snr(point.ms1_phase, equiv, chan)
        alpha = float(rng.uniform(0, 2 * np.pi))
        rotated = snr(np.exp(1j * alpha) * point.ms1_phase, equiv, chan)
        assert rotated == pytest.approx(base, rel=1e-12)
        swapped = snr(equiv, point.ms1_phase, chan)
        assert swapped == pytest.approx(base, rel=1e-12)


def test_matched_filter_attains_coherent_bound():
    rng = np.random.default_rng(8)
    _, scenario, ctx, _ = random_instance(rng)
    m = ctx.num_ms1
    chan = CascadedChannel(c=ctx.channels[0], iota=float(ctx.iota[0]))
    matched = np.conj(ctx.channels[0])
    value = snr(matched, np.ones(m, dtype=complex), chan)
    assert value == pytest.approx(chan.iota * m * m, rel=1e-12)


def test_full_path_equals_cascaded_form():
    rng = np.random.default_rng(9)
    for _ in range(20):
        geom, scenario, ctx, point = random_instance(rng)
        scenario = Scenario(
            geom=geom,
            mis_arrival=scenario.mis_arrival,
            users=scenario.users,
            bs_rows=int(rng.integers(1, 4)),
            bs_cols=int(rng.integers(1, 4)),
        )
        equiv = np.exp(2j * np.pi * rng.random(ctx.num_ms1))
        k = int(rng.integers(0, ctx.num_users))
        chan = CascadedChannel(c=ctx.channels[k], iota=float(ctx.iota[k]))
        direct = snr(point.ms1_phase, equiv, chan)
        bs_angles = ArrayAngles(
            float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0, math.pi / 2))
        )
        full = snr_full_path(point.ms1_phase, equiv, scenario, k, bs_angles)
        assert full == pytest.approx(direct, rel=1e-10, abs=1e-18)


def test_full_path_independent_of_bs_angles():
    rng = np.random.default_rng(10)
    geom, scenario, ctx, point = random_instance(rng)
    scenario = Scenario(
        geom=geom,
        mis_arrival=scenario.mis_arrival,
        users=scenario.users,
        bs_rows=2,
        bs_cols=2,
    )
    equiv = np.exp(2j * np.pi * rng.random(ctx.num_ms1))
    first = snr_full_path(point.ms1_phase, equiv, scenario, 0, ArrayAngles(0.1, 0.2))
    second = snr_full_path(point.ms1_phase, equiv, scenario, 0, ArrayAngles(-2.4, 1.2))
    assert first == pytest.approx(second, rel=1e-12)


def test_full_path_broadside_identity_phases():
    geom = MisGeometry(4, 2, 2, 2)
    scenario = Scenario(
        geom=geom,
        mis_arrival=ArrayAngles(0.0, 0.0),
        users=[(ArrayAngles(0.0, 0.0), 0.01)],
        bs_rows=3,
        bs_cols=1,
    )
    m = geom.num_ms1
    ones = np.ones(m, dtype=complex)
    value = snr_full_path(ones, ones, scenario, 0)
    assert value == pytest.approx(0.01 * m * m, rel=1e-12)


def test_scenario_validation():
    geom = MisGeometry(2, 2, 1, 1)
    with pytest.raises(ValueError, match="user"):
        Scenario(geom=geom, mis_arrival=ArrayAngles(0, 0), users=[])
    with pytest.raises(ValueError, match="iota"):
        Scenario(
            geom=geom,
            mis_arrival=ArrayAngles(0, 0),
            users=[(ArrayAngles(0, 0), 0.0)],
        )



@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_scenario_rejects_non_finite_inputs(bad):
    geom = MisGeometry(2, 2, 1, 1)
    with pytest.raises(ValueError, match="iota"):
        Scenario(geom=geom, mis_arrival=ArrayAngles(0, 0), users=[(ArrayAngles(0, 0), bad)])
    with pytest.raises(ValueError, match="bs_spacing"):
        Scenario(
            geom=geom,
            mis_arrival=ArrayAngles(0, 0),
            users=[(ArrayAngles(0, 0), 0.01)],
            bs_spacing_over_lambda=bad,
        )
