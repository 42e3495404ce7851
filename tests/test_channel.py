import math

import numpy as np
import pytest

from misopt import (
    ArrayAngles,
    EvalContext,
    MisGeometry,
    Scenario,
    cascaded_channel,
    upa_steering,
)
from misopt.checks import random_instance, random_scenario
from misopt.oracle import snr_full_path


def _single_pattern_context(channels, iota):
    """Signal model with the given K x M channels and SNR scales and one
    placement covering every element, so its equivalent phase is the
    movable layer's phase."""
    m = channels.shape[1]
    return EvalContext(
        channels=np.asarray(channels, dtype=complex),
        iota=np.asarray(iota, dtype=float),
        sel_index=np.arange(m)[None, :],
    )


def test_steering_single_element():
    vec = upa_steering(1, 1, ArrayAngles(0.7, 0.3))
    np.testing.assert_allclose(vec, [1.0 + 0.0j])


def test_steering_zero_elevation_is_flat():
    vec = upa_steering(3, 4, ArrayAngles(-1.1, 0.0))
    np.testing.assert_allclose(vec, np.ones(12, dtype=complex), atol=1e-15)


def test_steering_half_wave_endfire_pair():
    vec = upa_steering(1, 2, ArrayAngles(math.pi / 2, math.pi / 2))
    np.testing.assert_allclose(vec, [1.0, -1.0], atol=1e-12)


def test_steering_row_major_flattening():
    angles = ArrayAngles(0.4, 0.9)
    vec = upa_steering(2, 3, angles)
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


@pytest.mark.parametrize(
    "field, angles",
    [
        ("azimuth", (True, 0.0)),
        ("elevation", (0.0, False)),
        ("elevation", (0.0, np.bool_(True))),
        ("azimuth", ("0.1", 0.0)),
        ("azimuth", (0.1j, 0.0)),
    ],
)
def test_angles_reject_non_real(field, angles):
    with pytest.raises(ValueError, match=rf"^{field} must be a real number"):
        ArrayAngles(*angles)
    ArrayAngles(np.int64(1), np.float32(0.5))
    ArrayAngles(0, 1)


def test_cascaded_flat_when_both_broadside():
    geom = MisGeometry(3, 2, 1, 1)
    scenario = Scenario(
        geom=geom,
        mis_arrival=ArrayAngles(0.3, 0.0),
        users=[(ArrayAngles(-0.8, 0.0), 0.02)],
    )
    channels = cascaded_channel(scenario)
    assert channels.shape == (1, 6)
    np.testing.assert_allclose(channels[0], np.ones(6, dtype=complex), atol=1e-15)
    np.testing.assert_array_equal(EvalContext.from_scenario(scenario).iota, [0.02])


def test_cascaded_unit_modulus_and_dense_oracle():
    rng = np.random.default_rng(11)
    for _ in range(10):
        scenario = random_scenario(rng)
        geom = scenario.geom
        channels = cascaded_channel(scenario)
        assert channels.shape == (scenario.num_users, geom.num_ms1)
        for k, row in enumerate(channels):
            np.testing.assert_allclose(np.abs(row), 1.0, atol=1e-14)
            h = upa_steering(geom.m_rows, geom.m_cols, scenario.users[k][0])
            a_mis = upa_steering(geom.m_rows, geom.m_cols, scenario.mis_arrival)
            expected = np.diag(h) @ a_mis
            np.testing.assert_allclose(row, expected, atol=1e-14)


def test_snr_coherent_sum():
    m = 64
    ctx = _single_pattern_context(np.ones((1, m)), [0.01])
    ones = np.ones(m, dtype=complex)
    assert ctx.pattern_snr_table(ones, ones)[0, 0] == pytest.approx(40.96, rel=1e-12)


def test_snr_zero_channel():
    ctx = _single_pattern_context(np.zeros((1, 4)), [0.01])
    ones = np.ones(4, dtype=complex)
    assert ctx.pattern_snr_table(ones, ones)[0, 0] == 0.0


def test_snr_dimension_mismatch():
    geom = MisGeometry(3, 3, 2, 2)
    users = [(ArrayAngles(0, 0), 0.01)]
    ctx = EvalContext.from_scenario(
        Scenario(geom=geom, mis_arrival=ArrayAngles(0, 0), users=users)
    )
    ones = np.ones(geom.num_ms2, dtype=complex)
    with pytest.raises(ValueError):
        ctx.pattern_snr_table(np.ones(geom.num_ms2, dtype=complex), ones)
    with pytest.raises(ValueError):
        ctx.pattern_snr_table(np.ones(geom.num_ms1, dtype=complex), ones[:3])


def test_snr_bounded_by_coherent_maximum():
    rng = np.random.default_rng(5)
    for _ in range(20):
        _, scenario, ctx, point = random_instance(rng)
        m = ctx.num_ms1
        table = ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
        assert np.all(table >= 0.0)
        assert np.all(table <= ctx.iota[:, None] * m * m + 1e-12)


def test_snr_global_phase_invariance_and_symmetry():
    rng = np.random.default_rng(6)
    for _ in range(10):
        _, scenario, ctx, point = random_instance(rng)
        base = ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
        alpha = float(rng.uniform(0, 2 * np.pi))
        rotated = ctx.pattern_snr_table(
            np.exp(1j * alpha) * point.ms1_phase, point.ms2_phase
        )
        np.testing.assert_allclose(rotated, base, rtol=1e-12)
        # with one full-size placement the two layers play symmetric roles
        full = _single_pattern_context(ctx.channels, ctx.iota)
        equiv = np.exp(2j * np.pi * rng.random(ctx.num_ms1))
        np.testing.assert_allclose(
            full.pattern_snr_table(equiv, point.ms1_phase),
            full.pattern_snr_table(point.ms1_phase, equiv),
            rtol=1e-12,
        )


def test_matched_filter_attains_coherent_bound():
    rng = np.random.default_rng(8)
    _, scenario, ctx, _ = random_instance(rng)
    m = ctx.num_ms1
    matched = np.conj(ctx.channels[0])
    table = ctx.pattern_snr_table(matched, np.ones(ctx.num_ms2, dtype=complex))
    np.testing.assert_allclose(table[0], ctx.iota[0] * m * m, rtol=1e-12)


def test_full_path_independent_of_bs_angles():
    rng = np.random.default_rng(10)
    _, scenario, ctx, point = random_instance(rng)
    bs = {"bs_rows": 2, "bs_cols": 2}
    equiv = np.exp(2j * np.pi * rng.random(ctx.num_ms1))
    first, second = (
        snr_full_path(point.ms1_phase, equiv, scenario, 0, angles, **bs)
        for angles in (ArrayAngles(0.1, 0.2), ArrayAngles(-2.4, 1.2))
    )
    assert first == pytest.approx(second, rel=1e-12)


def test_full_path_broadside_identity_phases():
    geom = MisGeometry(4, 2, 2, 2)
    scenario = Scenario(
        geom=geom,
        mis_arrival=ArrayAngles(0.0, 0.0),
        users=[(ArrayAngles(0.0, 0.0), 0.01)],
    )
    m = geom.num_ms1
    ones = np.ones(m, dtype=complex)
    value = snr_full_path(ones, ones, scenario, 0, bs_rows=3, bs_cols=1)
    assert value == pytest.approx(0.01 * m * m, rel=1e-12)
    with pytest.raises(ValueError, match="dimensions"):
        snr_full_path(ones, ones, scenario, 0, bs_rows=0)
    # An array size is a count: neither truncated nor read as 1.
    with pytest.raises(ValueError, match="dimensions"):
        snr_full_path(ones, ones, scenario, 0, bs_rows=2.5)
    with pytest.raises(ValueError, match="dimensions"):
        snr_full_path(ones, ones, scenario, 0, bs_cols=True)


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
    # a bool or a string is not an SNR scale, and the error names the iota
    for bad in (True, "0.01"):
        with pytest.raises(ValueError, match="iota"):
            Scenario(geom=geom, mis_arrival=ArrayAngles(0, 0), users=[(ArrayAngles(0, 0), bad)])



def test_scenario_rejects_an_iota_whose_snr_bound_overflows():
    geom = MisGeometry(2, 2, 1, 1)
    Scenario(geom=geom, mis_arrival=ArrayAngles(0, 0), users=[(ArrayAngles(0, 0), 1e150)])
    with pytest.raises(ValueError, match="too large for 4 elements"):
        Scenario(geom=geom, mis_arrival=ArrayAngles(0, 0), users=[(ArrayAngles(0, 0), 1e160)])


@pytest.mark.parametrize("bad", [math.inf, math.nan])
def test_scenario_rejects_non_finite_inputs(bad):
    geom = MisGeometry(2, 2, 1, 1)
    with pytest.raises(ValueError, match="iota"):
        Scenario(geom=geom, mis_arrival=ArrayAngles(0, 0), users=[(ArrayAngles(0, 0), bad)])
