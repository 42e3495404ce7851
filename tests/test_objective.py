import math

import numpy as np
import pytest

from misopt import EvalContext, MisGeometry, ProductPoint, evaluate
from misopt.checks import check_gradients, check_softmin_sandwich
from misopt.objective import _softmin
from misopt.oracle import snr_full_path
from helpers import (
    dense_selection_oracle,
    random_instance,
    random_point,
    random_scenario,
)


def scheduled_snr_oracle(point, k, scenario):
    """Term-by-term recomputation through the explicit matrix model, fed each
    placement's equivalent phase from the dense selection oracle."""
    total = 0.0
    for u in range(scenario.geom.num_patterns):
        dense, padding = dense_selection_oracle(scenario.geom, u + 1)
        equiv = dense @ point.ms2_phase + padding
        snr = snr_full_path(point.ms1_phase, equiv, scenario, k)
        total += point.schedule[k, u] * snr
    return total


def _user_snrs(point, ctx):
    """Schedule-weighted SNR of every user; the smoothing parameter does not enter."""
    return evaluate(point, 1.0, ctx).user_snrs


def test_scheduled_snr_single_pattern():
    rng = np.random.default_rng(0)
    geom = MisGeometry(2, 2, 2, 2)
    scenario = random_scenario(rng, geom)
    ctx = EvalContext.from_scenario(scenario)
    point = random_point(rng, ctx)
    table = ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
    np.testing.assert_allclose(_user_snrs(point, ctx), table[:, 0], rtol=1e-12)


def test_scheduled_snr_one_hot_and_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        _, scenario, ctx, point = random_instance(rng)
        k = int(rng.integers(0, ctx.num_users))
        assert _user_snrs(point, ctx)[k] == pytest.approx(
            scheduled_snr_oracle(point, k, scenario), rel=1e-12
        )
        # one-hot-like row concentrates the schedule on a single pattern
        star = int(rng.integers(0, ctx.num_patterns))
        row = np.full(ctx.num_patterns, 1e-12)
        row[star] = 1.0 - row.sum() + 1e-12
        sched = point.schedule.copy()
        sched[k] = row / row.sum()
        pinned = ProductPoint(point.ms1_phase, point.ms2_phase, sched)
        table = ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
        slack = 1e-10 * float(table.max()) + 1e-15
        assert abs(_user_snrs(pinned, ctx)[k] - float(table[k, star])) <= slack


def test_lse_single_user_exact():
    rng = np.random.default_rng(3)
    while True:
        _, _, ctx, point = random_instance(rng)
        if ctx.num_users == 1:
            break
    for mu in (1e-3, 0.1, 10.0):
        ev = evaluate(point, mu, ctx)
        assert ev.value == pytest.approx(float(ev.user_snrs[0]), rel=1e-12)


def test_lse_equal_values_closed_form():
    values = np.full(5, 3.7)
    for mu in (0.01, 1.0):
        f, weights = _softmin(values, mu)
        assert f == pytest.approx(3.7 - mu * math.log(5), rel=1e-12)
        np.testing.assert_allclose(weights, 0.2, atol=1e-15)


def test_lse_sandwich_random_points():
    result = check_softmin_sandwich(4, 100)
    assert result.passed, result.detail


def test_lse_stable_for_tiny_mu():
    values = np.array([0.0, 1e6])
    f, weights = _softmin(values, 1e-9)
    assert f == pytest.approx(0.0, abs=1e-15)
    np.testing.assert_allclose(weights, [1.0, 0.0], atol=1e-15)


def test_lse_shift_invariant_weights_and_monotone_value():
    rng = np.random.default_rng(5)
    values = rng.uniform(0.0, 5.0, size=6)
    mu = 0.37
    _, weights = _softmin(values, mu)
    _, shifted = _softmin(values + 11.3, mu)
    np.testing.assert_allclose(weights, shifted, atol=1e-12)
    # raising any single entry cannot lower the softmin value
    for k in range(values.size):
        bumped = values.copy()
        bumped[k] += 0.9
        assert _softmin(bumped, mu)[0] >= _softmin(values, mu)[0] - 1e-15


def test_softmin_weights_basic():
    rng = np.random.default_rng(6)
    _, _, ctx, point = random_instance(rng)
    mu = 0.5
    ev = evaluate(point, mu, ctx)
    weights = ev.weights
    assert weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(weights >= 0)
    snrs = ev.user_snrs
    naive = np.exp(-snrs / mu)
    np.testing.assert_allclose(weights, naive / naive.sum(), atol=1e-12)


def test_softmin_concentrates_on_minimum():
    _, weights = _softmin(np.array([0.0, 50.0, 80.0]), 1e-3)
    np.testing.assert_allclose(weights, [1.0, 0.0, 0.0], atol=1e-15)


def test_egrad_zero_iota_gives_zero_gradients():
    rng = np.random.default_rng(7)
    _, scenario, ctx, point = random_instance(rng)
    dead = EvalContext(
        geom=ctx.geom,
        channels=ctx.channels,
        iota=np.zeros_like(ctx.iota),
        sel_index=ctx.sel_index,
    )
    g1, g2, gs = evaluate(point, 0.3, dead, want_grad=True).grads
    assert np.all(g1 == 0) and np.all(g2 == 0) and np.all(gs == 0)


def test_egrad_single_user_schedule_row():
    rng = np.random.default_rng(8)
    while True:
        _, _, ctx, point = random_instance(rng)
        if ctx.num_users == 1:
            break
    _, _, gs = evaluate(point, 0.3, ctx, want_grad=True).grads
    table = ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
    np.testing.assert_allclose(gs, table, atol=1e-12)


def test_egrad_matches_finite_differences():
    result = check_gradients(9, 20)
    assert result.passed, result.detail


def test_anneal_tightens_gap():
    rng = np.random.default_rng(10)
    _, _, ctx, point = random_instance(rng)
    gmin = float(_user_snrs(point, ctx).min())
    gaps = [abs(evaluate(point, 1.0 / 2**i, ctx).value - gmin) for i in range(6)]
    bounds = [1.0 / 2**i * math.log(max(ctx.num_users, 2)) for i in range(6)]
    for gap, bound in zip(gaps, bounds):
        assert gap <= bound + 1e-12


def test_product_point_validation():
    good = ProductPoint(
        ms1_phase=np.ones(3, dtype=complex),
        ms2_phase=np.ones(2, dtype=complex),
        schedule=np.full((2, 2), 0.5),
    )
    good.validate()
    with pytest.raises(ValueError, match="unit modulus"):
        ProductPoint(
            ms1_phase=2.0 * np.ones(3, dtype=complex),
            ms2_phase=np.ones(2, dtype=complex),
            schedule=np.full((2, 2), 0.5),
        ).validate()
    with pytest.raises(ValueError, match="sum"):
        ProductPoint(
            ms1_phase=np.ones(3, dtype=complex),
            ms2_phase=np.ones(2, dtype=complex),
            schedule=np.full((2, 2), 0.4),
        ).validate()
    with pytest.raises(ValueError, match="positive"):
        ProductPoint(
            ms1_phase=np.ones(3, dtype=complex),
            ms2_phase=np.ones(2, dtype=complex),
            schedule=np.array([[1.0, 0.0], [0.5, 0.5]]),
        ).validate()



def test_product_point_validate_rejects_non_finite():
    good = dict(
        ms1_phase=np.ones(3, dtype=complex),
        ms2_phase=np.ones(2, dtype=complex),
        schedule=np.full((2, 2), 0.5),
    )
    for name, value in good.items():
        with pytest.raises(ValueError, match=f"{name} has non-finite"):
            ProductPoint(**{**good, name: np.full_like(value, np.nan)}).validate()
    with pytest.raises(ValueError, match="non-finite"):
        ProductPoint(
            ms1_phase=np.ones(3, dtype=complex),
            ms2_phase=np.ones(2, dtype=complex),
            schedule=np.array([[np.inf, 0.5], [0.5, 0.5]]),
        ).validate()


def test_evaluate_rejects_nonpositive_mu():
    rng = np.random.default_rng(11)
    _, _, ctx, point = random_instance(rng)
    with pytest.raises(ValueError):
        evaluate(point, 0.0, ctx)



@pytest.mark.parametrize("bad", ["ms1_phase", "ms2_phase"])
def test_wrong_phase_length_rejected(bad):
    # A length-1 vector would broadcast against every element.
    rng = np.random.default_rng(12)
    ctx = EvalContext.from_scenario(random_scenario(rng, MisGeometry(3, 3, 2, 2)))
    point = random_point(rng, ctx)
    phases = {
        "ms1_phase": point.ms1_phase,
        "ms2_phase": point.ms2_phase,
        bad: np.ones(1, dtype=complex),
    }
    with pytest.raises(ValueError, match=bad):
        ctx.pattern_snr_table(**phases)
    with pytest.raises(ValueError, match=bad):
        evaluate(ProductPoint(schedule=point.schedule, **phases), 1.0, ctx)
    if bad == "ms2_phase":
        with pytest.raises(ValueError, match=bad):
            ctx.equiv_phases(phases[bad])
