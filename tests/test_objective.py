import math

import numpy as np
import pytest

from misopt import (
    CascadedChannel,
    EvalContext,
    MisGeometry,
    ProductPoint,
    SmoothingState,
    all_selections,
    egrad,
    equivalent_phase,
    evaluate,
    lse_objective,
    scheduled_snr,
    snr,
    softmin_weights,
    user_snrs,
)
from misopt.objective import _softmin
from misopt.oracle import fd_directional
from misopt.manifolds import TangentTriple
from helpers import random_ambient_triple, random_instance, random_point


def scheduled_snr_oracle(point, k, scenario, ctx):
    """Term-by-term recomputation through the scalar channel/geometry ops."""
    total = 0.0
    chan = CascadedChannel(c=ctx.channels[k], iota=float(ctx.iota[k]))
    for u, sel in enumerate(all_selections(scenario.geom)):
        equiv = equivalent_phase(point.ms2_phase, sel)
        total += point.schedule[k, u] * snr(point.ms1_phase, equiv, chan)
    return total


def test_scheduled_snr_single_pattern():
    rng = np.random.default_rng(0)
    geom = MisGeometry(2, 2, 2, 2)
    from helpers import random_scenario

    scenario = random_scenario(rng, geom)
    ctx = EvalContext.from_scenario(scenario)
    point = random_point(rng, ctx)
    table = ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
    for k in range(ctx.num_users):
        assert scheduled_snr(point, k, ctx) == pytest.approx(
            float(table[k, 0]), rel=1e-12
        )


def test_scheduled_snr_one_hot_and_oracle():
    rng = np.random.default_rng(1)
    for _ in range(10):
        _, scenario, ctx, point = random_instance(rng)
        k = int(rng.integers(0, ctx.num_users))
        assert scheduled_snr(point, k, ctx) == pytest.approx(
            scheduled_snr_oracle(point, k, scenario, ctx), rel=1e-12
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
        assert abs(scheduled_snr(pinned, k, ctx) - float(table[k, star])) <= slack


def test_scheduled_snr_index_error():
    rng = np.random.default_rng(2)
    _, _, ctx, point = random_instance(rng)
    with pytest.raises(IndexError):
        scheduled_snr(point, ctx.num_users, ctx)


def test_lse_single_user_exact():
    rng = np.random.default_rng(3)
    while True:
        _, _, ctx, point = random_instance(rng)
        if ctx.num_users == 1:
            break
    for mu in (1e-3, 0.1, 10.0):
        assert lse_objective(point, mu, ctx) == pytest.approx(
            float(user_snrs(point, ctx)[0]), rel=1e-12
        )


def test_lse_equal_values_closed_form():
    values = np.full(5, 3.7)
    for mu in (0.01, 1.0):
        f, weights = _softmin(values, mu)
        assert f == pytest.approx(3.7 - mu * math.log(5), rel=1e-12)
        np.testing.assert_allclose(weights, 0.2, atol=1e-15)


def test_lse_sandwich_random_points():
    rng = np.random.default_rng(4)
    for _ in range(100):
        _, _, ctx, point = random_instance(rng)
        mu = float(rng.uniform(1e-3, 2.0))
        ev = evaluate(point, mu, ctx)
        gmin = float(ev.user_snrs.min())
        scale = max(abs(gmin), 1.0)
        assert ev.value <= gmin + 1e-12 * scale
        assert gmin <= ev.value + mu * math.log(ctx.num_users) + 1e-12 * scale


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
    weights = softmin_weights(point, mu, ctx)
    assert weights.sum() == pytest.approx(1.0, rel=1e-12)
    assert np.all(weights >= 0)
    snrs = user_snrs(point, ctx)
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
    g1, g2, gs = egrad(point, 0.3, dead)
    assert np.all(g1 == 0) and np.all(g2 == 0) and np.all(gs == 0)


def test_egrad_single_user_schedule_row():
    rng = np.random.default_rng(8)
    while True:
        _, _, ctx, point = random_instance(rng)
        if ctx.num_users == 1:
            break
    _, _, gs = egrad(point, 0.3, ctx)
    table = ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
    np.testing.assert_allclose(gs, table, atol=1e-12)


def test_egrad_matches_finite_differences():
    rng = np.random.default_rng(9)
    step = 1e-6
    for _ in range(20):
        _, _, ctx, point = random_instance(rng)
        snr_scale = float(evaluate(point, 1.0, ctx).user_snrs.mean())
        mu = max(0.2 * snr_scale, 1e-3)
        grads = evaluate(point, mu, ctx, want_grad=True).grads
        direction = random_ambient_triple(rng, point)
        zero = TangentTriple(
            np.zeros_like(point.ms1_phase),
            np.zeros_like(point.ms2_phase),
            np.zeros_like(point.schedule),
        )

        def objective(p):
            return evaluate(p, mu, ctx).value

        checks = [
            (
                TangentTriple(direction.d_ms1_phase, zero.d_ms2_phase, zero.d_schedule),
                float(np.real(np.vdot(grads[0], direction.d_ms1_phase))),
            ),
            (
                TangentTriple(zero.d_ms1_phase, direction.d_ms2_phase, zero.d_schedule),
                float(np.real(np.vdot(grads[1], direction.d_ms2_phase))),
            ),
            (
                TangentTriple(zero.d_ms1_phase, zero.d_ms2_phase, direction.d_schedule),
                float(np.sum(grads[2] * direction.d_schedule)),
            ),
        ]
        for only, predicted in checks:
            measured = fd_directional(objective, point, only, step)
            scale = max(abs(measured), abs(predicted), 1e-9)
            assert abs(measured - predicted) / scale < 1e-5


def test_anneal_tightens_gap():
    rng = np.random.default_rng(10)
    _, _, ctx, point = random_instance(rng)
    gmin = float(user_snrs(point, ctx).min())
    state = SmoothingState(mu=1.0)
    gaps = []
    for _ in range(6):
        gaps.append(abs(lse_objective(point, state.mu, ctx) - gmin))
        state = state.cooled()
    bounds = [1.0 / 2**i * math.log(max(ctx.num_users, 2)) for i in range(6)]
    for gap, bound in zip(gaps, bounds):
        assert gap <= bound + 1e-12


def test_smoothing_state_validation():
    with pytest.raises(ValueError):
        SmoothingState(mu=0.0)
    with pytest.raises(ValueError):
        SmoothingState(mu=1.0, delta=1.0)
    state = SmoothingState(mu=1.0, delta=2.0)
    assert state.cooled().mu == pytest.approx(0.5)


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
