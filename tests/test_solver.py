import math

import numpy as np
import pytest

from misopt import (
    ArrayAngles,
    EvalContext,
    MisGeometry,
    ProductPoint,
    Scenario,
    SolverConfig,
    evaluate,
    solve,
    solver,
)
from misopt.manifolds import (
    SIMPLEX_FLOOR,
    RetractionError,
    TangentTriple,
    grad_norm,
    inner,
    project_to_tangent,
    transport,
)
from misopt.objective import Evaluation
from misopt.solver import (
    ARMIJO_C1,
    BACKTRACK_FACTOR,
    INITIAL_STEP,
    MAX_BACKTRACKS,
    NonFiniteObjectiveError,
    SolveReport,
    _better,
    _conjugate,
    _report_at,
    _retract_point,
    _rinner,
    inner_solve,
    line_search,
)
from misopt.oracle import snr_full_path
from helpers import dense_selection_oracle, random_ambient_triple, random_instance


def _uniform(num_users, num_patterns):
    return np.full((num_users, num_patterns), 1.0 / num_patterns)

# The Polak-Ribiere beta is read off _conjugate's output: with a carried
# direction along which the result stays an ascent direction, the returned
# direction is g + beta * carried_dir.


def _pr(g, g_old, carried_g, carried_dir):
    """_conjugate's direction for one block, given the blocks whose squared
    norms it takes; its slope must be the direction's inner product with g,
    bit for bit."""
    direction, slope = _conjugate(
        g, _rinner(g, g), _rinner(g_old, g_old), carried_g, carried_dir
    )
    assert slope == _rinner(direction, g)
    return direction


def test_pr_beta_identical_gradients():
    g = np.array([1.0 + 2.0j, -0.5j])
    carried_dir = np.array([1.0 + 0j, 1.0j])
    assert _pr(g, g, g, carried_dir) is g


def test_pr_beta_orthogonal_gradients():
    g_old = np.array([1.0 + 0j, 0.0 + 0j])
    g_new = np.array([0.0 + 0j, 0.0 + 2.0j])
    carried_dir = np.array([1.0 + 0j, 0.0 + 0j])
    np.testing.assert_allclose(
        _pr(g_new, g_old, g_old, carried_dir), [4.0, 2.0j], rtol=1e-12
    )


def test_pr_beta_matches_direct_formula_and_clamp():
    rng = np.random.default_rng(0)
    for _ in range(10):
        g_new = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        g_old = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        random = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        # the second carried gradient, three times g_new, gives a negative beta
        for carried in (random, 3.0 * g_new):
            numer = np.real(np.vdot(g_new, g_new - carried))
            direct = float(numer / np.real(np.vdot(g_old, g_old)))
            # carrying g_new as the direction keeps every combination ascending
            out = _pr(g_new, g_old, carried, g_new)
            np.testing.assert_allclose(
                out, (1.0 + max(direct, 0.0)) * g_new, rtol=1e-12
            )
            assert (out is g_new) == (direct <= 0.0)


def test_pr_beta_guards_zero_denominator():
    g_new = np.ones(3, dtype=complex)
    zero = np.zeros(3, dtype=complex)
    assert _pr(g_new, zero, zero, g_new) is g_new


def test_conjugate_direction_cases():
    g = np.array([1.0 + 1.0j, -2.0 + 0j])
    prev = np.array([0.5 + 0j, 0.25j])
    # g_old = g and carried_g = 0.7 g give beta = 0.3
    np.testing.assert_allclose(
        _pr(g, g, 0.7 * g, prev), g + 0.3 * prev, atol=1e-15
    )
    # beta clamped to zero: steepest ascent
    assert _pr(g, g, 2.0 * g, prev) is g
    # a previous direction opposing the gradient strongly forces a reset
    assert _pr(g, g, 0.7 * g, -100.0 * g) is g


def _scaled(triple, factor):
    return TangentTriple(*(factor * block for block in triple))


@pytest.mark.parametrize("case", ["random", "beta-clamp", "ascent-reset", "zero-schedule"])
def test_conjugate_direction_has_positive_slope(case):
    """The slope inner_solve hands the line search: a direction built by
    _conjugate block by block has a positive inner product with a nonzero
    gradient, whichever of its branches each block takes."""
    rng = np.random.default_rng(17)
    conjugated = 0
    for _ in range(40):
        _, _, _, point = random_instance(rng)
        g, g_old, d_old = (
            project_to_tangent(point, random_ambient_triple(rng, point)) for _ in range(3)
        )
        if case == "beta-clamp":  # <g, g - 2g> < 0, so beta floors at zero
            g_old = _scaled(g, 2.0)
        elif case == "ascent-reset":  # beta = 2 along -1000 g points downhill
            g_old, d_old = _scaled(g, -1.0), _scaled(g, -1000.0)
        elif case == "zero-schedule":  # one pattern: the schedule gradient is 0
            g = g._replace(d_schedule=np.zeros_like(g.d_schedule))
        direction = TangentTriple(
            *map(_pr, g, g_old, transport(point, g_old), transport(point, d_old))
        )
        assert inner(direction, g) > 0.0
        if case in ("beta-clamp", "ascent-reset"):
            assert all(d is b for d, b in zip(direction, g))
        conjugated += sum(d is not b for d, b in zip(direction, g))
    if case in ("random", "zero-schedule"):
        assert conjugated > 0


def test_conjugate_block_slopes_sum_to_inner():
    """inner_solve sums _conjugate's block slopes and the squared block norms
    in block order; the sums keep the bits of inner and grad_norm."""
    rng = np.random.default_rng(19)
    conjugated = 0
    for _ in range(40):
        _, _, _, point = random_instance(rng)
        g, g_old, d_old = (
            project_to_tangent(point, random_ambient_triple(rng, point)) for _ in range(3)
        )
        sq, sq_old = ([_rinner(b, b) for b in t] for t in (g, g_old))
        carried = transport(point, g_old), transport(point, d_old)
        blocks, slopes = zip(*map(_conjugate, g, sq, sq_old, *carried))
        assert 0.0 + slopes[0] + slopes[1] + slopes[2] == inner(TangentTriple(*blocks), g)
        assert math.sqrt(0.0 + sq[0] + sq[1] + sq[2]) == grad_norm(g)
        conjugated += sum(d is not b for d, b in zip(blocks, g))
    assert conjugated > 0


def test_inner_solve_reuses_accepted_forward_pass(monkeypatch):
    """Every gradient inner_solve projects has the bits of a fresh
    evaluate(..., want_grad=True) at its point, every line search gets the
    slope inner(direction, rgrad) to the bit and the evaluation at its start,
    and num_evals counts one evaluation per gradient."""
    rng = np.random.default_rng(29)
    searches, projections = [], []
    real_search, real_project = solver.line_search, solver.project_to_tangent

    def spy_search(point, direction, objective, slope, current, grad, step):
        result = real_search(point, direction, objective, slope, current, grad, step)
        searches.append((point, direction, slope, current, grad, result))
        return result

    def spy_project(point, grads):
        projections.append((point, grads))
        return real_project(point, grads)

    monkeypatch.setattr(solver, "line_search", spy_search)
    monkeypatch.setattr(solver, "project_to_tangent", spy_project)
    conjugated = 0
    for _ in range(6):
        _, _, ctx, point = random_instance(rng)
        mu = max(0.2 * float(evaluate(point, 1.0, ctx).user_snrs.mean()), 1e-3)
        searches.clear()
        projections.clear()
        stage = inner_solve(point, mu, SolverConfig(max_inner_iters=40), ctx)
        accepted = sum(not r.stalled for *_, r in searches)
        assert len(projections) == 1 + accepted
        assert stage.num_evals == len(projections) + sum(r.num_evals for *_, r in searches)
        for p, grads in projections:
            fresh = evaluate(p, mu, ctx, want_grad=True).grads
            assert all(np.array_equal(a, b) for a, b in zip(grads, fresh))
        for p, direction, slope, current, grad, _ in searches:
            assert slope == inner(direction, grad)
            assert current.value == evaluate(p, mu, ctx).value
            conjugated += sum(d is not b for d, b in zip(direction, grad))
    assert conjugated > 0


def _exact_point():
    """Point whose retraction is bit-exact (unit entries on the axes, U a power of two)."""
    return ProductPoint(
        ms1_phase=np.array([1.0 + 0j, -1.0 + 0j, 1.0j]),
        ms2_phase=np.array([-1.0j]),
        schedule=np.full((2, 2), 0.5),
    )


def _zero_direction(point):
    return TangentTriple(
        np.zeros_like(point.ms1_phase),
        np.zeros_like(point.ms2_phase),
        np.zeros_like(point.schedule),
    )


def _scored(value):
    """An evaluation that carries only a surrogate value, for the synthetic
    objectives of the line-search tests."""
    return Evaluation(value, np.array([value]), np.ones(1), forward=None)


def _schedule_move(point, d_schedule):
    """A tangent triple that moves only the schedule."""
    return TangentTriple(
        np.zeros_like(point.ms1_phase), np.zeros_like(point.ms2_phase), d_schedule
    )


def test_line_search_zero_direction_returns_initial_step():
    point = _exact_point()
    calls = []

    def objective(p):
        calls.append(1)
        return _scored(1.5)

    zero = _zero_direction(point)
    result = line_search(point, zero, objective, 0.0, _scored(1.5), zero, 0.75)
    assert result.step == 0.75
    assert not result.stalled
    np.testing.assert_array_equal(result.point.ms1_phase, point.ms1_phase)
    np.testing.assert_array_equal(result.point.schedule, point.schedule)


def test_line_search_first_step_argument_overrides_config():
    point = _exact_point()
    zero = _zero_direction(point)
    result = line_search(point, zero, lambda p: _scored(1.5), 0.0, _scored(1.5), zero, 0.25)
    assert result.step == 0.25 != INITIAL_STEP
    # the search backtracks from the given step, not from INITIAL_STEP
    direction = _schedule_move(point, np.array([[0.25, -0.25], [0.0, 0.0]]))
    grad = _schedule_move(point, np.array([[0.075, -0.075], [0.0, 0.0]]))

    def objective(p):
        return _scored(-((p.schedule[0, 0] - 0.575) ** 2))

    slope = -2.0 * (0.5 - 0.575) * 0.25
    current = objective(point)
    result = line_search(point, direction, objective, slope, current, grad, 0.75)
    assert result.step == 0.375
    result = line_search(point, direction, objective, slope, current, grad, 0.55)
    assert result.step == 0.55
    assert not result.stalled


def test_line_search_quadratic_toy():
    point = _exact_point()
    target = 0.575
    slope_dir = 0.25
    direction = _schedule_move(point, np.array([[slope_dir, -slope_dir], [0.0, 0.0]]))
    grad = _schedule_move(point, np.array([[0.075, -0.075], [0.0, 0.0]]))

    def objective(p):
        return _scored(-((p.schedule[0, 0] - target) ** 2))

    slope = -2.0 * (0.5 - target) * slope_dir  # h'(0) = 0.0375
    result = line_search(
        point, direction, objective, slope, objective(point), grad, INITIAL_STEP
    )
    optimum = (target - 0.5) / slope_dir  # 0.3
    boundary = 2.0 * optimum * (1.0 - ARMIJO_C1)
    assert not result.stalled
    assert result.step <= boundary + 1e-12
    assert result.step > boundary * BACKTRACK_FACTOR - 1e-12
    assert result.evaluation.value == objective(result.point).value


def test_line_search_armijo_holds_post_hoc():
    rng = np.random.default_rng(1)
    _, _, ctx, point = random_instance(rng)
    mu = 0.5
    ev = evaluate(point, mu, ctx, want_grad=True)
    rgrad = project_to_tangent(point, ev.grads)
    slope = grad_norm(rgrad) ** 2

    def objective(p):
        return evaluate(p, mu, ctx)

    result = line_search(point, rgrad, objective, slope, ev, rgrad, INITIAL_STEP)
    assert not result.stalled
    assert result.evaluation.value >= ev.value + ARMIJO_C1 * result.step * slope
    # the accepted step sits on the tested geometric grid
    j = round(math.log(result.step / INITIAL_STEP, BACKTRACK_FACTOR))
    assert result.step == pytest.approx(INITIAL_STEP * BACKTRACK_FACTOR**j, rel=1e-12)


def test_line_search_stall_returns_zero_step():
    point = _exact_point()
    direction = grad = _schedule_move(point, np.array([[0.25, -0.25], [0.0, 0.0]]))

    def objective(p):
        return _scored(-((p.schedule[0, 0] - 0.5) ** 2))  # already at the maximum

    result = line_search(
        point, direction, objective, 1.0, objective(point), grad, INITIAL_STEP
    )
    assert result.stalled
    assert result.step == 0.0
    np.testing.assert_array_equal(result.point.schedule, point.schedule)


def test_line_search_stops_below_float_resolution():
    point = _exact_point()
    direction = grad = _schedule_move(point, np.array([[0.25, -0.25], [0.0, 0.0]]))
    calls = []

    def objective(p):
        calls.append(1)
        return _scored(1e6)

    slope = 1e-8
    assert ARMIJO_C1 * INITIAL_STEP * slope <= np.spacing(1e6)
    current = _scored(1e6)
    result = line_search(point, direction, objective, slope, current, grad, INITIAL_STEP)
    assert result.stalled
    assert result.step == 0.0
    assert result.num_evals == 0
    assert result.point is point
    assert result.evaluation is current
    assert calls == []


def _vertex_point():
    """Schedule rows on a vertex of the simplex, the other entries on the floor."""
    schedule = np.maximum(np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]), SIMPLEX_FLOOR)
    return ProductPoint(
        ms1_phase=np.ones(2, dtype=complex),
        ms2_phase=np.ones(1, dtype=complex),
        schedule=schedule / schedule.sum(axis=1, keepdims=True),
    )


def _blocked_search(point):
    """A linear objective whose ascent direction pushes further into the vertex,
    so the floored retraction cannot move: (direction, gradient, slope)."""
    sched = np.array([[-0.5, 1.0, -0.5], [1.0, -0.5, -0.5]])
    grad = _schedule_move(point, sched)
    return grad, grad, float(np.sum(sched * sched))


def _unblocked(grad):
    """``grad`` with its schedule block zeroed: the reach then equals the slope,
    so the cone stop never fires."""
    return grad._replace(d_schedule=np.zeros_like(grad.d_schedule))


def test_line_search_blocked_schedule_stalls_after_one_evaluation():
    point = _vertex_point()
    direction, grad, slope = _blocked_search(point)
    calls = []

    def objective(p):
        calls.append(1)
        return _scored(float(np.sum(direction.d_schedule * p.schedule)))

    current = objective(point)
    calls.clear()
    result = line_search(point, direction, objective, slope, current, grad, INITIAL_STEP)
    assert result.stalled
    assert result.step == 0.0
    assert result.point is point
    assert result.evaluation is current
    assert result.num_evals == 1
    assert calls == [1]
    # without the cone stop the search backtracks down to the floor's scale
    plain = line_search(
        point, direction, objective, slope, current, _unblocked(grad), INITIAL_STEP
    )
    assert plain.num_evals > 30


def test_line_search_passing_first_candidate_ignores_reach():
    point = _vertex_point()
    direction, grad, slope = _blocked_search(point)

    def objective(p):
        return _scored(10.0)

    zero = _scored(0.0)
    with_grad = line_search(point, direction, objective, slope, zero, grad, 0.75)
    plain = line_search(point, direction, objective, slope, zero, _unblocked(grad), 0.75)
    assert not with_grad.stalled
    assert with_grad.step == plain.step == 0.75
    assert with_grad.num_evals == plain.num_evals == 1
    np.testing.assert_array_equal(with_grad.point.schedule, plain.point.schedule)


def _plain_armijo(point, direction, objective, slope, value, step):
    """Armijo backtracking from ``step`` with neither the float-resolution
    nor the cone stop: (step, evals)."""
    evals = 0
    for _ in range(MAX_BACKTRACKS + 1):
        try:
            candidate = _retract_point(point, direction, step)
        except RetractionError:
            step *= BACKTRACK_FACTOR
            continue
        evals += 1
        if objective(candidate).value >= value + ARMIJO_C1 * step * slope:
            return step, evals
        step *= BACKTRACK_FACTOR
    return 0.0, evals


@pytest.mark.parametrize("seed", range(6))
def test_line_search_resolvable_threshold_accepts_same_step(seed):
    rng = np.random.default_rng(seed)
    _, _, ctx, point = random_instance(rng)
    mu = 0.5
    ev = evaluate(point, mu, ctx, want_grad=True)
    rgrad = project_to_tangent(point, ev.grads)
    slope = grad_norm(rgrad) ** 2

    def objective(p):
        return evaluate(p, mu, ctx)

    for initial_step in (INITIAL_STEP, 1e-3):
        result = line_search(point, rgrad, objective, slope, ev, rgrad, initial_step)
        step, evals = _plain_armijo(
            point, rgrad, objective, slope, ev.value, initial_step
        )
        assert not result.stalled
        assert ARMIJO_C1 * result.step * slope > np.spacing(abs(ev.value))
        assert result.step == step
        assert result.num_evals == evals


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_line_search_rejects_non_finite_value(bad):
    point = _exact_point()
    direction = _zero_direction(point)
    assert not issubclass(NonFiniteObjectiveError, ValueError)
    with pytest.raises(NonFiniteObjectiveError):
        line_search(
            point, direction, lambda p: _scored(0.0), 1.0, _scored(bad), direction,
            INITIAL_STEP,
        )


def _report_with(worst):
    return SolveReport(
        ms1_phase=np.ones(1, dtype=complex),
        ms2_phase=np.ones(1, dtype=complex),
        per_user_snr=np.array([worst]),
        worst_snr=worst,
        chosen_pattern=np.ones(1, dtype=int),
        snr_table=np.array([[worst]]),
    )


def test_better_never_prefers_non_finite_report():
    nan, finite, higher = _report_with(math.nan), _report_with(1.0), _report_with(2.0)
    assert _better(nan, None)
    assert _better(finite, nan)
    assert not _better(nan, finite)
    assert not _better(_report_with(math.inf), finite)
    assert _better(higher, finite)
    assert not _better(finite, higher)
    assert not _better(finite, _report_with(1.0))


def _tiny_context(iota=0.0):
    geom = MisGeometry(2, 1, 1, 1)
    scenario = Scenario(
        geom=geom,
        mis_arrival=ArrayAngles(0.0, 0.0),
        users=[(ArrayAngles(0.5, 0.6), 0.01)],
    )
    ctx = EvalContext.from_scenario(scenario)
    return EvalContext(
        geom=ctx.geom,
        channels=ctx.channels,
        iota=np.full_like(ctx.iota, iota),
        sel_index=ctx.sel_index,
    )


def test_inner_solve_stationary_start_returns_immediately():
    ctx = _tiny_context(iota=0.0)  # objective identically zero
    point = ProductPoint(
        ms1_phase=np.ones(2, dtype=complex),
        ms2_phase=np.ones(1, dtype=complex),
        schedule=_uniform(1, 2),
    )
    result = inner_solve(point, 0.5, SolverConfig(), ctx)
    assert result.num_iters == 0
    assert result.point is point


def test_inner_solve_reaches_matched_filter_optimum():
    rng = np.random.default_rng(2)
    geom = MisGeometry(2, 2, 2, 2)
    scenario = Scenario(
        geom=geom,
        mis_arrival=ArrayAngles(0.4, 0.8),
        users=[(ArrayAngles(-0.9, 0.3), 0.01)],
    )
    ctx = EvalContext.from_scenario(scenario)
    point = ProductPoint(
        ms1_phase=np.exp(2j * np.pi * rng.random(4)),
        ms2_phase=np.exp(2j * np.pi * rng.random(4)),
        schedule=_uniform(1, 1),
    )
    result = inner_solve(point, 1.0, SolverConfig(max_inner_iters=500), ctx)
    assert float(result.evaluation.user_snrs[0]) >= 0.999 * 0.01 * 16


def test_inner_solve_trace_monotone_and_feasible():
    rng = np.random.default_rng(3)
    _, _, ctx, point = random_instance(rng)
    result = inner_solve(point, 0.3, SolverConfig(max_inner_iters=60), ctx)
    trace = result.objective_trace
    assert np.all(np.diff(trace) >= 0.0)
    result.point.validate()
    np.testing.assert_allclose(np.abs(result.point.ms1_phase), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(np.abs(result.point.ms2_phase), 1.0, rtol=0, atol=1e-12)
    np.testing.assert_allclose(result.point.schedule.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def test_threshold_schedule():
    # every pattern ties at zero SNR: the report picks the first one
    ctx = _tiny_context(iota=0.0)
    point = ProductPoint(
        ms1_phase=np.ones(2, dtype=complex),
        ms2_phase=np.ones(1, dtype=complex),
        schedule=_uniform(1, 2),
    )
    report = _report_at(point, ctx, origin="tie")
    np.testing.assert_array_equal(report.chosen_pattern, [1])


def _two_user_scenario():
    geom = MisGeometry(2, 1, 1, 1)
    users = [
        (ArrayAngles(-math.pi / 3, math.pi / 4), 0.01),
        (ArrayAngles(math.pi / 3, math.pi / 4), 0.01),
    ]
    return Scenario(geom=geom, mis_arrival=ArrayAngles(0.0, 0.0), users=users)


def test_solve_deterministic():
    scenario = _two_user_scenario()
    config = SolverConfig(rng_seed=5, num_restarts=2)
    first = solve(scenario, config)
    second = solve(scenario, config)
    np.testing.assert_array_equal(first.ms1_phase, second.ms1_phase)
    np.testing.assert_array_equal(first.ms2_phase, second.ms2_phase)
    np.testing.assert_array_equal(first.chosen_pattern, second.chosen_pattern)
    np.testing.assert_array_equal(first.per_user_snr, second.per_user_snr)
    assert first.worst_snr == second.worst_snr
    assert first.origin == second.origin
    assert first.num_evals == second.num_evals
    for seg_a, seg_b in zip(first.objective_trace, second.objective_trace):
        np.testing.assert_array_equal(seg_a, seg_b)
    assert first.mu_schedule == second.mu_schedule


def test_solve_single_pattern_schedule_is_all_ones():
    geom = MisGeometry(2, 2, 2, 2)
    scenario = Scenario(
        geom=geom,
        mis_arrival=ArrayAngles(0.0, 0.0),
        users=[
            (ArrayAngles(-0.3, 0.5), 0.01),
            (ArrayAngles(0.9, 0.2), 0.01),
        ],
    )
    report = solve(scenario, SolverConfig(rng_seed=1))
    assert report.snr_table.shape == (2, 1)
    np.testing.assert_array_equal(report.chosen_pattern, [1, 1])


def test_solve_report_consistent_with_scalar_recomputation():
    scenario = _two_user_scenario()
    report = solve(scenario, SolverConfig(rng_seed=2, num_restarts=2))
    recomputed = []
    for k, pattern in enumerate(report.chosen_pattern):
        dense, padding = dense_selection_oracle(scenario.geom, int(pattern))
        equiv = dense @ report.ms2_phase + padding
        recomputed.append(snr_full_path(report.ms1_phase, equiv, scenario, k))
    np.testing.assert_allclose(report.per_user_snr, recomputed, rtol=1e-12)
    assert report.worst_snr == pytest.approx(min(recomputed), rel=1e-12)
    # feasibility of the reported phases and schedule
    assert np.max(np.abs(np.abs(report.ms1_phase) - 1.0)) < 1e-12
    assert np.max(np.abs(np.abs(report.ms2_phase) - 1.0)) < 1e-12
    assert set(report.chosen_pattern.tolist()) <= {1, 2}


def test_solve_reports_each_users_best_pattern():
    scenario = Scenario(
        geom=MisGeometry(3, 3, 1, 1),
        mis_arrival=ArrayAngles(0.59, 1.13),
        users=[(ArrayAngles(0.08, 0.31), 0.04), (ArrayAngles(2.31, 0.5), 0.028)],
    )
    ctx = EvalContext.from_scenario(scenario)
    # a short solve leaves the relaxed schedule far from each user's best pattern
    config = SolverConfig(rng_seed=1, max_inner_iters=3, max_outer_iters=1)
    report = solve(scenario, config)
    table = ctx.pattern_snr_table(report.ms1_phase, report.ms2_phase)
    assert report.worst_snr == table.max(axis=1).min()
    np.testing.assert_array_equal(report.per_user_snr, table.max(axis=1))
    np.testing.assert_array_equal(report.chosen_pattern, np.argmax(table, axis=1) + 1)


def test_solve_monotone_traces_within_stages():
    scenario = _two_user_scenario()
    report = solve(scenario, SolverConfig(rng_seed=3, num_restarts=1))
    assert len(report.objective_trace) == len(report.mu_schedule)
    for segment in report.objective_trace:
        assert np.all(np.diff(segment) >= 0.0)
    assert all(
        later <= earlier for earlier, later in zip(report.mu_schedule, report.mu_schedule[1:])
    )


def test_solve_warm_start_floor():
    scenario = _two_user_scenario()
    ctx = EvalContext.from_scenario(scenario)
    # hand a deliberately good feasible point as a warm start
    strong = solve(scenario, SolverConfig(rng_seed=4, num_restarts=4))
    weak_config = SolverConfig(rng_seed=9, num_restarts=1, max_inner_iters=2, max_outer_iters=1)
    floored = solve(scenario, weak_config, warm=(strong.ms1_phase, strong.ms2_phase))
    table = ctx.pattern_snr_table(strong.ms1_phase, strong.ms2_phase)
    # the unoptimized warm candidate gives each user its best pattern
    direct_floor = float(table.max(axis=1).min())
    assert floored.worst_snr >= direct_floor * (1 - 1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(num_restarts=0)
    for bad in (
        {"max_inner_iters": math.inf},
        {"max_inner_iters": 2.5},
        {"max_outer_iters": 2.5},
        {"rng_seed": math.inf},
        {"rng_seed": True},
        {"num_restarts": 2.5},
    ):
        (key,) = bad
        with pytest.raises(ValueError, match=key):
            SolverConfig(**bad)
    SolverConfig(rng_seed=np.int64(3), num_restarts=np.int32(2))
    # removed options are not fields any more
    for gone in (
        "restart_period",
        "mu_gap_rtol",
        "max_backtracks",
        "mu_init",
        "delta",
        "mu_min",
        "inner_grad_tol",
        "armijo_c1",
        "backtrack_factor",
        "initial_step",
    ):
        with pytest.raises(TypeError, match=gone):
            SolverConfig(**{gone: 2})


def test_solve_validates_warm_starts():
    scenario = _two_user_scenario()
    ctx = EvalContext.from_scenario(scenario)
    good = (np.ones(ctx.num_ms1, dtype=complex), np.ones(ctx.num_ms2, dtype=complex))
    all_nan = (np.full(ctx.num_ms1, np.nan + 0j), np.full(ctx.num_ms2, np.nan + 0j))
    wrong_shape = (np.ones(ctx.num_ms1 + 1, dtype=complex), good[1])
    config = SolverConfig(max_inner_iters=2, max_outer_iters=1)
    with pytest.raises(ValueError, match="warm start: ms1_phase has non-finite"):
        solve(scenario, config, warm=all_nan)
    with pytest.raises(ValueError, match="warm start: ms1_phase must have shape"):
        solve(scenario, config, warm=wrong_shape)
    for not_a_pair in (5, good + (good[0],)):
        with pytest.raises(ValueError, match="warm start: "):
            solve(scenario, config, warm=not_a_pair)
    solve(scenario, config, warm=good)
