import math
from dataclasses import FrozenInstanceError, replace

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
    _conjugate,
    _rank,
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


def _shorten(monkeypatch, inner_iters=None, stages=None):
    """Cap every inner stage at ``inner_iters`` iterations and end every
    anneal after ``stages`` stages (sooner if the gap test ends it): stage
    ``stages`` runs at the mu floor ``2**-(stages - 1)`` of the first mu."""
    if inner_iters is not None:
        monkeypatch.setattr(solver, "MAX_INNER_ITERS", inner_iters)
    if stages is not None:
        monkeypatch.setattr(solver, "MU_MIN_RATIO", 2.0 ** -(stages - 1))

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
    _shorten(monkeypatch, inner_iters=40)
    conjugated = 0
    for _ in range(6):
        _, _, ctx, point = random_instance(rng)
        mu = max(0.2 * float(evaluate(point, 1.0, ctx).user_snrs.mean()), 1e-3)
        searches.clear()
        projections.clear()
        stage = inner_solve(point, mu, ctx)
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


def test_inner_solve_step_rule_doubles_untouched_steps_without_ceiling(monkeypatch):
    """The first search of a stage and the first after a stall start at
    INITIAL_STEP; after an accept the next search starts at twice the step
    when it passed at its own start, else at the step, and starts can pass 1."""
    scenario = replace(_two_user_scenario(), geom=MisGeometry(2, 2, 1, 1))
    ctx = EvalContext.from_scenario(scenario)
    start = _random_start(ctx, seed=7)
    searches = []
    real_search = solver.line_search

    def spy_search(point, direction, objective, slope, current, grad, step):
        result = real_search(point, direction, objective, slope, current, grad, step)
        searches.append((step, result))
        return result

    monkeypatch.setattr(solver, "line_search", spy_search)
    inner_solve(start, solver._Anneal(start, ctx, "restart-0").mu, ctx)
    assert searches[0][0] == INITIAL_STEP
    kinds = set()
    for (begin, result), (next_begin, _) in zip(searches, searches[1:]):
        if result.stalled:
            kinds.add("stall")
            assert next_begin == INITIAL_STEP
        elif result.step == begin:
            kinds.add("untouched")
            assert next_begin == 2.0 * result.step
        else:
            kinds.add("backtracked")
            assert next_begin == result.step
    assert kinds == {"stall", "untouched", "backtracked"}
    assert max(begin for begin, _ in searches) > 1.0


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


@pytest.mark.parametrize(
    "name, initial_step, slope",
    [
        ("initial_step", -1.0, 1.0),
        ("initial_step", 0.0, 1.0),
        ("initial_step", math.inf, 1.0),
        ("initial_step", math.nan, 1.0),
        ("slope", INITIAL_STEP, -1.0),
        ("slope", INITIAL_STEP, -math.inf),
        ("slope", INITIAL_STEP, math.inf),
        ("slope", INITIAL_STEP, math.nan),
    ],
)
def test_line_search_rejects_unusable_start_or_slope(name, initial_step, slope):
    point = _exact_point()
    direction = _schedule_move(point, np.array([[0.25, -0.25], [0.0, 0.0]]))

    def objective(p):
        raise AssertionError("the objective was called")

    with pytest.raises(ValueError, match=name):
        line_search(
            point, direction, objective, slope, _scored(1.0), direction, initial_step
        )


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


def test_rank_never_picks_a_non_finite_report():
    def pick(*reports):
        return max(reports, key=_rank)

    nan, finite, higher = _report_with(math.nan), _report_with(1.0), _report_with(2.0)
    assert pick(nan) is nan
    assert pick(nan, finite) is finite
    assert pick(finite, nan) is finite
    inf = _report_with(math.inf)
    assert pick(inf, finite) is finite
    assert pick(finite, inf) is finite
    assert pick(finite, higher) is higher
    assert pick(higher, finite) is higher
    # equal ranks keep the earliest
    assert pick(finite, _report_with(1.0)) is finite
    assert pick(nan, inf) is nan


def _tiny_context(iota=0.0):
    geom = MisGeometry(2, 1, 1, 1)
    scenario = Scenario(
        geom=geom,
        mis_arrival=ArrayAngles(0.0, 0.0),
        users=[(ArrayAngles(0.5, 0.6), 0.01)],
    )
    ctx = EvalContext.from_scenario(scenario)
    return EvalContext(
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
    result = inner_solve(point, 0.5, ctx)
    assert result.num_iters == 0
    assert result.point is point


def test_inner_solve_reaches_matched_filter_optimum(monkeypatch):
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
    _shorten(monkeypatch, inner_iters=500)
    result = inner_solve(point, 1.0, ctx)
    assert result.min_user_snr >= 0.999 * 0.01 * 16


def test_inner_solve_trace_monotone_and_feasible(monkeypatch):
    rng = np.random.default_rng(3)
    _, _, ctx, point = random_instance(rng)
    _shorten(monkeypatch, inner_iters=60)
    result = inner_solve(point, 0.3, ctx)
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
    _assert_same_stages(first.stages, second.stages)


def test_solve_single_pattern_schedule_is_all_ones(monkeypatch):
    """A one-pattern schedule is all ones and cannot move: the solve neither
    retracts it nor runs the cone test, and every point it evaluates keeps
    the start's schedule."""
    geom = MisGeometry(2, 2, 2, 2)
    scenario = Scenario(
        geom=geom,
        mis_arrival=ArrayAngles(0.0, 0.0),
        users=[
            (ArrayAngles(-0.3, 0.5), 0.01),
            (ArrayAngles(0.9, 0.2), 0.01),
        ],
    )
    schedules = []
    real_evaluate = solver.evaluate

    def spy_evaluate(point, mu, ctx, want_grad=False):
        schedules.append(point.schedule)
        return real_evaluate(point, mu, ctx, want_grad=want_grad)

    def unreachable(*args):
        raise AssertionError("a one-pattern schedule reached the simplex")

    monkeypatch.setattr(solver, "evaluate", spy_evaluate)
    monkeypatch.setattr(solver, "project_schedule_cone", unreachable)
    monkeypatch.setattr(solver, "retract_multinomial", unreachable)
    report = solve(scenario, SolverConfig(rng_seed=1))
    assert report.snr_table.shape == (2, 1)
    np.testing.assert_array_equal(report.chosen_pattern, [1, 1])
    assert len(schedules) > 100
    for schedule in schedules:
        np.testing.assert_array_equal(schedule, np.ones((2, 1)))
    assert all(stage.point.schedule is schedules[0] for stage in report.stages)


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


def test_solve_reports_each_users_best_pattern(monkeypatch):
    scenario = Scenario(
        geom=MisGeometry(3, 3, 1, 1),
        mis_arrival=ArrayAngles(0.59, 1.13),
        users=[(ArrayAngles(0.08, 0.31), 0.04), (ArrayAngles(2.31, 0.5), 0.028)],
    )
    ctx = EvalContext.from_scenario(scenario)
    # a short solve leaves the relaxed schedule far from each user's best pattern
    _shorten(monkeypatch, inner_iters=3, stages=1)
    report = solve(scenario, SolverConfig(rng_seed=1))
    table = ctx.pattern_snr_table(report.ms1_phase, report.ms2_phase)
    assert report.worst_snr == table.max(axis=1).min()
    np.testing.assert_array_equal(report.per_user_snr, table.max(axis=1))
    np.testing.assert_array_equal(report.chosen_pattern, np.argmax(table, axis=1) + 1)


def test_solve_monotone_traces_within_stages():
    scenario = _two_user_scenario()
    report = solve(scenario, SolverConfig(rng_seed=3, num_restarts=1))
    assert report.stages
    for stage in report.stages:
        assert np.all(np.diff(stage.objective_trace) >= 0.0)
    mus = [stage.mu for stage in report.stages]
    assert all(later <= earlier for earlier, later in zip(mus, mus[1:]))
    with pytest.raises(FrozenInstanceError):
        report.stages = ()


def test_solve_warm_start_floor(monkeypatch):
    scenario = _two_user_scenario()
    ctx = EvalContext.from_scenario(scenario)
    # hand a deliberately good feasible point as a warm start
    strong = solve(scenario, SolverConfig(rng_seed=4, num_restarts=4))
    _shorten(monkeypatch, inner_iters=2, stages=1)
    weak_config = SolverConfig(rng_seed=9, num_restarts=1)
    floored = solve(scenario, weak_config, warm=(strong.ms1_phase, strong.ms2_phase))
    table = ctx.pattern_snr_table(strong.ms1_phase, strong.ms2_phase)
    # the unoptimized warm candidate gives each user its best pattern
    direct_floor = float(table.max(axis=1).min())
    assert floored.worst_snr >= direct_floor * (1 - 1e-12)


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(num_restarts=0)
    for bad in (
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
        "max_inner_iters",
        "max_outer_iters",
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


def test_solve_validates_warm_starts(monkeypatch):
    scenario = _two_user_scenario()
    ctx = EvalContext.from_scenario(scenario)
    good = (np.ones(ctx.num_ms1, dtype=complex), np.ones(ctx.num_ms2, dtype=complex))
    all_nan = (np.full(ctx.num_ms1, np.nan + 0j), np.full(ctx.num_ms2, np.nan + 0j))
    wrong_shape = (np.ones(ctx.num_ms1 + 1, dtype=complex), good[1])
    _shorten(monkeypatch, inner_iters=2, stages=1)
    config = SolverConfig()
    with pytest.raises(ValueError, match="warm start: ms1_phase has non-finite"):
        solve(scenario, config, warm=all_nan)
    with pytest.raises(ValueError, match="warm start: ms1_phase must have shape"):
        solve(scenario, config, warm=wrong_shape)
    not_numbers = [(["a"] * ctx.num_ms1, [1]), ([None] * ctx.num_ms1, [1])]
    for not_a_pair in (5, good + (good[0],), *not_numbers):
        with pytest.raises(ValueError, match="warm start: "):
            solve(scenario, config, warm=not_a_pair)
    solve(scenario, config, warm=good)


# The race: a resumable anneal, a barrier after RACE_STAGE stages, and the
# candidates picked in the order restarts, warm-direct, warm-annealed.


def _three_user_scenario():
    # A 3x3 fixed layer over a 2x2 movable one: four patterns, anneals that
    # outlast the barrier.
    return Scenario(
        geom=MisGeometry(3, 3, 2, 2),
        mis_arrival=ArrayAngles(0.59, 1.13),
        users=[
            (ArrayAngles(0.08, 0.31), 0.04),
            (ArrayAngles(2.31, 0.5), 0.028),
            (ArrayAngles(-1.2, 0.7), 0.03),
        ],
    )


def _random_start(ctx, seed, restart=0):
    rng = np.random.default_rng([seed, restart])
    return ProductPoint(
        ms1_phase=np.exp(2j * np.pi * rng.random(ctx.num_ms1)),
        ms2_phase=np.exp(2j * np.pi * rng.random(ctx.num_ms2)),
        schedule=_uniform(ctx.num_users, ctx.num_patterns),
    )


def _frozen_anneal(start, ctx):
    """The single uninterrupted anneal as it stood before the race, frozen:
    (point, stages)."""
    point = start
    snr0 = np.einsum(
        "ku,ku->k", point.schedule, ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
    )
    mu = float(snr0.max() - snr0.min()) + max(1e-3 * float(np.abs(snr0).mean()), 1e-8)
    mu_min = solver.MU_MIN_RATIO * mu
    stages = []
    while True:
        stage = inner_solve(point, mu, ctx)
        assert stage.mu == mu
        point = stage.point
        stages.append(stage)
        if mu <= mu_min:
            break
        if mu * math.log(ctx.num_users) < solver.MU_GAP_RTOL * max(stage.min_user_snr, 1e-30):
            break
        mu /= solver.DELTA
    return point, stages


def _assert_same_stages(a, b):
    assert len(a) == len(b)
    for x, y in zip(a, b):
        for name in ("mu", "min_user_snr", "num_iters", "num_evals", "stalled"):
            assert getattr(x, name) == getattr(y, name), name
        assert np.array_equal(x.objective_trace, y.objective_trace)
        for name in ("ms1_phase", "ms2_phase", "schedule"):
            assert np.array_equal(getattr(x.point, name), getattr(y.point, name)), name


def _assert_same_report(a, b):
    for name in ("ms1_phase", "ms2_phase", "per_user_snr", "chosen_pattern", "snr_table"):
        assert np.array_equal(getattr(a, name), getattr(b, name)), name
    assert a.worst_snr == b.worst_snr
    _assert_same_stages(a.stages, b.stages)
    assert a.origin == b.origin


# (2, 7) runs past the end of a 5-stage anneal.
@pytest.mark.parametrize(
    "stages, legs", [(None, (1, 2, None)), (None, (3, 3, 3, None)), (5, (2, 7))]
)
def test_anneal_resumed_in_legs_matches_one_run(monkeypatch, stages, legs):
    ctx = EvalContext.from_scenario(_three_user_scenario())
    _shorten(monkeypatch, inner_iters=20, stages=stages)
    start = _random_start(ctx, seed=3)
    whole = solver._Anneal(start, ctx, "restart-0").run()
    resumed = solver._Anneal(start, ctx, "restart-0")
    for leg in legs:
        before = resumed.stage
        resumed.run(leg)
        if leg is not None and not resumed.done:
            assert resumed.stage == before + leg
    assert resumed.done and whole.done
    assert whole.stage > 3
    _assert_same_report(resumed.report(), whole.report())


def test_mu_floor_ends_every_anneal_by_stage_21(monkeypatch):
    # with the gap test off only the mu floor ends an anneal: stage 21 runs
    # at 2**-20 of the first mu, the first stage at or below MU_MIN_RATIO
    monkeypatch.setattr(solver, "MU_GAP_RTOL", 0.0)
    scenario = replace(_three_user_scenario(), geom=MisGeometry(2, 2, 1, 1))
    ctx = EvalContext.from_scenario(scenario)
    anneal = solver._Anneal(_random_start(ctx, seed=0), ctx, "restart-0").run()
    assert anneal.done and anneal.stage == 21
    assert anneal.stages[-1].mu / anneal.stages[0].mu == 2.0**-20


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_single_candidate_solve_is_the_uninterrupted_anneal(monkeypatch, seed):
    scenario = _three_user_scenario()
    ctx = EvalContext.from_scenario(scenario)
    _shorten(monkeypatch, inner_iters=30)
    config = SolverConfig(rng_seed=seed)
    point, stages = _frozen_anneal(_random_start(ctx, seed), ctx)
    expected = _report_at(point, ctx, "restart-0", stages)
    assert len(stages) > solver.RACE_STAGE
    _assert_same_report(solve(scenario, config), expected)


class _Runner:
    """A stand-in for an anneal at the barrier: a fixed worst SNR and done flag."""

    def __init__(self, worst, done=False):
        self._worst, self.done = worst, done

    def report(self):
        return _report_with(self._worst)


@pytest.mark.parametrize(
    "scores, done, kept",
    [
        ((1.0, 3.0, 2.0, 0.0), (), (1, 2)),  # the lower half goes
        ((5.0, 1.0, 4.0), (), (0, 2)),  # ceil(3 / 2) survive
        ((2.0, 1.0, 2.0, 2.0), (), (0, 2)),  # ties keep the earliest
        ((1.0, 1.0), (), (0,)),
        ((3.0, 2.0, 1.0, 0.0), (3,), (0, 1, 3)),  # a finished anneal stays
        ((0.0, 1.0), (0,), (0, 1)),
        ((-math.inf, 1.0, 0.5), (), (1, 2)),
        ((math.nan, 1.0, 0.5), (), (1, 2)),  # a NaN ranks last
    ],
)
def test_race_keeps_the_better_half_and_finished_anneals(scores, done, kept):
    runners = [_Runner(worst, i in done) for i, worst in enumerate(scores)]
    survivors = solver._race(runners)
    assert [runners.index(r) for r in survivors] == list(kept)


def test_anneal_rank_is_the_reported_worst_snr_and_ranks_nan_last():
    ctx = EvalContext.from_scenario(_three_user_scenario())
    anneal = solver._Anneal(_random_start(ctx, seed=1), ctx, "restart-0")
    anneal.run(2)
    worst = anneal.report().worst_snr
    assert math.isfinite(worst) and _rank(anneal.report()) == worst
    nan_phase = np.full(ctx.num_ms1, np.nan + 0j)
    anneal.point = ProductPoint(nan_phase, anneal.point.ms2_phase, anneal.point.schedule)
    assert math.isnan(anneal.report().worst_snr)
    assert _rank(anneal.report()) == -math.inf


def _record_survivors(monkeypatch):
    """Patch ``solver._race`` to record the anneals it keeps; returns the record."""
    survivors = []
    race = solver._race

    def recorded_race(anneals):
        survivors.extend(race(anneals))
        return survivors

    monkeypatch.setattr(solver, "_race", recorded_race)
    return survivors


def test_warm_direct_competes_when_the_warm_anneal_is_dropped(monkeypatch):
    scenario = _three_user_scenario()
    ctx = EvalContext.from_scenario(scenario)
    strong = solve(scenario, SolverConfig(rng_seed=4, num_restarts=2))
    floor = float(ctx.pattern_snr_table(strong.ms1_phase, strong.ms2_phase).max(axis=1).min())
    # a weak restart, and a warm anneal that ranks lowest at the barrier
    _shorten(monkeypatch, inner_iters=2, stages=6)
    config = SolverConfig(rng_seed=9)
    monkeypatch.setattr(
        solver,
        "_rank",
        lambda report: -math.inf if report.origin == "warm-annealed" else _rank(report),
    )
    survivors = _record_survivors(monkeypatch)
    report = solve(scenario, config, warm=(strong.ms1_phase, strong.ms2_phase))
    assert [anneal.origin for anneal in survivors] == ["restart-0"]
    assert solve(scenario, config).worst_snr < floor
    assert report.origin == "warm-direct"
    assert report.worst_snr == floor


def test_equal_ranks_pick_the_earliest_candidate(monkeypatch):
    scenario = _three_user_scenario()
    ctx = EvalContext.from_scenario(scenario)
    warm = tuple(np.ones(n, dtype=complex) for n in (ctx.num_ms1, ctx.num_ms2))

    _shorten(monkeypatch, inner_iters=2, stages=6)

    def config(restarts):
        return SolverConfig(rng_seed=2, num_restarts=restarts)

    # every candidate ranks the same: the first restart wins, also when it is
    # the only survivor beside the warm start as-is
    monkeypatch.setattr(solver, "_rank", lambda report: 0.0)
    for restarts in (1, 2):
        assert solve(scenario, config(restarts), warm=warm).origin == "restart-0"
    # both warm candidates rank equal and above the restarts: as-is wins
    monkeypatch.setattr(
        solver, "_rank", lambda report: float(report.origin.startswith("warm-"))
    )
    survivors = _record_survivors(monkeypatch)
    report = solve(scenario, config(2), warm=warm)
    assert "warm-annealed" in [anneal.origin for anneal in survivors]
    assert report.origin == "warm-direct"


def test_warm_start_takes_lists_and_real_arrays(monkeypatch):
    scenario = Scenario(
        geom=MisGeometry(2, 2, 1, 1),
        mis_arrival=ArrayAngles(0.59, 1.13),
        users=[(ArrayAngles(0.08, 0.31), 0.04), (ArrayAngles(2.31, 0.5), 0.028)],
    )
    _shorten(monkeypatch, inner_iters=5, stages=3)
    config = SolverConfig(rng_seed=3)
    complex_pair = (np.ones(4, dtype=complex), np.ones(1, dtype=complex))
    expected = solve(scenario, config, warm=complex_pair)
    for warm in (
        ([1 + 0j] * 4, [1 + 0j]),
        ([1] * 4, [1]),
        ([1.0] * 4, [1.0]),
        (np.ones(4, dtype=int), np.ones(1, dtype=int)),
        (np.ones(4), np.ones(1)),
    ):
        _assert_same_report(solve(scenario, config, warm=warm), expected)
