"""Riemannian conjugate gradient over the phase/schedule product manifold.

The solver maximizes the softmin surrogate of the worst-case user SNR for a
fixed smoothing parameter (inner loop), then halves the parameter and
repeats until the surrogate gap is negligible (outer loop).  Directions use
the Polak-Ribiere rule per factor, with a nonnegativity clamp and an
ascent-reset safeguard, on the product-manifold operations of
:mod:`misopt.manifolds`; a single backtracking line search produces one
shared step size for all three factors.  At the end every user gets its
best pattern at the final phases, which is the exact schedule optimum for
those phases since users are scheduled independently; the report carries
that binary schedule as one placement per user, the true (non-surrogate)
worst-case SNR and the (user, pattern) SNR table it was read from.  Every
start, random or warm, begins from the uniform schedule, so a warm start is
just a pair of phase profiles.

The anneal schedule (:data:`DELTA`, :data:`MU_MIN_RATIO`, :data:`MU_GAP_RTOL`,
:data:`INNER_GRAD_TOL`) and the step rule (:data:`ARMIJO_C1`,
:data:`BACKTRACK_FACTOR`, :data:`INITIAL_STEP`, :data:`MAX_BACKTRACKS`) are
module constants, not options; the first smoothing parameter comes from the
spread of the initial per-user SNRs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .channel import Scenario
# grad_norm is unused here (inner_solve sums block norms) but perfbench wraps it.
from .manifolds import (
    RetractionError,
    TangentTriple,
    grad_norm,
    project_schedule_cone,
    project_to_tangent,
    retract_circle,
    retract_multinomial,
    transport,
)
from .objective import EvalContext, Evaluation, ProductPoint, euclidean_grads, evaluate

__all__ = [
    "NonFiniteObjectiveError",
    "SolverConfig",
    "SolveReport",
    "LineSearchResult",
    "InnerResult",
    "line_search",
    "inner_solve",
    "solve",
]

# Each anneal stage divides mu by DELTA; the anneal stops once mu is below
# MU_MIN_RATIO of its start or ``mu * log(K)`` below MU_GAP_RTOL of the worst
# SNR.  An inner stage stops once the Riemannian gradient norm is below
# INNER_GRAD_TOL.
DELTA = 2.0
MU_MIN_RATIO = 1e-6
MU_GAP_RTOL = 1e-4
INNER_GRAD_TOL = 1e-6
# A line search tries INITIAL_STEP (or less) first, tests Armijo with ARMIJO_C1,
# multiplies the step by BACKTRACK_FACTOR per rejected candidate and gives up
# after MAX_BACKTRACKS rejections.
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
INITIAL_STEP = 1.0
MAX_BACKTRACKS = 50


class NonFiniteObjectiveError(ArithmeticError):
    """The surrogate objective is not finite at a point the solver reached."""


@dataclass(frozen=True)
class SolverConfig:
    """The values callers vary: the iteration caps, the seed and the restart
    count.  The rest of the algorithm is the module constants :data:`DELTA`,
    :data:`MU_MIN_RATIO`, :data:`MU_GAP_RTOL`, :data:`INNER_GRAD_TOL`,
    :data:`ARMIJO_C1`, :data:`BACKTRACK_FACTOR`, :data:`INITIAL_STEP` and
    :data:`MAX_BACKTRACKS`.  Fields take Python or numpy integers only; a
    float or a bool is rejected, never truncated."""

    max_inner_iters: int = 250
    max_outer_iters: int = 40
    rng_seed: int = 0
    num_restarts: int = 1

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{f.name} must be an integer, got {value!r}")
        for ok, message in (
            (min(self.max_inner_iters, self.max_outer_iters) >= 1,
             "iteration limits must be >= 1"),
            (self.num_restarts >= 1, "num_restarts must be >= 1"),
            (self.rng_seed >= 0, "rng_seed must be nonnegative"),
        ):
            if not ok:
                raise ValueError(message)


@dataclass
class SolveReport:
    """Solution plus solve-time diagnostics for one scenario; ``chosen_pattern``
    is the binary schedule (each user's 1-based placement) and ``snr_table``
    the K x U SNR of every (user, pattern) pair at the reported phases."""

    ms1_phase: np.ndarray
    ms2_phase: np.ndarray
    per_user_snr: np.ndarray
    worst_snr: float
    chosen_pattern: np.ndarray
    snr_table: np.ndarray
    objective_trace: list = field(default_factory=list)
    mu_schedule: list = field(default_factory=list)
    num_evals: int = 0
    origin: str = ""


@dataclass(frozen=True)
class LineSearchResult:
    step: float
    point: ProductPoint
    evaluation: Evaluation
    stalled: bool
    num_evals: int


@dataclass(frozen=True)
class InnerResult:
    point: ProductPoint
    evaluation: Evaluation
    objective_trace: np.ndarray
    num_iters: int
    num_evals: int
    stalled: bool


def _rinner(a: np.ndarray, b: np.ndarray) -> float:
    """Real inner product: Re of the Hermitian product for complex blocks,
    the Frobenius product for real blocks."""
    return float(np.vdot(a, b).real)


def _conjugate(
    g: np.ndarray, gg: float, gg_old: float, carried_g: np.ndarray, carried_dir: np.ndarray
) -> tuple[np.ndarray, float]:
    """Polak-Ribiere ascent direction ``g + beta * carried_dir`` for one
    factor and its slope ``<direction, g>``.

    ``g`` is the current gradient, ``gg``/``gg_old`` the squared norms of it
    and of the previous one, and ``carried_g``/``carried_dir`` the previous
    gradient and direction transported to the current point.  ``beta``
    pairs ``g`` with ``g - carried_g`` over ``gg_old`` and is floored at
    zero, which restarts to steepest ascent; so does a combination that is
    not an ascent direction.
    """
    if gg_old < 1e-30:
        return g, gg
    beta = max((gg - _rinner(g, carried_g)) / gg_old, 0.0)
    if beta == 0.0:
        return g, gg
    direction = g + beta * carried_dir
    slope = _rinner(direction, g)
    if slope <= 0.0:
        return g, gg
    return direction, slope


def _retract_point(
    point: ProductPoint, direction: TangentTriple, step: float
) -> ProductPoint:
    return ProductPoint(
        ms1_phase=retract_circle(point.ms1_phase, direction.d_ms1_phase, step),
        ms2_phase=retract_circle(point.ms2_phase, direction.d_ms2_phase, step),
        schedule=retract_multinomial(point.schedule, direction.d_schedule, step),
    )


def line_search(
    point: ProductPoint,
    direction: TangentTriple,
    objective,
    slope: float,
    current: Evaluation,
    grad: TangentTriple,
    initial_step: float,
) -> LineSearchResult:
    """Backtracking Armijo search along an ascent direction.

    Tests ``step = initial_step * BACKTRACK_FACTOR**j`` and accepts the first
    step whose retracted objective clears ``value + ARMIJO_C1 * step * slope``;
    ``objective`` maps a point to its :class:`Evaluation`, ``current`` is the
    one at ``point`` (``value`` its value), and ``slope`` the inner product
    of the Riemannian gradient ``grad`` with the direction.  A retraction
    failure just backtracks further.  The search stalls, returning a zero
    step and the stalled flag, after :data:`MAX_BACKTRACKS` rejections or as
    soon as the sufficient-increase term ``ARMIJO_C1 * step * slope`` is no
    larger than the float spacing at ``value``: from there on the test
    compares only rounding noise.

    The search also stalls after its first evaluated candidate fails when
    the slope the retraction can reach is at most ``ARMIJO_C1 * slope``.
    That reach swaps the schedule block of the direction for its projection
    onto the simplex's tangent cone (floored entries may only grow), the
    one-sided derivative of the retraction at step 0+; to first order no
    smaller step can then pass.
    """
    value = current.value
    if not math.isfinite(value):
        raise NonFiniteObjectiveError(f"objective value {value} is not finite")
    resolution = np.spacing(abs(value))
    evals = 0
    step = initial_step
    for _ in range(MAX_BACKTRACKS + 1):
        if 0.0 < ARMIJO_C1 * step * slope <= resolution:
            break
        try:
            candidate = _retract_point(point, direction, step)
        except RetractionError:
            step *= BACKTRACK_FACTOR
            continue
        evaluation = objective(candidate)
        evals += 1
        if evaluation.value >= value + ARMIJO_C1 * step * slope:
            return LineSearchResult(step, candidate, evaluation, False, evals)
        if evals == 1:
            d_sched = direction.d_schedule
            blocked = project_schedule_cone(point.schedule, d_sched) - d_sched
            if slope + _rinner(blocked, grad.d_schedule) <= ARMIJO_C1 * slope:
                break
        step *= BACKTRACK_FACTOR
    return LineSearchResult(0.0, point, current, True, evals)


def inner_solve(
    point: ProductPoint, mu: float, config: SolverConfig, ctx: EvalContext
) -> InnerResult:
    """Run conjugate-gradient ascent at fixed ``mu`` until the Riemannian
    gradient norm falls below tolerance, the iteration cap is hit, or the
    line search stalls twice in a row.  An accepted step's gradient reuses the
    line search's evaluation, still counted as an evaluation in ``num_evals``."""
    ev = evaluate(point, mu, ctx, want_grad=True)
    rgrad = project_to_tangent(point, ev.grads)
    num_evals = 1
    # (rgrad, sq, direction, step) of the last accepted step; a stall clears it.
    last: tuple | None = None
    stalls = 0
    tiny_steps = 0
    obj_trace = [ev.value]
    iters = 0

    def surrogate(p: ProductPoint) -> Evaluation:
        return evaluate(p, mu, ctx)

    for _ in range(config.max_inner_iters):
        # Squared block norms and slopes sum in block order, as inner does.
        sq = tuple(map(_rinner, rgrad, rgrad))
        direction, slope, start = rgrad, 0.0 + sq[0] + sq[1] + sq[2], INITIAL_STEP
        if math.sqrt(slope) < INNER_GRAD_TOL:
            break
        if last is not None:
            last_rgrad, last_sq, last_dir, last_step = last
            carried = transport(point, last_rgrad), transport(point, last_dir)
            blocks, slopes = zip(*map(_conjugate, rgrad, sq, last_sq, *carried))
            direction = TangentTriple(*blocks)
            # Each block of the direction is its gradient block or an ascent
            # direction for it, so the slope is positive at a nonzero gradient.
            slope = 0.0 + slopes[0] + slopes[1] + slopes[2]
            # Warm-start the backtracking near the last accepted step (one
            # growth allowed, never above INITIAL_STEP).
            start = min(start, max(last_step / BACKTRACK_FACTOR, 1e-12))
        result = line_search(point, direction, surrogate, slope, ev, rgrad, start)
        num_evals += result.num_evals
        iters += 1
        if result.stalled:
            stalls += 1
            last = None
            if stalls >= 2:
                break
            continue
        stalls = 0
        improvement = result.evaluation.value - ev.value
        point, ev = result.point, result.evaluation
        last = (rgrad, sq, direction, result.step)
        rgrad = project_to_tangent(point, euclidean_grads(point, ev, ctx))
        num_evals += 1
        obj_trace.append(ev.value)
        # Accepted steps that no longer move the objective mean the loop has
        # converged to line-search resolution.
        if improvement < 1e-12 * max(1.0, abs(ev.value)):
            tiny_steps += 1
            if tiny_steps >= 3:
                break
        else:
            tiny_steps = 0

    return InnerResult(
        point=point,
        evaluation=ev,
        objective_trace=np.array(obj_trace),
        num_iters=iters,
        num_evals=num_evals,
        stalled=stalls >= 2,
    )


def _report_at(point: ProductPoint, ctx: EvalContext, origin: str) -> SolveReport:
    """Report the true worst-case SNR at a point's phases, each user on its
    best pattern there (ties go to the smallest index); no schedule for those
    phases does better."""
    gamma = ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
    chosen0 = np.argmax(gamma, axis=1)
    per_user = gamma[np.arange(ctx.num_users), chosen0]
    return SolveReport(
        ms1_phase=point.ms1_phase,
        ms2_phase=point.ms2_phase,
        per_user_snr=per_user,
        worst_snr=float(per_user.min()),
        chosen_pattern=chosen0.astype(int) + 1,
        snr_table=gamma,
        origin=origin,
    )


def _anneal_from(
    start: ProductPoint, ctx: EvalContext, config: SolverConfig, origin: str
) -> SolveReport:
    """Full anneal: inner conjugate-gradient solves over a shrinking mu."""
    point = start
    snr0 = np.einsum(
        "ku,ku->k",
        point.schedule,
        ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase),
    )
    spread = float(snr0.max() - snr0.min())
    mu = spread + max(1e-3 * float(np.abs(snr0).mean()), 1e-8)
    mu_min = MU_MIN_RATIO * mu
    log_k = math.log(ctx.num_users)

    obj_trace: list[np.ndarray] = []
    mu_schedule: list[float] = []
    num_evals = 0
    for _ in range(config.max_outer_iters):
        stage = inner_solve(point, mu, config, ctx)
        point = stage.point
        obj_trace.append(stage.objective_trace)
        mu_schedule.append(mu)
        num_evals += stage.num_evals
        current_min = float(stage.evaluation.user_snrs.min())
        if mu <= mu_min:
            break
        if mu * log_k < MU_GAP_RTOL * max(current_min, 1e-30):
            break
        mu /= DELTA

    report = _report_at(point, ctx, origin)
    report.objective_trace = obj_trace
    report.mu_schedule = mu_schedule
    report.num_evals = num_evals
    return report


def _better(candidate: SolveReport, incumbent: SolveReport | None) -> bool:
    """Strictly higher worst SNR wins; a non-finite report wins only when there
    is no incumbent, and any finite report displaces it."""
    if incumbent is None:
        return True
    if not math.isfinite(candidate.worst_snr):
        return False
    return not math.isfinite(incumbent.worst_snr) or (
        candidate.worst_snr > incumbent.worst_snr
    )


def solve(
    scenario: Scenario,
    config: SolverConfig = SolverConfig(),
    warm: tuple | None = None,
) -> SolveReport:
    """Solve one scenario and return the best report across restarts.

    Random restarts draw independent seeded phases.  ``warm`` is an optional
    ``(ms1_phase, ms2_phase)`` pair, checked up front (a ``ValueError`` names
    the warm start), that competes twice after the restarts: once evaluated
    as-is (its phases with each user's best pattern, no optimization) and
    once as the start of a full anneal.  Every start begins from the
    uniform schedule.  Ties keep the earliest candidate, so results are
    seed-deterministic.
    """
    ctx = EvalContext.from_scenario(scenario)
    uniform = np.full((ctx.num_users, ctx.num_patterns), 1.0 / ctx.num_patterns)
    warm_point = None
    if warm is not None:
        try:
            ms1_phase, ms2_phase = warm
            for name, phase, size in (
                ("ms1_phase", ms1_phase, ctx.num_ms1),
                ("ms2_phase", ms2_phase, ctx.num_ms2),
            ):
                if np.shape(phase) != (size,):
                    raise ValueError(f"{name} must have shape {(size,)}")
            warm_point = ProductPoint(ms1_phase, ms2_phase, uniform)
            warm_point.validate()
        except (TypeError, ValueError) as exc:
            raise ValueError(f"warm start: {exc}") from exc

    best: SolveReport | None = None
    for restart in range(config.num_restarts):
        rng = np.random.default_rng([config.rng_seed, restart])
        start = ProductPoint(
            ms1_phase=np.exp(2j * np.pi * rng.random(ctx.num_ms1)),
            ms2_phase=np.exp(2j * np.pi * rng.random(ctx.num_ms2)),
            schedule=uniform,
        )
        report = _anneal_from(start, ctx, config, origin=f"restart-{restart}")
        if _better(report, best):
            best = report
    if warm_point is not None:
        direct = _report_at(warm_point, ctx, origin="warm-direct")
        if _better(direct, best):
            best = direct
        report = _anneal_from(warm_point, ctx, config, origin="warm-annealed")
        if _better(report, best):
            best = report
    return best
