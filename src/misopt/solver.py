"""Riemannian conjugate gradient over the phase/schedule product manifold.

The solver maximizes the softmin surrogate of the worst-case user SNR for a
fixed smoothing parameter (inner loop), then halves the parameter and
repeats until the surrogate gap ``mu * log(K)``, which bounds how far the
softmin sits below the true minimum (Nesterov 2005), is under 1% of the
least user SNR (outer loop).  Stages past that point moved the reported
worst SNR by about 0.1% and cost a third or more of the evaluations.
Directions use the Polak-Ribiere rule per factor, with a nonnegativity clamp
and an ascent-reset safeguard, on the product-manifold operations of
:mod:`misopt.manifolds`; a single backtracking line search produces one
shared step size for all three factors.  Its first try adapts, as Manopt's
``linesearch_adaptive`` does (Boumal 2023): twice the last accepted step when
that step passed at its first try, the step itself when it took backtracking,
with no ceiling, and :data:`INITIAL_STEP` at a stage's start and after a
stalled search.  At the end every user gets its best pattern at the final
phases, which is the exact schedule optimum for those phases since users are
scheduled independently; the report carries that binary schedule as one
placement per user, the true (non-surrogate) worst-case SNR and the (user,
pattern) SNR table it was read from.  A start, random or warm, is a pair of
phase profiles: the relaxed schedule, uniform at the start, stays inside the
anneal, and a report's stages carry no point.

A solve anneals its starts (the random restarts, then the warm start) and
races them: each runs :data:`RACE_STAGE` stages, the better half (ties to
the earliest, and every anneal that has already finished) runs on to the
end, and the rest are dropped.  This is successive halving with one
barrier; a lone anneal keeps itself.  One rule, :func:`_rank`, ranks at the
barrier and picks the result: the true worst-case SNR, a non-finite one
last.

The anneal schedule (:data:`DELTA`, :data:`MU_MIN_RATIO`, :data:`MU_GAP_RTOL`,
:data:`INNER_GRAD_TOL`, :data:`MAX_INNER_ITERS`), the race barrier
(:data:`RACE_STAGE`) and the step rule (:data:`ARMIJO_C1`,
:data:`BACKTRACK_FACTOR`, :data:`INITIAL_STEP`, :data:`MAX_BACKTRACKS`) are
module constants, not options; the first smoothing parameter comes from the
spread of the initial per-user SNRs.  Stage ``s`` of an anneal runs at
``mu0 * DELTA**-(s - 1)``, so the mu floor ends every anneal by stage 21
(``2**-20 <= MU_MIN_RATIO``) and no stage cap is needed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import Scenario
from .geometry import _require_int
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
from .objective import (
    EvalContext, Evaluation, ProductPoint, _check_shape, euclidean_grads, evaluate
)

__all__ = [
    "NonFiniteObjectiveError",
    "SolverConfig",
    "SolveReport",
    "LineSearchResult",
    "Stage",
    "line_search",
    "inner_solve",
    "solve",
]

# Each anneal stage divides mu by DELTA; the anneal stops once mu is below
# MU_MIN_RATIO of its start or the surrogate gap ``mu * log(K)`` is below
# MU_GAP_RTOL (1%) of the stage's least user SNR.  A 1e-4 gap ran about six
# more stages, which bought about 0.1% of worst SNR for a third to a half
# of all evaluations.  An inner stage stops once the Riemannian gradient
# norm is below INNER_GRAD_TOL, or after MAX_INNER_ITERS iterations.
DELTA = 2.0
MU_MIN_RATIO = 1e-6
MU_GAP_RTOL = 1e-2
INNER_GRAD_TOL = 1e-6
MAX_INNER_ITERS = 250
# Every anneal of a solve runs RACE_STAGE stages before the worse half is
# dropped.
RACE_STAGE = 4
# A line search tries INITIAL_STEP first at a stage's start and after a stall;
# after an accepted step it tries twice that step if the step passed at its
# first try, else the step itself, with no ceiling.  It tests Armijo with
# ARMIJO_C1, multiplies the step by BACKTRACK_FACTOR per rejected candidate and
# gives up after MAX_BACKTRACKS rejections.
ARMIJO_C1 = 1e-4
BACKTRACK_FACTOR = 0.5
INITIAL_STEP = 1.0
MAX_BACKTRACKS = 50


class NonFiniteObjectiveError(ArithmeticError):
    """The surrogate objective is not finite at a point the solver reached."""


@dataclass(frozen=True)
class SolverConfig:
    """The values callers vary: the seed and the restart count.  The rest of
    the algorithm is the module constants listed in the module docstring.
    Fields take Python or numpy integers only; a float or a bool is
    rejected, never truncated."""

    rng_seed: int = 0
    num_restarts: int = 1

    def __post_init__(self):
        _require_int("rng_seed", self.rng_seed, 0)
        _require_int("num_restarts", self.num_restarts, 1)


@dataclass(frozen=True)
class SolveReport:
    """Solution plus solve-time diagnostics for one scenario; ``chosen_pattern``
    is the binary schedule (each user's 1-based placement), ``snr_table`` the
    K x U SNR of every (user, pattern) pair at the reported phases and
    ``stages`` the anneal's :class:`Stage` records (none for a start taken
    as-is)."""

    ms1_phase: np.ndarray
    ms2_phase: np.ndarray
    per_user_snr: np.ndarray
    worst_snr: float
    chosen_pattern: np.ndarray
    snr_table: np.ndarray
    stages: tuple = ()
    origin: str = ""


@dataclass(frozen=True)
class LineSearchResult:
    step: float
    point: ProductPoint
    evaluation: Evaluation
    stalled: bool
    num_evals: int


@dataclass(frozen=True)
class Stage:
    """One inner stage at ``mu``: its end point (None in a report, whose
    anneal keeps it), its least relaxed-schedule user SNR, the objective at
    the start and after each accepted step, the counts, and whether two
    searches in a row stalled."""

    mu: float
    point: ProductPoint | None
    min_user_snr: float
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
    """Retract each factor; a one-pattern schedule (all ones, a zero tangent
    that the simplex projection maps back to ones) is kept as it is."""
    schedule = point.schedule
    if schedule.shape[1] > 1:
        schedule = retract_multinomial(schedule, direction.d_schedule, step)
    return ProductPoint(
        ms1_phase=retract_circle(point.ms1_phase, direction.d_ms1_phase, step),
        ms2_phase=retract_circle(point.ms2_phase, direction.d_ms2_phase, step),
        schedule=schedule,
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
    of the Riemannian gradient ``grad`` with the direction.  A ``ValueError``
    names ``initial_step`` unless it is positive and finite, and ``slope``
    unless it is finite and at least 0.  A retraction failure just
    backtracks further.  The search stalls, returning a zero step and the
    stalled flag, after :data:`MAX_BACKTRACKS` rejections or as soon as the
    sufficient-increase term ``ARMIJO_C1 * step * slope`` is no larger than
    the float spacing at ``value``: from there on the test compares only
    rounding noise.

    The search also stalls after its first evaluated candidate fails when
    the slope the retraction can reach is at most ``ARMIJO_C1 * slope``.
    That reach swaps the schedule block of the direction for its projection
    onto the simplex's tangent cone (floored entries may only grow), the
    one-sided derivative of the retraction at step 0+; to first order no
    smaller step can then pass.
    """
    if not (math.isfinite(initial_step) and initial_step > 0.0):
        raise ValueError(
            f"initial_step must be positive and finite, got {initial_step}"
        )
    if not (math.isfinite(slope) and slope >= 0.0):
        raise ValueError(f"slope must be finite and at least 0, got {slope}")
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
        # A one-pattern schedule never moves, so its cone test cannot fire.
        if evals == 1 and point.schedule.shape[1] > 1:
            d_sched = direction.d_schedule
            blocked = project_schedule_cone(point.schedule, d_sched) - d_sched
            if slope + _rinner(blocked, grad.d_schedule) <= ARMIJO_C1 * slope:
                break
        step *= BACKTRACK_FACTOR
    return LineSearchResult(0.0, point, current, True, evals)


def inner_solve(point: ProductPoint, mu: float, ctx: EvalContext) -> Stage:
    """Run conjugate-gradient ascent at fixed ``mu`` until the Riemannian
    gradient norm falls below tolerance, :data:`MAX_INNER_ITERS` is hit, or the
    line search stalls twice in a row.  An accepted step's gradient reuses the
    line search's evaluation, still counted as an evaluation in ``num_evals``."""
    ev = evaluate(point, mu, ctx, want_grad=True)
    rgrad = project_to_tangent(point, ev.grads)
    num_evals = 1
    # (rgrad, sq, direction, next start) of the last accepted step; a stall
    # clears it.
    last: tuple | None = None
    stalls = 0
    tiny_steps = 0
    obj_trace = [ev.value]
    iters = 0

    def surrogate(p: ProductPoint) -> Evaluation:
        return evaluate(p, mu, ctx)

    for _ in range(MAX_INNER_ITERS):
        # Squared block norms and slopes sum in block order, as inner does.
        sq = tuple(map(_rinner, rgrad, rgrad))
        direction, slope, start = rgrad, 0.0 + sq[0] + sq[1] + sq[2], INITIAL_STEP
        if math.sqrt(slope) < INNER_GRAD_TOL:
            break
        if last is not None:
            last_rgrad, last_sq, last_dir, start = last
            carried = transport(point, last_rgrad), transport(point, last_dir)
            blocks, slopes = zip(*map(_conjugate, rgrad, sq, last_sq, *carried))
            direction = TangentTriple(*blocks)
            # Each block of the direction is its gradient block or an ascent
            # direction for it, so the slope is positive at a nonzero gradient.
            slope = 0.0 + slopes[0] + slopes[1] + slopes[2]
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
        # Adaptive start: double a step that passed at its first try.
        step = result.step
        last = (rgrad, sq, direction, 2.0 * step if step == start else step)
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

    return Stage(
        mu=mu,
        point=point,
        min_user_snr=float(ev.user_snrs.min()),
        objective_trace=np.array(obj_trace),
        num_iters=iters,
        num_evals=num_evals,
        stalled=stalls >= 2,
    )


def _report_at(
    ms1_phase, ms2_phase, ctx: EvalContext, origin: str, stages=()
) -> SolveReport:
    """Report the true worst-case SNR at the given phases, each user on its
    best pattern there (ties go to the smallest index), with the stages that
    led there; no schedule for those phases does better."""
    gamma = ctx.pattern_snr_table(ms1_phase, ms2_phase)
    chosen0 = np.argmax(gamma, axis=1)
    per_user = gamma[np.arange(ctx.num_users), chosen0]
    return SolveReport(
        ms1_phase=ms1_phase,
        ms2_phase=ms2_phase,
        per_user_snr=per_user,
        worst_snr=float(per_user.min()),
        chosen_pattern=chosen0.astype(int) + 1,
        snr_table=gamma,
        stages=tuple(stages),
        origin=origin,
    )


class _Anneal:
    """One anneal from a start's phases: inner conjugate-gradient solves over
    a shrinking mu, resumable at a stage boundary.

    Its state, the solver's only one, is the current point (the schedule
    starts uniform), the next stage's ``mu`` and the :class:`Stage` records
    so far, stored without their points.  A start off the feasible set
    raises a ``ValueError``, and one with non-finite SNRs a
    :class:`NonFiniteObjectiveError`.  :meth:`run` advances it; running it
    in legs gives the same :meth:`report`, bit for bit, as running it in one.
    """

    def __init__(self, ms1_phase, ms2_phase, ctx: EvalContext, origin: str):
        uniform = np.full((ctx.num_users, ctx.num_patterns), 1.0 / ctx.num_patterns)
        self.point = ProductPoint(ms1_phase, ms2_phase, uniform)
        self.point.validate()
        snr0 = np.einsum("ku,ku->k", uniform, ctx.pattern_snr_table(ms1_phase, ms2_phase))
        if not np.all(np.isfinite(snr0)):
            raise NonFiniteObjectiveError(f"start SNRs {snr0} are not finite")
        spread = float(snr0.max() - snr0.min())
        self.mu = spread + max(1e-3 * float(np.abs(snr0).mean()), 1e-8)
        self._mu_min = MU_MIN_RATIO * self.mu
        self.ctx, self.origin = ctx, origin
        self.stages: list[Stage] = []
        self.done = False

    @property
    def stage(self) -> int:
        return len(self.stages)

    def run(self, stages: int | None = None) -> "_Anneal":
        """Advance ``stages`` more stages, or to the end when None; stop early
        once the anneal is done."""
        log_k = math.log(self.ctx.num_users)
        limit = math.inf if stages is None else self.stage + stages
        while not self.done and self.stage < limit:
            stage = inner_solve(self.point, self.mu, self.ctx)
            self.point = stage.point
            self.stages.append(replace(stage, point=None))
            self.done = (
                self.mu <= self._mu_min
                or self.mu * log_k < MU_GAP_RTOL * max(stage.min_user_snr, 1e-30)
            )
            if not self.done:
                self.mu /= DELTA
        return self

    def report(self) -> SolveReport:
        p = self.point
        return _report_at(p.ms1_phase, p.ms2_phase, self.ctx, self.origin, self.stages)


def _rank(report: SolveReport) -> float:
    """A report's rank among candidates: its true worst-case SNR, or -inf
    when that is not finite."""
    return report.worst_snr if math.isfinite(report.worst_snr) else -math.inf


def _race(anneals: list) -> list:
    """The anneals that survive the barrier: the top ``ceil(n / 2)`` by
    :func:`_rank` of their reports, ties to the earliest, plus every finished
    one; in their original order."""
    ranked = sorted(range(len(anneals)), key=lambda i: (-_rank(anneals[i].report()), i))
    keep = set(ranked[: -(-len(anneals) // 2)])
    keep.update(i for i, anneal in enumerate(anneals) if anneal.done)
    return [anneal for i, anneal in enumerate(anneals) if i in keep]


def solve(
    scenario: Scenario,
    config: SolverConfig = SolverConfig(),
    warm: tuple | None = None,
) -> SolveReport:
    """Solve one scenario and return the best report across restarts.

    Random restarts draw independent seeded phases.  ``warm`` is an optional
    ``(ms1_phase, ms2_phase)`` pair of array-likes, taken as complex and
    checked before any anneal runs (a ``ValueError`` names the warm start),
    that competes twice after the restarts: once evaluated as-is (its phases
    with each user's best pattern, no optimization) and once as the start of
    a full anneal.  The anneals race: after :data:`RACE_STAGE` stages only
    the better half runs on (see :func:`_race`).  The warm start as-is always
    competes, so a warm-started solve never reports below it.  The result is
    the candidate of highest :func:`_rank`; ties keep the earliest
    (surviving restarts, then the warm start as-is, then annealed), so
    results are seed-deterministic.
    """
    ctx = EvalContext.from_scenario(scenario)
    anneals = []
    for restart in range(config.num_restarts):
        rng = np.random.default_rng([config.rng_seed, restart])
        phases = (np.exp(2j * np.pi * rng.random(n)) for n in (ctx.num_ms1, ctx.num_ms2))
        anneals.append(_Anneal(*phases, ctx, origin=f"restart-{restart}"))
    if warm is not None:
        try:
            ms1_phase, ms2_phase = (np.asarray(phase, dtype=complex) for phase in warm)
            _check_shape("ms1_phase", ms1_phase, (ctx.num_ms1,))
            _check_shape("ms2_phase", ms2_phase, (ctx.num_ms2,))
            anneals.append(_Anneal(ms1_phase, ms2_phase, ctx, origin="warm-annealed"))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"warm start: {exc}") from exc
    survivors = _race([anneal.run(RACE_STAGE) for anneal in anneals])
    reports = [anneal.run().report() for anneal in survivors]
    if warm is not None:
        # The warm start as-is goes just before the warm anneal, last if it survived.
        at = len(reports) - (survivors[-1] is anneals[-1])
        reports.insert(at, _report_at(ms1_phase, ms2_phase, ctx, origin="warm-direct"))
    return max(reports, key=_rank)
