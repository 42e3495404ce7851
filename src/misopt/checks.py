"""Random instances and the checks behind ``selftest``, ``oracle-check``
and acceptance criteria 1-5.

Each check returns a named pass/fail record with a short detail string; the
CLI suites and the acceptance tests call the same function, each with its
own seed and count.  The references of :mod:`misopt.oracle` rebuild
what they check from first principles, except that brute force scores its
lattice with the solver's own SNR table and so checks only the search;
criterion 3 checks that table against the matrix model.  The ``random_*``
builders generate the test suite's instances too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .channel import ArrayAngles, Scenario
from .experiments import ArcScenarioSpec, build_arc_scenario
from .geometry import MisGeometry, all_selections
from .manifolds import (
    TangentTriple,
    project_circle_tangent,
    project_multinomial_tangent,
    project_simplex,
    retract_circle,
    retract_multinomial,
)
from .objective import EvalContext, ProductPoint, evaluate
from .oracle import (
    brute_force_solve,
    dense_selection_oracle,
    fd_directional,
    simplex_qp_oracle,
    snr_full_path,
)
from .solver import SolverConfig, solve

__all__ = [
    "CheckResult",
    "random_geometry",
    "random_scenario",
    "random_point",
    "random_instance",
    "random_ambient_triple",
    "check_geometry",
    "check_gradients",
    "check_softmin_sandwich",
    "check_model_equivalence",
    "check_manifold_primitives",
    "check_oracle_optimality",
    "run_selftest",
    "run_oracle_check",
]

GEOMETRY_GRID = (
    (2, 1, 1, 1), (3, 3, 2, 2), (4, 2, 2, 2), (4, 3, 2, 2), (8, 8, 6, 6), (1, 6, 1, 3)
)
# Size caps of the random instances: movable-layer elements and users.
MAX_N, MAX_USERS = 4, 4


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one check; ``reports`` holds any solve reports it produced."""

    name: str
    passed: bool
    detail: str
    reports: tuple = ()


def _random_angles(rng) -> ArrayAngles:
    return ArrayAngles(
        float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.0, math.pi / 2))
    )


def random_geometry(rng) -> MisGeometry:
    """Fixed layer up to 4x4; movable layer shrunk to at most :data:`MAX_N`
    elements."""
    m_rows = int(rng.integers(1, 5))
    m_cols = int(rng.integers(1, 5))
    n_rows = int(rng.integers(1, m_rows + 1))
    n_cols = int(rng.integers(1, m_cols + 1))
    while n_rows * n_cols > MAX_N:
        if n_rows > 1:
            n_rows -= 1
        else:
            n_cols -= 1
    return MisGeometry(m_rows, m_cols, n_rows, n_cols)


def random_scenario(rng, geom: MisGeometry | None = None) -> Scenario:
    """Up to MAX_USERS users at random angles and SNR scales in [0.005, 0.05]."""
    if geom is None:
        geom = random_geometry(rng)
    num_users = int(rng.integers(1, MAX_USERS + 1))
    users = [
        (_random_angles(rng), float(rng.uniform(0.005, 0.05)))
        for _ in range(num_users)
    ]
    return Scenario(geom=geom, mis_arrival=_random_angles(rng), users=users)


def random_point(rng, ctx: EvalContext) -> ProductPoint:
    """Random unit phases and a random interior schedule."""
    raw = rng.random((ctx.num_users, ctx.num_patterns)) + 0.05
    return ProductPoint(
        ms1_phase=np.exp(2j * np.pi * rng.random(ctx.num_ms1)),
        ms2_phase=np.exp(2j * np.pi * rng.random(ctx.num_ms2)),
        schedule=raw / raw.sum(axis=1, keepdims=True),
    )


def random_instance(rng):
    """Random geometry, scenario, context and feasible point."""
    scenario = random_scenario(rng)
    ctx = EvalContext.from_scenario(scenario)
    return scenario.geom, scenario, ctx, random_point(rng, ctx)


def random_ambient_triple(rng, point: ProductPoint) -> TangentTriple:
    """Unconstrained Gaussian direction in the ambient space of ``point``."""
    m = point.ms1_phase.size
    n = point.ms2_phase.size
    return TangentTriple(
        d_ms1_phase=rng.standard_normal(m) + 1j * rng.standard_normal(m),
        d_ms2_phase=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        d_schedule=rng.standard_normal(point.schedule.shape),
    )


def check_geometry(seed: int) -> CheckResult:
    """Placement table and equivalent phases against the dense selection oracle,
    exactly: each table row rebuilds the oracle's matrix, is injective and
    tiles the fixed layer with the padding, and ``equiv_phases`` equals
    ``dense @ theta + padding``; the table is read-only, U x N and covers MS 1."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for dims in GEOMETRY_GRID:
        geom = MisGeometry(*dims)
        table = all_selections(geom)
        if table.flags.writeable:
            return CheckResult("geometry", False, f"{dims}: table is writeable")
        if table.shape != (geom.num_patterns, geom.num_ms2):
            return CheckResult("geometry", False, f"{dims}: table shape {table.shape}")
        if set(table.ravel().tolist()) != set(range(geom.num_ms1)):
            return CheckResult("geometry", False, f"placements do not cover {dims}")
        ctx = EvalContext.from_scenario(random_scenario(rng, geom))
        theta = np.exp(2j * np.pi * rng.random(geom.num_ms2))
        equiv = ctx.equiv_phases(theta)
        for u in range(geom.num_patterns):
            dense, padding = dense_selection_oracle(geom, u + 1)
            mat = np.zeros_like(dense)
            mat[table[u], np.arange(geom.num_ms2)] = 1.0
            worst = max(
                worst,
                float(np.abs(mat - dense).max()),
                float(np.abs(mat.T @ mat - np.eye(geom.num_ms2)).max()),
                float(np.abs(mat.sum(axis=1) + padding - 1.0).max()),
                float(np.abs(equiv[u] - (dense @ theta + padding)).max()),
            )
    return CheckResult("geometry", worst == 0.0, f"max residual {worst:.2e}")


def check_gradients(seed: int, instances: int) -> CheckResult:
    """Criterion 1: each analytic gradient block against a central difference
    (step 1e-6) along a random ambient direction; max relative error < 1e-5."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        _, _, ctx, point = random_instance(rng)
        snr_scale = float(evaluate(point, 1.0, ctx).user_snrs.mean())
        mu = max(0.2 * snr_scale, 1e-3)
        grads = evaluate(point, mu, ctx, want_grad=True).grads
        direction = random_ambient_triple(rng, point)
        parts = (direction.d_ms1_phase, direction.d_ms2_phase, direction.d_schedule)
        for i, grad in enumerate(grads):
            only = [d if j == i else np.zeros_like(d) for j, d in enumerate(parts)]
            predicted = float(np.real(np.vdot(grad, parts[i])))
            measured = fd_directional(
                lambda p: evaluate(p, mu, ctx).value, point, TangentTriple(*only), 1e-6
            )
            scale = max(abs(measured), abs(predicted), 1e-9)
            worst = max(worst, abs(measured - predicted) / scale)
    detail = f"finite differences match gradients, max rel err {worst:.2e}"
    return CheckResult("gradient-fd", worst < 1e-5, detail)


def check_softmin_sandwich(seed: int, instances: int) -> CheckResult:
    """Criterion 2: ``min_k g_k - mu log K <= f_mu <= min_k g_k`` for mu drawn
    from [1e-3, 2]; max relative violation < 1e-12."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        _, _, ctx, point = random_instance(rng)
        mu = float(rng.uniform(1e-3, 2.0))
        ev = evaluate(point, mu, ctx)
        gmin = float(ev.user_snrs.min())
        hi = ev.value + mu * math.log(ctx.num_users)
        scale = max(abs(gmin), 1.0)
        worst = max(worst, (ev.value - gmin) / scale, (gmin - hi) / scale)
    detail = f"softmin sandwich holds, max violation {worst:.2e}"
    return CheckResult("softmin-sandwich", worst < 1e-12, detail)


def check_model_equivalence(seed: int, instances: int) -> CheckResult:
    """Criterion 3: every entry of the solver's SNR table against
    :func:`snr_full_path`, fed the oracle's equivalent phase, a random base
    station of up to 3x3 antennas and random departure angles; max relative
    error < 1e-10."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        geom, scenario, ctx, point = random_instance(rng)
        bs = {"bs_rows": int(rng.integers(1, 4)), "bs_cols": int(rng.integers(1, 4))}
        bs_angles = _random_angles(rng)
        table = ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
        for u in range(ctx.num_patterns):
            dense, padding = dense_selection_oracle(geom, u + 1)
            equiv = dense @ point.ms2_phase + padding
            for k in range(ctx.num_users):
                full = snr_full_path(
                    point.ms1_phase, equiv, scenario, k, bs_angles, **bs
                )
                direct = float(table[k, u])
                worst = max(worst, abs(direct - full) / max(abs(direct), 1e-12))
    detail = f"matrix model equals the SNR table, max rel err {worst:.2e}"
    return CheckResult("model-equivalence", worst < 1e-10, detail)


def check_manifold_primitives(seed: int, trials: int) -> CheckResult:
    """Criterion 4: ``trials`` rounds of circle and multinomial tangency and
    idempotence (residual < 1e-14), ``4 * trials`` simplex projections against
    the active-set QP oracle (gap < 1e-10), and ``trials`` retractions (circle
    step 0.5, simplex step 1.0 along twice a Gaussian direction); projected
    and retracted points stay feasible to 1e-12 and strictly positive."""
    rng = np.random.default_rng(seed)
    tangency = simplex = feasibility = 0.0
    positive = True
    for _ in range(trials):
        base = np.exp(2j * np.pi * rng.random(9))
        tang = project_circle_tangent(
            base, rng.standard_normal(9) + 1j * rng.standard_normal(9)
        )
        tmat = project_multinomial_tangent(rng.standard_normal((4, 5)))
        tangency = max(
            tangency,
            float(np.max(np.abs(np.real(tang * np.conj(base))))),
            float(np.max(np.abs(project_circle_tangent(base, tang) - tang))),
            float(np.max(np.abs(tmat.sum(axis=1)))),
            float(np.max(np.abs(project_multinomial_tangent(tmat) - tmat))),
        )
    for _ in range(4 * trials):
        size = int(rng.integers(1, 5))
        vec = rng.standard_normal(size) * float(rng.uniform(0.3, 4.0))
        ours = project_simplex(vec[None, :])[0]
        positive &= bool(ours.min() > 0.0)
        feasibility = max(feasibility, abs(float(ours.sum()) - 1.0))
        simplex = max(simplex, float(np.max(np.abs(ours - simplex_qp_oracle(vec)))))
    for _ in range(trials):
        base = np.exp(2j * np.pi * rng.random(6))
        tang = project_circle_tangent(
            base, rng.standard_normal(6) + 1j * rng.standard_normal(6)
        )
        mat = rng.random((3, 4)) + 0.05
        mat /= mat.sum(axis=1, keepdims=True)
        step = project_multinomial_tangent(rng.standard_normal((3, 4)) * 2.0)
        moved = retract_multinomial(mat, step, 1.0)
        positive &= bool(moved.min() > 0.0)
        feasibility = max(
            feasibility,
            float(np.max(np.abs(np.abs(retract_circle(base, tang, 0.5)) - 1.0))),
            float(np.max(np.abs(moved.sum(axis=1) - 1.0))),
        )
    passed = tangency < 1e-14 and simplex < 1e-10 and feasibility < 1e-12 and positive
    detail = (
        f"projections/retractions exact (tangency {tangency:.1e}, simplex vs QP "
        f"{simplex:.1e}, feasibility {feasibility:.1e}, positive {positive})"
    )
    return CheckResult("manifold-primitives", passed, detail)


def check_oracle_optimality(seed: int) -> CheckResult:
    """Criterion 5: the solver (8 restarts) reaches at least 0.95 of the
    16-level brute-force optimum on the default arc's two-user, two-pattern
    instance."""
    scenario = build_arc_scenario(ArcScenarioSpec(MisGeometry(2, 1, 1, 1), 2))
    reference = brute_force_solve(scenario, phase_levels=16)
    report = solve(scenario, SolverConfig(rng_seed=seed, num_restarts=8))
    ratio = report.worst_snr / reference.value
    detail = f"solver reaches {ratio:.4f} of the 16-level brute-force optimum"
    return CheckResult("oracle-optimality", ratio >= 0.95, detail, (report,))


def run_selftest(seed: int = 0) -> list[CheckResult]:
    """Fast invariant suite across all modules."""
    return [
        check_geometry(seed),
        check_manifold_primitives(seed + 1, trials=25),
        check_softmin_sandwich(seed + 4, instances=50),
        check_model_equivalence(seed + 5, instances=25),
    ]


def run_oracle_check(seed: int = 0) -> list[CheckResult]:
    """Ground-truth suite: finite-difference gradients and brute-force optimality."""
    return [check_gradients(seed + 10, instances=20), check_oracle_optimality(seed)]
