"""Shared builders and independent oracles for the test suite.

The oracles here deliberately avoid the production code paths: dense
selection matrices are rebuilt from element coordinates, the simplex and
tangent-cone reference projections enumerate active sets, and directional
derivatives come from central differences.
"""

from __future__ import annotations

import math

import numpy as np

from misopt import ArrayAngles, EvalContext, MisGeometry, ProductPoint, Scenario
from misopt.manifolds import SIMPLEX_FLOOR, TangentTriple


def dense_selection_oracle(geom: MisGeometry, u_row: int, u_col: int):
    """Dense selection matrix and padding vector from first principles."""
    m = geom.num_ms1
    n = geom.num_ms2
    mat = np.zeros((m, n))
    covered = set()
    for n_row in range(1, geom.n_rows + 1):
        for n_col in range(1, geom.n_cols + 1):
            n_flat = (n_row - 1) * geom.n_cols + n_col
            m_row = n_row + u_row - 1
            m_col = n_col + u_col - 1
            m_flat = (m_row - 1) * geom.m_cols + m_col
            mat[m_flat - 1, n_flat - 1] = 1.0
            covered.add(m_flat - 1)
    padding = np.array([0.0 if i in covered else 1.0 for i in range(m)])
    return mat, padding


def simplex_qp_oracle(vec: np.ndarray) -> np.ndarray:
    """Nearest simplex point by exhaustive active-set enumeration."""
    vec = np.asarray(vec, dtype=float)
    n = vec.size
    best = None
    best_dist = math.inf
    for mask in range(1, 2**n):
        free = [i for i in range(n) if (mask >> i) & 1]
        shift = (1.0 - vec[free].sum()) / len(free)
        x = np.zeros(n)
        x[free] = vec[free] + shift
        if x[free].min() < -1e-12:
            continue
        x = np.maximum(x, 0.0)
        dist = float(np.sum((x - vec) ** 2))
        if dist < best_dist:
            best_dist = dist
            best = x
    return best


def schedule_cone_oracle(schedule: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Row-wise nearest zero-sum move whose floor entries do not shrink.

    Enumerates which floor entries are pinned at zero; the rest share one
    shift, and the nearest feasible candidate wins.
    """
    floor = np.asarray(schedule) <= 2.0 * SIMPLEX_FLOOR
    out = np.empty_like(np.asarray(mat, dtype=float))
    for row, (vec, on_floor) in enumerate(zip(np.asarray(mat, float), floor)):
        floor_idx = np.flatnonzero(on_floor)
        best_dist = math.inf
        for mask in range(2 ** floor_idx.size):
            pinned = [int(i) for b, i in enumerate(floor_idx) if (mask >> b) & 1]
            moving = [i for i in range(vec.size) if i not in pinned]
            x = np.zeros(vec.size)
            x[moving] = vec[moving] - vec[moving].mean()
            if np.any(x[floor_idx] < -1e-12):
                continue
            dist = float(np.sum((x - vec) ** 2))
            if dist < best_dist:
                best_dist = dist
                out[row] = x
    return out


def random_geometry(rng, max_m: int = 16, max_n: int = 4) -> MisGeometry:
    while True:
        m_rows = int(rng.integers(1, 5))
        m_cols = int(rng.integers(1, 5))
        if m_rows * m_cols <= max_m:
            break
    n_rows = int(rng.integers(1, m_rows + 1))
    n_cols = int(rng.integers(1, m_cols + 1))
    while n_rows * n_cols > max_n:
        if n_rows > 1:
            n_rows -= 1
        else:
            n_cols -= 1
    return MisGeometry(m_rows, m_cols, n_rows, n_cols)


def random_scenario(rng, geom: MisGeometry | None = None, max_users: int = 4) -> Scenario:
    if geom is None:
        geom = random_geometry(rng)
    num_users = int(rng.integers(1, max_users + 1))
    users = [
        (
            ArrayAngles(
                float(rng.uniform(-math.pi, math.pi)),
                float(rng.uniform(0.0, math.pi / 2)),
            ),
            float(rng.uniform(0.005, 0.05)),
        )
        for _ in range(num_users)
    ]
    arrival = ArrayAngles(
        float(rng.uniform(-math.pi, math.pi)), float(rng.uniform(0.0, math.pi / 2))
    )
    return Scenario(geom=geom, mis_arrival=arrival, users=users)


def random_point(rng, ctx: EvalContext) -> ProductPoint:
    raw = rng.random((ctx.num_users, ctx.num_patterns)) + 0.05
    return ProductPoint(
        ms1_phase=np.exp(2j * np.pi * rng.random(ctx.num_ms1)),
        ms2_phase=np.exp(2j * np.pi * rng.random(ctx.num_ms2)),
        schedule=raw / raw.sum(axis=1, keepdims=True),
    )


def random_instance(rng, max_m: int = 16, max_n: int = 4, max_users: int = 4):
    scenario = random_scenario(rng, random_geometry(rng, max_m, max_n), max_users)
    ctx = EvalContext.from_scenario(scenario)
    return scenario.geom, scenario, ctx, random_point(rng, ctx)


def random_ambient_triple(rng, point: ProductPoint) -> TangentTriple:
    m = point.ms1_phase.size
    n = point.ms2_phase.size
    return TangentTriple(
        d_ms1_phase=rng.standard_normal(m) + 1j * rng.standard_normal(m),
        d_ms2_phase=rng.standard_normal(n) + 1j * rng.standard_normal(n),
        d_schedule=rng.standard_normal(point.schedule.shape),
    )
