"""Ground truth: exhaustive lattice search, finite differences, the full
matrix signal model, and first-principles reference operators.

``brute_force_solve`` enumerates both phase vectors over a uniform phase
lattice and assigns every user its best pattern, which is the exact schedule
optimum because users are scheduled independently.  It scores each point
with the solver's own SNR table, so it checks the search and not the signal
model.  ``fd_directional`` is a plain central difference used to audit
analytic gradients; complex blocks are perturbed directly in the ambient
space, where the objective remains a polynomial and needs no feasibility.
``snr_full_path`` rebuilds a user's SNR from the explicit
base-station-to-surface matrix model, independent of the cascaded form the
SNR table uses.  ``dense_selection_oracle`` (from element coordinates) and
``simplex_qp_oracle`` (by active-set enumeration) avoid the production code
paths; the tests and the CLI check suites share them.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .channel import BROADSIDE, ArrayAngles, Scenario, upa_steering
from .geometry import MisGeometry, _require_int
from .objective import EvalContext, ProductPoint

__all__ = [
    "BruteForceResult",
    "brute_force_solve",
    "fd_directional",
    "snr_full_path",
    "dense_selection_oracle",
    "simplex_qp_oracle",
]


# The largest nominal enumeration size brute_force_solve accepts.
MAX_SEARCH_SPACE = 50_000_000


@dataclass(frozen=True)
class BruteForceResult:
    """Exact lattice optimum: value, phase vectors, and per-user pattern (1-based)."""

    value: float
    ms1_phase: np.ndarray
    ms2_phase: np.ndarray
    chosen_pattern: np.ndarray


def brute_force_solve(scenario: Scenario, phase_levels: int = 16) -> BruteForceResult:
    """Exhaustive max-min SNR over a lattice of ``phase_levels`` phases.

    Every lattice point (MS 2 phases outer, MS 1 phases inner) is scored
    through :meth:`EvalContext.pattern_snr_table`, so the value and the
    chosen patterns come from one table; the first best point wins.  The
    lattice contains zero, so the identity profile is always a candidate.
    Rejects a level count that is not an integer of at least two, and
    instances whose nominal enumeration size ``levels**(M+N) * U**K``
    exceeds :data:`MAX_SEARCH_SPACE`.
    """
    _require_int("phase_levels", phase_levels, 1)
    if phase_levels < 2:
        raise ValueError("phase_levels must be >= 2")
    ctx = EvalContext.from_scenario(scenario)
    m, n = ctx.num_ms1, ctx.num_ms2
    nominal = phase_levels ** (m + n) * ctx.num_patterns**ctx.num_users
    if nominal > MAX_SEARCH_SPACE:
        raise ValueError(f"enumeration size {nominal} exceeds cap {MAX_SEARCH_SPACE}")

    lattice = np.exp(1j * (2.0 * np.pi * np.arange(phase_levels) / phase_levels))
    best_value, best = -np.inf, None
    for ms2 in map(np.array, itertools.product(lattice, repeat=n)):
        for ms1 in map(np.array, itertools.product(lattice, repeat=m)):
            table = ctx.pattern_snr_table(ms1, ms2)
            value = float(table.max(axis=1).min())
            if value > best_value:
                best_value, best = value, (ms1, ms2, table)
    ms1, ms2, table = best
    return BruteForceResult(
        value=best_value,
        ms1_phase=ms1,
        ms2_phase=ms2,
        chosen_pattern=np.argmax(table, axis=1) + 1,
    )


def _shifted(point: ProductPoint, direction, scale: float) -> ProductPoint:
    return ProductPoint(
        ms1_phase=point.ms1_phase + scale * direction.d_ms1_phase,
        ms2_phase=point.ms2_phase + scale * direction.d_ms2_phase,
        schedule=point.schedule + scale * direction.d_schedule,
    )


def fd_directional(objective, point: ProductPoint, direction, step: float) -> float:
    """Central-difference directional derivative of ``objective`` at ``point``.

    ``direction`` is an ambient triple (complex blocks perturb real and
    imaginary parts together); the matching analytic prediction for a
    gradient ``g`` is ``Re(g^H d)`` per complex block plus the Frobenius
    pairing for the schedule block.
    """
    if not step > 0:
        raise ValueError("step must be positive")
    upper = objective(_shifted(point, direction, +step))
    lower = objective(_shifted(point, direction, -step))
    return (upper - lower) / (2.0 * step)


def snr_full_path(
    ms1_phase: np.ndarray,
    equiv_ms2_phase: np.ndarray,
    scenario: Scenario,
    user_index: int,
    bs_angles: ArrayAngles = BROADSIDE,
    *,
    bs_rows: int = 1,
    bs_cols: int = 1,
) -> float:
    """SNR via the explicit matrix model, as an independent check of the
    cascaded form ``iota * |sum_m c[k, m] * phi[m] * equiv[m]|^2``.

    Builds the rank-one channel ``G`` from a ``bs_rows x bs_cols`` base
    station to the surface from both steering vectors, applies the
    maximum-ratio beamformer, and scales by the noise power implied by the
    user's ``iota``.  The result is independent of the BS departure angles,
    because only the BS antenna count ``L`` survives the beamforming norm,
    and ``iota = P_max * L / sigma^2`` already holds that count.
    """
    geom = scenario.geom
    if not 0 <= user_index < scenario.num_users:
        raise IndexError(f"user index {user_index} out of range")
    angles, iota = scenario.users[user_index]
    phi = np.asarray(ms1_phase)
    equiv = np.asarray(equiv_ms2_phase)
    if phi.shape != (geom.num_ms1,) or equiv.shape != (geom.num_ms1,):
        raise ValueError("phase vectors must match the fixed-layer element count")

    a_mis = upa_steering(geom.m_rows, geom.m_cols, scenario.mis_arrival)
    a_bs = upa_steering(bs_rows, bs_cols, bs_angles)
    bs_to_surface = np.outer(a_mis, a_bs)
    h_user = upa_steering(geom.m_rows, geom.m_cols, angles)

    effective_row = (h_user * equiv * phi) @ bs_to_surface
    row_norm = np.linalg.norm(effective_row)
    if row_norm == 0.0:
        return 0.0
    # Unit transmit power; noise chosen so P_max * L / sigma^2 equals iota.
    p_max = 1.0
    sigma2 = bs_rows * bs_cols * p_max / iota
    beamformer = math.sqrt(p_max) * effective_row.conj() / row_norm
    received = effective_row @ beamformer
    return float(np.abs(received) ** 2 / sigma2)


def dense_selection_oracle(geom: MisGeometry, pattern: int):
    """Dense selection matrix (M x N, 0/1) and padding vector (length M) of the
    placement with 1-based flat index ``pattern``, from element coordinates.

    MS 2 element ``(n_row, n_col)`` covers MS 1 element ``(n_row + u_row - 1,
    n_col + u_col - 1)``; the padding marks uncovered MS 1 elements, so
    ``dense @ theta + padding`` is the placement's equivalent MS 2 phase.
    """
    u_row, u_col = divmod(pattern - 1, geom.m_cols - geom.n_cols + 1)  # 0-based
    mat = np.zeros((geom.num_ms1, geom.num_ms2))
    for n_row in range(geom.n_rows):
        for n_col in range(geom.n_cols):
            m_flat = (n_row + u_row) * geom.m_cols + (n_col + u_col)
            mat[m_flat, n_row * geom.n_cols + n_col] = 1.0
    return mat, (mat.sum(axis=1) == 0).astype(float)


def simplex_qp_oracle(vec: np.ndarray) -> np.ndarray:
    """Nearest simplex point by exhaustive active-set enumeration (small sizes only)."""
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
