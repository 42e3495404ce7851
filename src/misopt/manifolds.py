"""Primitives for the product of two complex-circle factors and a multinomial factor.

Phase vectors live on per-entry unit circles; the schedule matrix lives on
the strictly positive row simplex.  Each factor gets a tangent projection, a
retraction, and a vector transport; the schedule factor is flat, so its
transport is the identity.  The simplex retraction projects each row with
the sort-and-threshold algorithm and then floors entries at a small epsilon
to keep the softmin weights and gradients finite.  ``project_schedule_cone``
gives the one-sided derivative of that retraction at step 0+: the projection
onto the tangent cone of the simplex, in which entries on the floor may only
grow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "RetractionError",
    "TangentTriple",
    "project_circle_tangent",
    "project_multinomial_tangent",
    "project_schedule_cone",
    "project_to_tangent",
    "retract_circle",
    "project_simplex",
    "retract_multinomial",
    "transport",
    "grad_norm",
]

SIMPLEX_FLOOR = 1e-12


class RetractionError(ValueError):
    """A retraction hit a point it cannot normalize (entry collapsed to zero)."""


@dataclass(frozen=True)
class TangentTriple:
    """Tangent vector of the product manifold, one block per factor."""

    d_ms1_phase: np.ndarray
    d_ms2_phase: np.ndarray
    d_schedule: np.ndarray


def project_circle_tangent(base: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Remove the radial component of ``vec`` at each entry of a unit-modulus base."""
    base = np.asarray(base)
    vec = np.asarray(vec)
    if base.shape != vec.shape:
        raise ValueError(f"shape mismatch: {base.shape} vs {vec.shape}")
    return vec - np.real(vec * np.conj(base)) * base


def project_multinomial_tangent(mat: np.ndarray) -> np.ndarray:
    """Subtract each row's mean so every row sums to zero."""
    mat = np.asarray(mat, dtype=float)
    return mat - mat.mean(axis=1, keepdims=True)


def project_schedule_cone(schedule: np.ndarray, mat: np.ndarray) -> np.ndarray:
    """Project each row of ``mat`` onto the moves a small step from ``schedule`` can make.

    The moves are the tangent cone of the simplex: each row sums to zero and
    an entry on the floor (at most ``2 * SIMPLEX_FLOOR``, since renormalising
    leaves floored entries slightly off it) may only grow.  This is the
    one-sided derivative of :func:`retract_multinomial` at step 0+.  Free
    entries always share the row's shift; floor entries join them in
    descending order while they are above the running mean, and the rest
    are clipped to zero.  Every row of ``schedule`` needs one free entry,
    which holds on the simplex.
    """
    schedule = np.asarray(schedule, dtype=float)
    mat = np.asarray(mat, dtype=float)
    pinned = schedule <= 2.0 * SIMPLEX_FLOOR
    free_count = mat.shape[1] - pinned.sum(axis=1)
    free_sum = np.where(pinned, 0.0, mat).sum(axis=1)
    desc = np.sort(np.where(pinned, mat, -np.inf), axis=1)[:, ::-1]
    # Running means as floor entries join in descending order: they rise
    # while each newcomer is above the mean and fall from the first one that
    # is not, so the shift is the largest of them.
    means = (free_sum[:, None] + np.cumsum(desc, axis=1)) / (
        free_count[:, None] + np.arange(1, mat.shape[1] + 1)
    )
    shift = np.maximum(free_sum / free_count, means.max(axis=1))
    out = mat - shift[:, None]
    return np.where(pinned, np.maximum(out, 0.0), out)


def project_to_tangent(point, euclidean_grads: tuple) -> TangentTriple:
    """Project a Euclidean gradient triple onto the tangent space at ``point``."""
    g_ms1, g_ms2, g_sched = euclidean_grads
    return TangentTriple(
        d_ms1_phase=project_circle_tangent(point.ms1_phase, g_ms1),
        d_ms2_phase=project_circle_tangent(point.ms2_phase, g_ms2),
        d_schedule=project_multinomial_tangent(g_sched),
    )


def retract_circle(base: np.ndarray, tangent: np.ndarray, step: float) -> np.ndarray:
    """Move along ``tangent`` and renormalize each entry back to the unit circle."""
    moved = base + step * tangent
    magnitude = np.abs(moved)
    if np.any(magnitude < 1e-14):
        raise RetractionError("an entry collapsed to zero during retraction")
    return moved / magnitude

def _project_simplex_rows(mat: np.ndarray, floor: float) -> np.ndarray:
    desc = -np.sort(-mat, axis=1)
    csum = np.cumsum(desc, axis=1)
    ranks = np.arange(1, mat.shape[1] + 1)
    positive = desc - (csum - 1.0) / ranks > 0.0
    # Index of the last positive gap per row; the first is always positive.
    last = mat.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    threshold = (csum[np.arange(mat.shape[0]), last] - 1.0) / (last + 1)
    out = np.maximum(mat - threshold[:, None], 0.0)
    out = np.maximum(out, floor)
    return out / out.sum(axis=1, keepdims=True)


def project_simplex(vec: np.ndarray, floor: float = SIMPLEX_FLOOR) -> np.ndarray:
    """Euclidean projection onto the probability simplex, kept strictly positive.

    Sort-and-threshold projection followed by an epsilon floor and a
    renormalization, so the output always has positive entries summing to one.
    """
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise ValueError("project_simplex expects a 1-D vector")
    return _project_simplex_rows(vec[None, :], floor)[0]


def retract_multinomial(
    mat: np.ndarray, tangent: np.ndarray, step: float, floor: float = SIMPLEX_FLOOR
) -> np.ndarray:
    """Move along ``tangent`` and project every row back onto the simplex."""
    return _project_simplex_rows(np.asarray(mat, float) + step * tangent, floor)


def transport(kind: str, new_base: np.ndarray, tangent: np.ndarray) -> np.ndarray:
    """Carry a tangent vector to the tangent space at ``new_base``.

    Circle factors re-project; the multinomial factor is flat and transports
    by identity.
    """
    if kind == "circle":
        return project_circle_tangent(new_base, tangent)
    if kind == "multinomial":
        return tangent
    raise ValueError(f"unknown manifold kind {kind!r}")


def grad_norm(triple: TangentTriple) -> float:
    """Product-manifold norm: root of the summed squared factor norms."""
    total = 0.0
    for block in (triple.d_ms1_phase, triple.d_ms2_phase, triple.d_schedule):
        total += float(np.real(np.vdot(block, block)))
    return float(np.sqrt(total))
