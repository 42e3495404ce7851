"""Primitives for the product of two complex-circle factors and a multinomial factor.

Phase vectors live on per-entry unit circles; the schedule matrix lives on
the strictly positive row simplex.  Each factor gets a tangent projection
and a retraction.  A :class:`TangentTriple` holds one block per factor, and
the product operations act on whole triples: :func:`transport` (the circle
blocks re-project, the flat schedule block passes through), the product
metric :func:`inner` and its :func:`grad_norm`.  The simplex retraction
projects each row with the sort-and-threshold algorithm and then floors
entries at a small epsilon to keep the softmin weights and gradients
finite.  ``project_schedule_cone`` gives the one-sided derivative of that
retraction at step 0+: the projection onto the tangent cone of the simplex,
in which entries on the floor may only grow.
"""

from __future__ import annotations

import functools
import math
from typing import NamedTuple

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
    "inner",
    "grad_norm",
]

SIMPLEX_FLOOR = 1e-12


@functools.lru_cache(maxsize=64)
def _row_tables(rows: int, cols: int) -> tuple:
    """Read-only index tables of a C-ordered ``rows x cols`` array: the entry
    count ``1, ..., cols`` of each row prefix, and each row's first flat index."""
    tables = np.arange(1, cols + 1), np.arange(0, rows * cols, cols)
    for table in tables:
        table.setflags(write=False)
    return tables


class RetractionError(ValueError):
    """A retraction hit a point it cannot normalize (entry collapsed to zero)."""


class TangentTriple(NamedTuple):
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
    return _circle_tangent(base, vec)


def _circle_tangent(base: np.ndarray, vec: np.ndarray) -> np.ndarray:
    return vec - (vec * base.conj()).real * base


def project_multinomial_tangent(mat: np.ndarray) -> np.ndarray:
    """Subtract each row's mean so every row sums to zero."""
    mat = np.asarray(mat, dtype=float)
    return mat - np.add.reduce(mat, axis=1, keepdims=True) / mat.shape[1]


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
    free_count = mat.shape[1] - np.add.reduce(pinned, axis=1)
    free_sum = np.add.reduce(np.where(pinned, 0.0, mat), axis=1)
    desc = np.where(pinned, mat, -np.inf)
    desc.sort(axis=1)
    # Running means as floor entries join in descending order: they rise
    # while each newcomer is above the mean and fall from the first one that
    # is not, so the shift is the largest of them.
    means = (free_sum[:, None] + np.add.accumulate(desc[:, ::-1], axis=1)) / (
        free_count[:, None] + _row_tables(*mat.shape)[0]
    )
    shift = np.maximum(free_sum / free_count, np.maximum.reduce(means, axis=1))
    out = mat - shift[:, None]
    return np.where(pinned, np.maximum(out, 0.0), out)


def project_to_tangent(point, euclidean_grads: tuple) -> TangentTriple:
    """Project a Euclidean gradient triple onto the tangent space at ``point``."""
    g_ms1, g_ms2, g_sched = euclidean_grads
    return TangentTriple(
        d_ms1_phase=_circle_tangent(point.ms1_phase, g_ms1),
        d_ms2_phase=_circle_tangent(point.ms2_phase, g_ms2),
        d_schedule=project_multinomial_tangent(g_sched),
    )


def retract_circle(base: np.ndarray, tangent: np.ndarray, step: float) -> np.ndarray:
    """Move along ``tangent`` and renormalize each entry back to the unit circle."""
    moved = base + step * tangent
    magnitude = np.abs(moved)
    if np.minimum.reduce(magnitude) < 1e-14:
        raise RetractionError("an entry collapsed to zero during retraction")
    return moved / magnitude


def project_simplex(mat: np.ndarray) -> np.ndarray:
    """Euclidean projection of each row onto the probability simplex, kept
    strictly positive.

    Sort-and-threshold projection followed by a floor at ``SIMPLEX_FLOOR``
    and a renormalization, so every row has positive entries summing to one.
    """
    mat = np.asarray(mat, dtype=float)
    if mat.ndim != 2:
        raise ValueError("project_simplex expects a matrix, one simplex per row")
    ranks, row_starts = _row_tables(*mat.shape)
    desc = mat.copy()
    desc.sort(axis=1)
    desc = desc[:, ::-1]
    csum = np.add.accumulate(desc, axis=1)
    positive = desc - (csum - 1.0) / ranks > 0.0
    # Index of the last positive gap per row; the first is always positive.
    last = mat.shape[1] - 1 - positive[:, ::-1].argmax(axis=1)
    threshold = (csum.take(row_starts + last) - 1.0) / (last + 1)
    out = np.maximum(mat - threshold[:, None], SIMPLEX_FLOOR)
    out /= np.add.reduce(out, axis=1, keepdims=True)
    return out


def retract_multinomial(mat: np.ndarray, tangent: np.ndarray, step: float) -> np.ndarray:
    """Move along ``tangent`` and project every row back onto the simplex."""
    return project_simplex(mat + step * tangent)


def transport(point, triple: TangentTriple) -> TangentTriple:
    """Carry a tangent triple to the tangent space at ``point``.

    The circle blocks re-project; the multinomial factor is flat and
    transports by identity.
    """
    return TangentTriple(
        _circle_tangent(point.ms1_phase, triple.d_ms1_phase),
        _circle_tangent(point.ms2_phase, triple.d_ms2_phase),
        triple.d_schedule,
    )


def inner(a: TangentTriple, b: TangentTriple) -> float:
    """Product metric: the real inner products of the blocks (Re of the
    Hermitian product for the phase blocks), summed in block order."""
    total = 0.0
    for x, y in zip(a, b):
        total += float(np.vdot(x, y).real)
    return total


def grad_norm(triple: TangentTriple) -> float:
    """Product-manifold norm: root of the summed squared block norms."""
    return math.sqrt(inner(triple, triple))
