"""Shift-position combinatorics for two stacked metasurfaces.

A large fixed surface (MS 1, ``m_rows x m_cols`` elements) carries a smaller
movable surface (MS 2, ``n_rows x n_cols``) that slides across it in whole
element steps.  Each admissible placement overlays every MS 2 element on
exactly one MS 1 element and synthesizes one beam pattern; uncovered MS 1
elements act as zero-phase MS 2 elements.  The whole placement decision is
one U x N index table, :func:`all_selections`: the MS 1 element each MS 2
element covers, per placement.

Placement ``(u_row, u_col)`` (1-based unit shifts) has the flat index
``u = (u_row - 1) * u_cols + u_col``, ``u_cols = m_cols - n_cols + 1``;
elements are numbered row-major on each layer's grid, and stored arrays hold
0-based offsets.  A 1x64 layer over a 1x36 one has 64 - 36 + 1 = 29 placements.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

__all__ = ["MisGeometry", "all_selections"]


def _require_real(name: str, value) -> None:
    """Raise a ``ValueError`` naming ``name`` unless ``value`` is a non-bool real."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")


@dataclass(frozen=True)
class MisGeometry:
    """Element counts of both layers plus the shared element pitch (d / lambda)."""

    m_rows: int
    m_cols: int
    n_rows: int
    n_cols: int
    spacing_over_lambda: float = 0.5

    def __post_init__(self):
        for name in ("m_rows", "m_cols", "n_rows", "n_cols"):
            value = getattr(self, name)
            integer = isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            if not integer or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.n_rows > self.m_rows or self.n_cols > self.m_cols:
            raise ValueError(
                f"movable layer {self.n_rows}x{self.n_cols} does not fit inside "
                f"fixed layer {self.m_rows}x{self.m_cols}"
            )
        _require_real("spacing_over_lambda", self.spacing_over_lambda)
        if not 0 < self.spacing_over_lambda < math.inf:
            raise ValueError("spacing_over_lambda must be positive and finite")

    @property
    def num_ms1(self) -> int:
        return self.m_rows * self.m_cols

    @property
    def num_ms2(self) -> int:
        return self.n_rows * self.n_cols

    @property
    def num_patterns(self) -> int:
        """Admissible placements: ``(m_rows - n_rows + 1) * (m_cols - n_cols + 1)``."""
        return (self.m_rows - self.n_rows + 1) * (self.m_cols - self.n_cols + 1)


def all_selections(geom: MisGeometry) -> np.ndarray:
    """Covered MS 1 element per placement and MS 2 element, U x N, read-only.

    Row ``u - 1`` belongs to the placement with flat index ``u``; there
    MS 2 element ``(n_row, n_col)`` covers MS 1 element
    ``(n_row + u_row - 1, n_col + u_col - 1)``.
    """
    u_cols = geom.m_cols - geom.n_cols + 1
    u_row0, u_col0 = np.divmod(np.arange(geom.num_patterns), u_cols)
    n_row0, n_col0 = np.divmod(np.arange(geom.num_ms2), geom.n_cols)
    index = (u_row0[:, None] + n_row0) * geom.m_cols + (u_col0[:, None] + n_col0)
    index.setflags(write=False)
    return index
