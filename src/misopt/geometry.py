"""Shift-position combinatorics for two stacked metasurfaces.

A large fixed surface (MS 1, ``m_rows x m_cols`` elements) carries a smaller
movable surface (MS 2, ``n_rows x n_cols``) that slides across it in whole
element steps.  Each admissible placement overlays every MS 2 element on
exactly one MS 1 element and synthesizes one beam pattern.  This module
enumerates the placements and builds the per-placement selection operators
used by the signal model.

Domain indexing is 1-based row-major, ``m = (m_row - 1) * m_cols + m_col``;
stored arrays hold the equivalent 0-based offsets.

Note on the 1D layout 1x64 over 1x36: the placement count is
64 - 36 + 1 = 29, directly from the counting rule below.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "MisGeometry",
    "ShiftPosition",
    "SelectionOperator",
    "pattern_grid",
    "shift_position",
    "shift_from_flat",
    "all_shift_positions",
    "build_selection",
    "all_selections",
    "equivalent_phase",
]


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
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ValueError(f"{name} must be a positive integer, got {value!r}")
        if self.n_rows > self.m_rows or self.n_cols > self.m_cols:
            raise ValueError(
                f"movable layer {self.n_rows}x{self.n_cols} does not fit inside "
                f"fixed layer {self.m_rows}x{self.m_cols}"
            )
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
        return pattern_grid(self)[2]


@dataclass(frozen=True)
class ShiftPosition:
    """One placement of MS 2 on MS 1, as 1-based unit shifts plus flat index."""

    u_row: int
    u_col: int
    u: int

    def __post_init__(self):
        if self.u_row < 1 or self.u_col < 1 or self.u < 1:
            raise ValueError("shift position indices are 1-based and positive")


@dataclass(frozen=True)
class SelectionOperator:
    """Overlap bookkeeping for one shift position.

    ``ms1_index[n]`` is the 0-based MS 1 element covered by the n-th MS 2
    element (a compact encoding of the binary selection matrix), and
    ``padding`` marks with 1 the MS 1 elements left uncovered, which behave
    as virtual zero-phase MS 2 elements.
    """

    ms1_index: np.ndarray
    padding: np.ndarray

    @property
    def num_ms1(self) -> int:
        return self.padding.size

    @property
    def num_ms2(self) -> int:
        return self.ms1_index.size

    def dense(self) -> np.ndarray:
        """Materialize the selection map as a dense 0/1 matrix (num_ms1 x num_ms2)."""
        mat = np.zeros((self.num_ms1, self.num_ms2))
        mat[self.ms1_index, np.arange(self.num_ms2)] = 1.0
        return mat


def pattern_grid(geom: MisGeometry) -> tuple[int, int, int]:
    """Number of admissible MS 2 placements along rows, along columns, and total."""
    u_rows = geom.m_rows - geom.n_rows + 1
    u_cols = geom.m_cols - geom.n_cols + 1
    return u_rows, u_cols, u_rows * u_cols


def shift_position(geom: MisGeometry, u_row: int, u_col: int) -> ShiftPosition:
    """Build the placement at the given 1-based row/column unit shifts."""
    u_rows, u_cols, _ = pattern_grid(geom)
    if not (1 <= u_row <= u_rows and 1 <= u_col <= u_cols):
        raise ValueError(
            f"shift ({u_row}, {u_col}) outside placement grid {u_rows}x{u_cols}"
        )
    return ShiftPosition(u_row=u_row, u_col=u_col, u=(u_row - 1) * u_cols + u_col)


def shift_from_flat(geom: MisGeometry, u: int) -> ShiftPosition:
    """Invert the flat pattern index back to row/column unit shifts."""
    u_rows, u_cols, total = pattern_grid(geom)
    if not 1 <= u <= total:
        raise ValueError(f"pattern index {u} outside 1..{total}")
    return ShiftPosition(u_row=(u - 1) // u_cols + 1, u_col=(u - 1) % u_cols + 1, u=u)


def all_shift_positions(geom: MisGeometry) -> list[ShiftPosition]:
    return [shift_from_flat(geom, u) for u in range(1, pattern_grid(geom)[2] + 1)]


def build_selection(geom: MisGeometry, pos: ShiftPosition) -> SelectionOperator:
    """Selection operator for one placement.

    MS 2 element (n_row, n_col) covers MS 1 element
    (n_row + u_row - 1, n_col + u_col - 1).
    """
    u_rows, u_cols, _ = pattern_grid(geom)
    if not (1 <= pos.u_row <= u_rows and 1 <= pos.u_col <= u_cols):
        raise ValueError(
            f"shift ({pos.u_row}, {pos.u_col}) outside placement grid {u_rows}x{u_cols}"
        )
    rows0 = np.arange(geom.n_rows)[:, None] + (pos.u_row - 1)
    cols0 = np.arange(geom.n_cols)[None, :] + (pos.u_col - 1)
    ms1_index = (rows0 * geom.m_cols + cols0).ravel()
    padding = np.ones(geom.num_ms1, dtype=np.uint8)
    padding[ms1_index] = 0
    ms1_index.setflags(write=False)
    padding.setflags(write=False)
    return SelectionOperator(ms1_index=ms1_index, padding=padding)


def all_selections(geom: MisGeometry) -> list[SelectionOperator]:
    """Precompute the selection operators for every placement, in flat-index order."""
    return [build_selection(geom, pos) for pos in all_shift_positions(geom)]


def equivalent_phase(ms2_phase: np.ndarray, sel: SelectionOperator) -> np.ndarray:
    """Spread the MS 2 phase vector onto MS 1's grid for one placement.

    Covered elements take the corresponding MS 2 entry; uncovered elements
    get a unit (zero-phase) entry, so the output is unit-modulus whenever
    the input is.
    """
    theta = np.asarray(ms2_phase)
    if theta.shape != (sel.num_ms2,):
        raise ValueError(
            f"phase vector has shape {theta.shape}, expected ({sel.num_ms2},)"
        )
    out = np.ones(sel.num_ms1, dtype=complex)
    out[sel.ms1_index] = theta
    return out
