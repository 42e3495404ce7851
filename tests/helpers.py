"""The test-only tangent-cone oracle.

The random instance builders live in :mod:`misopt.checks` and the dense
selection and simplex references in :mod:`misopt.oracle`, where the
``selftest``/``oracle-check`` suites use them too.  The tangent-cone
reference here enumerates which floor entries stay pinned, deliberately
avoiding the sort-based production projection.
"""

from __future__ import annotations

import math

import numpy as np

from misopt.manifolds import SIMPLEX_FLOOR


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
