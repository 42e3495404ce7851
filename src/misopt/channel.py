"""Line-of-sight channel construction and SNR evaluation under matched transmission.

The base station reaches the surface through a rank-one LoS link, so after
maximum-ratio transmission the per-user SNR collapses to a single inner
product between the combined surface phase profile and a cascaded channel
vector: user ``k`` on placement ``u`` gets
``iota_k * |sum_m c[k, m] * phi[m] * equiv_u[m]|^2``, with ``c`` the K x M
matrix of :func:`cascaded_channel`; :class:`misopt.objective.EvalContext`
evaluates it for every (user, placement) pair.  Only the dimensionless scale
``iota = P_max * L / sigma^2`` enters it; transmit power, the base-station
array and noise power are needed separately only by
:func:`misopt.oracle.snr_full_path`, which rebuilds the full matrix model as
an independent reference.

Every array here, the surface and the base station alike, has the
half-wavelength element pitch :data:`SPACING_OVER_LAMBDA`.  Users on the
coverage arc have a fixed elevation angle; the span of the arc is expressed
in azimuth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MisGeometry, _require_int, _require_real

__all__ = [
    "SPACING_OVER_LAMBDA",
    "ArrayAngles",
    "Scenario",
    "upa_steering",
    "cascaded_channel",
]


@dataclass(frozen=True)
class ArrayAngles:
    """Azimuth/elevation pair in radians (azimuth in [-pi, pi], elevation in [0, pi/2])."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        _require_real("azimuth", self.azimuth)
        _require_real("elevation", self.elevation)
        if not -math.pi <= self.azimuth <= math.pi:
            raise ValueError(f"azimuth {self.azimuth} outside [-pi, pi]")
        if not 0.0 <= self.elevation <= math.pi / 2:
            raise ValueError(f"elevation {self.elevation} outside [0, pi/2]")


def _check_iota(iota, num_elements: int | None = None) -> None:
    """Raise a ``ValueError`` naming ``iota`` unless it is a positive, finite
    real and, given the fixed layer's element count, small enough to solve.

    Channel entries have unit modulus, so no SNR over ``num_elements``
    surface elements exceeds ``iota * num_elements**2``.  The solver squares
    gradients of that scale (a line search's slope is a squared norm), so
    that bound, with a factor of 4 for rounding, must stay finite squared.
    """
    _require_real("iota", iota)
    if not 0 < iota < math.inf:
        raise ValueError(f"iota must be positive and finite, got {iota}")
    if num_elements is None:
        return
    bound = 4.0 * iota * num_elements**2
    if not math.isfinite(bound * bound):
        raise ValueError(
            f"iota {iota} is too large for {num_elements} elements: "
            f"the squared SNR bound (iota * {num_elements}**2)**2 overflows"
        )


BROADSIDE = ArrayAngles(0.0, 0.0)
# Element pitch of every array, in wavelengths.
SPACING_OVER_LAMBDA = 0.5


@dataclass(frozen=True)
class Scenario:
    """One coverage problem: geometry, surface arrival direction, and served users.

    ``users`` is a sequence of ``(ArrayAngles, iota)`` pairs where ``iota`` is
    the per-user linear SNR scale.
    """

    geom: MisGeometry
    mis_arrival: ArrayAngles
    users: tuple

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        if len(self.users) == 0:
            raise ValueError("scenario needs at least one user")
        for angles, iota in self.users:
            if not isinstance(angles, ArrayAngles):
                raise TypeError("each user is an (ArrayAngles, iota) pair")
            _check_iota(iota, self.geom.num_ms1)

    @property
    def num_users(self) -> int:
        return len(self.users)


def upa_steering(rows: int, cols: int, angles: ArrayAngles) -> np.ndarray:
    """Steering vector of a uniform planar array, flattened row-major.

    Entry (r, c), with 0-based grid offsets, is
    ``exp(j * 2*pi * SPACING_OVER_LAMBDA * (r*cos(az)*sin(el) + c*sin(az)*sin(el)))``.
    """
    _require_int("array dimensions: rows", rows, 1)
    _require_int("array dimensions: cols", cols, 1)
    row_gain = math.cos(angles.azimuth) * math.sin(angles.elevation)
    col_gain = math.sin(angles.azimuth) * math.sin(angles.elevation)
    phase = (
        2.0
        * math.pi
        * SPACING_OVER_LAMBDA
        * (np.arange(rows)[:, None] * row_gain + np.arange(cols)[None, :] * col_gain)
    )
    return np.exp(1j * phase).ravel()


def cascaded_channel(scenario: Scenario) -> np.ndarray:
    """Cascaded channels, K x M: row k is the elementwise product of user k's
    steering vector and the surface arrival steering vector, both on MS 1's grid."""
    geom = scenario.geom
    a_mis = upa_steering(geom.m_rows, geom.m_cols, scenario.mis_arrival)
    return np.stack(
        [
            upa_steering(geom.m_rows, geom.m_cols, angles) * a_mis
            for angles, _ in scenario.users
        ]
    )

