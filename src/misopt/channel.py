"""Line-of-sight channel construction and SNR evaluation under matched transmission.

The base station reaches the surface through a rank-one LoS link, so after
maximum-ratio transmission the per-user SNR collapses to a single inner
product between the combined surface phase profile and a cascaded channel
vector: user ``k`` on placement ``u`` gets
``iota_k * |sum_m c[k, m] * phi[m] * equiv_u[m]|^2``, with ``c`` the K x M
matrix of :func:`cascaded_channel`; :class:`misopt.objective.EvalContext`
evaluates it for every (user, placement) pair.  Only the dimensionless scale
``iota = P_max * L / sigma^2`` enters it; transmit power, antenna count, and
noise power are needed separately only by :func:`snr_full_path`, which
rebuilds the full matrix model as an independent reference.

Users on the coverage arc have a fixed elevation angle; the span of the arc
is expressed in azimuth.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .geometry import MisGeometry

__all__ = [
    "ArrayAngles",
    "Scenario",
    "upa_steering",
    "cascaded_channel",
    "snr_full_path",
]


@dataclass(frozen=True)
class ArrayAngles:
    """Azimuth/elevation pair in radians (azimuth in [-pi, pi], elevation in [0, pi/2])."""

    azimuth: float
    elevation: float

    def __post_init__(self):
        if not -math.pi <= self.azimuth <= math.pi:
            raise ValueError(f"azimuth {self.azimuth} outside [-pi, pi]")
        if not 0.0 <= self.elevation <= math.pi / 2:
            raise ValueError(f"elevation {self.elevation} outside [0, pi/2]")


BROADSIDE = ArrayAngles(0.0, 0.0)


@dataclass(frozen=True)
class Scenario:
    """One coverage problem: geometry, surface arrival direction, and served users.

    ``users`` is a sequence of ``(ArrayAngles, iota)`` pairs where ``iota`` is
    the per-user linear SNR scale.
    """

    geom: MisGeometry
    mis_arrival: ArrayAngles
    users: tuple
    bs_rows: int = 1
    bs_cols: int = 1
    bs_spacing_over_lambda: float = 0.5

    def __post_init__(self):
        object.__setattr__(self, "users", tuple(self.users))
        if len(self.users) == 0:
            raise ValueError("scenario needs at least one user")
        for angles, iota in self.users:
            if not isinstance(angles, ArrayAngles):
                raise TypeError("each user is an (ArrayAngles, iota) pair")
            if not 0 < iota < math.inf:
                raise ValueError("every user iota must be positive and finite")
        if self.bs_rows < 1 or self.bs_cols < 1:
            raise ValueError("base-station array dimensions must be >= 1")
        if not 0 < self.bs_spacing_over_lambda < math.inf:
            raise ValueError("bs_spacing_over_lambda must be positive and finite")

    @property
    def num_users(self) -> int:
        return len(self.users)

    @property
    def num_bs_antennas(self) -> int:
        return self.bs_rows * self.bs_cols


def upa_steering(
    rows: int, cols: int, spacing_over_lambda: float, angles: ArrayAngles
) -> np.ndarray:
    """Steering vector of a uniform planar array, flattened row-major.

    Entry (r, c), with 0-based grid offsets, is
    ``exp(j * 2*pi * spacing * (r*cos(az)*sin(el) + c*sin(az)*sin(el)))``.
    """
    if rows < 1 or cols < 1:
        raise ValueError("array dimensions must be >= 1")
    row_gain = math.cos(angles.azimuth) * math.sin(angles.elevation)
    col_gain = math.sin(angles.azimuth) * math.sin(angles.elevation)
    phase = (
        2.0
        * math.pi
        * spacing_over_lambda
        * (np.arange(rows)[:, None] * row_gain + np.arange(cols)[None, :] * col_gain)
    )
    return np.exp(1j * phase).ravel()


def cascaded_channel(scenario: Scenario) -> np.ndarray:
    """Cascaded channels, K x M: row k is the elementwise product of user k's
    steering vector and the surface arrival steering vector, both on MS 1's grid."""
    geom = scenario.geom
    a_mis = upa_steering(
        geom.m_rows, geom.m_cols, geom.spacing_over_lambda, scenario.mis_arrival
    )
    return np.stack(
        [
            upa_steering(geom.m_rows, geom.m_cols, geom.spacing_over_lambda, angles)
            * a_mis
            for angles, _ in scenario.users
        ]
    )


def snr_full_path(
    ms1_phase: np.ndarray,
    equiv_ms2_phase: np.ndarray,
    scenario: Scenario,
    user_index: int,
    bs_angles: ArrayAngles = BROADSIDE,
) -> float:
    """SNR via the explicit matrix model, as an independent check of the
    cascaded form ``iota * |sum_m c[k, m] * phi[m] * equiv[m]|^2``.

    Builds the rank-one BS-to-surface channel ``G`` from both steering
    vectors, applies the maximum-ratio beamformer, and scales by the noise
    power implied by the user's ``iota``.  The result is independent of the
    BS departure angles because only the BS array size survives the
    beamforming norm.
    """
    geom = scenario.geom
    if not 0 <= user_index < scenario.num_users:
        raise IndexError(f"user index {user_index} out of range")
    angles, iota = scenario.users[user_index]
    phi = np.asarray(ms1_phase)
    equiv = np.asarray(equiv_ms2_phase)
    if phi.shape != (geom.num_ms1,) or equiv.shape != (geom.num_ms1,):
        raise ValueError("phase vectors must match the fixed-layer element count")

    a_mis = upa_steering(
        geom.m_rows, geom.m_cols, geom.spacing_over_lambda, scenario.mis_arrival
    )
    a_bs = upa_steering(
        scenario.bs_rows,
        scenario.bs_cols,
        scenario.bs_spacing_over_lambda,
        bs_angles,
    )
    bs_to_surface = np.outer(a_mis, a_bs)
    h_user = upa_steering(geom.m_rows, geom.m_cols, geom.spacing_over_lambda, angles)

    effective_row = (h_user * equiv * phi) @ bs_to_surface
    row_norm = np.linalg.norm(effective_row)
    if row_norm == 0.0:
        return 0.0
    # Unit transmit power; noise chosen so P_max * L / sigma^2 equals iota.
    p_max = 1.0
    sigma2 = scenario.num_bs_antennas * p_max / iota
    beamformer = math.sqrt(p_max) * effective_row.conj() / row_norm
    received = effective_row @ beamformer
    return float(np.abs(received) ** 2 / sigma2)
