"""Smoothed max-min objective over phases and pattern schedule, with gradients.

The worst-case user SNR is approximated by a log-sum-exp softmin whose gap
to the true minimum is bounded by ``mu * log(K)``; annealing ``mu`` toward
zero tightens the surrogate.  All evaluations go through an
:class:`EvalContext` that stacks the per-pattern selection operators and the
cascaded channels once per problem, so one objective or gradient call is a
handful of dense matrix products.

Gradient convention for complex blocks: the returned ``g`` satisfies
``d/de f(z + e*t)|_0 = Re(g^H t)`` for any complex direction ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .channel import Scenario, cascaded_channel
from .geometry import MisGeometry, all_selections

__all__ = [
    "ProductPoint",
    "SmoothingState",
    "EvalContext",
    "Evaluation",
    "user_snrs",
    "scheduled_snr",
    "lse_objective",
    "softmin_weights",
    "egrad",
    "evaluate",
]


@dataclass(frozen=True)
class ProductPoint:
    """Optimization state: two unit-modulus phase vectors plus a row-stochastic schedule."""

    ms1_phase: np.ndarray
    ms2_phase: np.ndarray
    schedule: np.ndarray

    def validate(self, atol: float = 1e-9) -> None:
        """Raise unless the point sits on the feasible set to within atol."""
        for name in ("ms1_phase", "ms2_phase", "schedule"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has non-finite entries")
        if np.max(np.abs(np.abs(self.ms1_phase) - 1.0)) > atol:
            raise ValueError("ms1_phase entries are not unit modulus")
        if np.max(np.abs(np.abs(self.ms2_phase) - 1.0)) > atol:
            raise ValueError("ms2_phase entries are not unit modulus")
        if self.schedule.ndim != 2:
            raise ValueError("schedule must be a K x U matrix")
        if np.max(np.abs(self.schedule.sum(axis=1) - 1.0)) > atol:
            raise ValueError("schedule rows must sum to one")
        if np.min(self.schedule) <= 0.0:
            raise ValueError("schedule entries must be strictly positive")


@dataclass(frozen=True)
class SmoothingState:
    """Annealing state of the softmin parameter."""

    mu: float
    delta: float = 2.0
    mu_min: float = 1e-12

    def __post_init__(self):
        if not self.mu > 0:
            raise ValueError("mu must be positive")
        if not self.delta > 1:
            raise ValueError("delta must exceed 1")
        if not self.mu_min > 0:
            raise ValueError("mu_min must be positive")

    def cooled(self) -> "SmoothingState":
        return replace(self, mu=self.mu / self.delta)


@dataclass(frozen=True)
class EvalContext:
    """Problem data shared by every objective evaluation.

    ``channels`` stacks the cascaded channel rows (K x M), ``iota`` the
    per-user SNR scales, and ``sel_index`` the covered MS 1 element per
    pattern and MS 2 element (U x N, 0-based).
    """

    geom: MisGeometry
    channels: np.ndarray
    iota: np.ndarray
    sel_index: np.ndarray

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "EvalContext":
        chans = cascaded_channel(scenario)
        channels = np.stack([ch.c for ch in chans])
        iota = np.array([ch.iota for ch in chans])
        sel_index = np.stack([sel.ms1_index for sel in all_selections(scenario.geom)])
        for arr in (channels, iota, sel_index):
            arr.setflags(write=False)
        return cls(
            geom=scenario.geom, channels=channels, iota=iota, sel_index=sel_index
        )

    @property
    def num_users(self) -> int:
        return self.channels.shape[0]

    @property
    def num_patterns(self) -> int:
        return self.sel_index.shape[0]

    @property
    def num_ms1(self) -> int:
        return self.channels.shape[1]

    @property
    def num_ms2(self) -> int:
        return self.sel_index.shape[1]

    def equiv_phases(self, ms2_phase: np.ndarray) -> np.ndarray:
        """Equivalent MS 2 phase vectors for all patterns, stacked U x M."""
        table = np.ones((self.num_patterns, self.num_ms1), dtype=complex)
        table[np.arange(self.num_patterns)[:, None], self.sel_index] = ms2_phase
        return table

    def pattern_snr_table(
        self, ms1_phase: np.ndarray, ms2_phase: np.ndarray
    ) -> np.ndarray:
        """Linear SNR of every (user, pattern) pair, K x U."""
        _, _, gamma = self._amplitudes(ms1_phase, ms2_phase)
        return gamma

    def _amplitudes(self, ms1_phase, ms2_phase):
        equiv = self.equiv_phases(ms2_phase)
        combined = equiv * ms1_phase[None, :]
        amps = self.channels @ combined.T
        gamma = self.iota[:, None] * (amps.real**2 + amps.imag**2)
        return equiv, amps, gamma


@dataclass(frozen=True)
class Evaluation:
    """One objective evaluation: surrogate value, per-user SNRs, softmin weights,
    the full (user, pattern) SNR table, and optionally the Euclidean gradients."""

    value: float
    user_snrs: np.ndarray
    weights: np.ndarray
    snr_table: np.ndarray
    grads: tuple | None = None


def _softmin(values: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
    # Shift by the minimum before exponentiating so exp never overflows.
    vmin = float(values.min())
    scaled = np.exp(-(values - vmin) / mu)
    total = scaled.sum()
    return vmin - mu * math.log(total), scaled / total


def evaluate(
    point: ProductPoint, mu: float, ctx: EvalContext, want_grad: bool = False
) -> Evaluation:
    """Evaluate the surrogate (and gradients) at one point.

    The (user, pattern) inner products are computed once and reused by all
    three gradient blocks.
    """
    if not mu > 0:
        raise ValueError("mu must be positive")
    equiv, amps, gamma = ctx._amplitudes(point.ms1_phase, point.ms2_phase)
    snrs = np.einsum("ku,ku->k", point.schedule, gamma)
    value, weights = _softmin(snrs, mu)
    grads = None
    if want_grad:
        coeff = (2.0 * ctx.iota * weights)[:, None] * point.schedule * amps
        # d f / d ms1_phase[m] = sum_{k,u} coeff[k,u] * conj(equiv[u,m] * c[k,m])
        by_pattern = coeff.T @ np.conj(ctx.channels)
        grad_ms1 = np.sum(np.conj(equiv) * by_pattern, axis=0)
        # d f / d ms2_phase[n] gathers the covered entries of conj(phase * c).
        covered = coeff.T @ np.conj(point.ms1_phase[None, :] * ctx.channels)
        grad_ms2 = np.take_along_axis(covered, ctx.sel_index, axis=1).sum(axis=0)
        grad_schedule = weights[:, None] * gamma
        grads = (grad_ms1, grad_ms2, grad_schedule)
    return Evaluation(
        value=value, user_snrs=snrs, weights=weights, snr_table=gamma, grads=grads
    )


def user_snrs(point: ProductPoint, ctx: EvalContext) -> np.ndarray:
    """Schedule-weighted SNR of every user, length K."""
    gamma = ctx.pattern_snr_table(point.ms1_phase, point.ms2_phase)
    return np.einsum("ku,ku->k", point.schedule, gamma)


def scheduled_snr(point: ProductPoint, user_index: int, ctx: EvalContext) -> float:
    """Schedule-weighted SNR of one user."""
    snrs = user_snrs(point, ctx)
    if not 0 <= user_index < snrs.size:
        raise IndexError(f"user index {user_index} out of range")
    return float(snrs[user_index])


def lse_objective(point: ProductPoint, mu: float, ctx: EvalContext) -> float:
    """Softmin surrogate of the worst-case SNR; bounded above by the true minimum
    and below by the minimum less ``mu * log(K)``."""
    return evaluate(point, mu, ctx).value


def softmin_weights(point: ProductPoint, mu: float, ctx: EvalContext) -> np.ndarray:
    """Softmin weights over users; nonnegative, sum to one, concentrate on the worst user."""
    return evaluate(point, mu, ctx).weights


def egrad(point: ProductPoint, mu: float, ctx: EvalContext) -> tuple:
    """Euclidean gradients of the surrogate with respect to the three blocks."""
    return evaluate(point, mu, ctx, want_grad=True).grads
