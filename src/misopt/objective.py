"""Smoothed max-min objective over phases and pattern schedule, with gradients.

The worst-case user SNR is approximated by a log-sum-exp softmin whose gap
to the true minimum is bounded by ``mu * log(K)``; annealing ``mu`` toward
zero tightens the surrogate.  :class:`EvalContext` is the signal model: the
U x N placement index table and the K x M cascaded channels, built once per
problem, so one :func:`evaluate` call (value, user SNRs, softmin weights,
optional gradients) is a handful of dense matrix products.

Gradient convention for complex blocks: the returned ``g`` satisfies
``d/de f(z + e*t)|_0 = Re(g^H t)`` for any complex direction ``t``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from .channel import Scenario, cascaded_channel
from .geometry import all_selections

__all__ = ["ProductPoint", "EvalContext", "Evaluation", "evaluate", "euclidean_grads"]

# How far a feasible point's moduli and schedule row sums may stray from one.
FEASIBILITY_ATOL = 1e-9
# The unit entry that uncovered MS 1 elements gather in ``equiv_phases``.
_UNIT = np.ones(1, dtype=complex)


@dataclass(frozen=True)
class ProductPoint:
    """Optimization state: two unit-modulus phase vectors plus a row-stochastic schedule."""

    ms1_phase: np.ndarray
    ms2_phase: np.ndarray
    schedule: np.ndarray

    def validate(self) -> None:
        """Raise unless the point sits on the feasible set to within
        :data:`FEASIBILITY_ATOL`."""
        for name in ("ms1_phase", "ms2_phase", "schedule"):
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} has non-finite entries")
        if np.max(np.abs(np.abs(self.ms1_phase) - 1.0)) > FEASIBILITY_ATOL:
            raise ValueError("ms1_phase entries are not unit modulus")
        if np.max(np.abs(np.abs(self.ms2_phase) - 1.0)) > FEASIBILITY_ATOL:
            raise ValueError("ms2_phase entries are not unit modulus")
        if self.schedule.ndim != 2:
            raise ValueError("schedule must be a K x U matrix")
        if np.max(np.abs(self.schedule.sum(axis=1) - 1.0)) > FEASIBILITY_ATOL:
            raise ValueError("schedule rows must sum to one")
        if np.min(self.schedule) <= 0.0:
            raise ValueError("schedule entries must be strictly positive")


def _check_shape(name: str, vec: np.ndarray, shape: tuple) -> None:
    if vec.shape != shape:
        raise ValueError(f"{name} must have shape {shape}, got {vec.shape}")


@dataclass(frozen=True)
class EvalContext:
    """Problem data shared by every objective evaluation.

    ``channels`` stacks the cascaded channel rows (K x M), ``iota`` the
    per-user SNR scales, and ``sel_index`` the covered MS 1 element per
    pattern and MS 2 element (U x N, 0-based).
    """

    channels: np.ndarray
    iota: np.ndarray
    sel_index: np.ndarray

    @classmethod
    def from_scenario(cls, scenario: Scenario) -> "EvalContext":
        channels = cascaded_channel(scenario)
        iota = np.array([float(scale) for _, scale in scenario.users])
        sel_index = all_selections(scenario.geom)
        for arr in (channels, iota):
            arr.setflags(write=False)
        return cls(channels=channels, iota=iota, sel_index=sel_index)

    @cached_property
    def _equiv_index(self) -> np.ndarray:
        """U x M gather into ``[*ms2_phase, 1]``: the covering MS 2 element of
        each MS 1 element per placement, ``N`` (the unit entry) if uncovered."""
        index = np.full((self.num_patterns, self.num_ms1), self.num_ms2)
        np.put_along_axis(index, self.sel_index, np.arange(self.num_ms2), axis=1)
        return index

    @cached_property
    def _covered_index(self) -> np.ndarray:
        """Flat index of the ``sel_index`` entries of a U x M array, U x N."""
        return np.arange(self.num_patterns)[:, None] * self.num_ms1 + self.sel_index

    @cached_property
    def _iota_column(self) -> np.ndarray:
        return self.iota[:, None]

    @cached_property
    def _conj_channels(self) -> np.ndarray:
        """``conj(channels)``, read by every gradient."""
        return np.conj(self.channels)

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
        """Equivalent MS 2 phase vectors for all patterns, stacked U x M.

        Row ``u`` spreads ``ms2_phase`` onto MS 1's grid for placement ``u + 1``;
        uncovered elements get a unit (zero-phase) entry.
        """
        _check_shape("ms2_phase", ms2_phase, self.sel_index.shape[1:])
        return np.concatenate((ms2_phase, _UNIT)).take(self._equiv_index)

    def pattern_snr_table(
        self, ms1_phase: np.ndarray, ms2_phase: np.ndarray
    ) -> np.ndarray:
        """Linear SNR of every (user, pattern) pair, K x U."""
        _, _, gamma = self._amplitudes(ms1_phase, ms2_phase)
        return gamma

    def _amplitudes(self, ms1_phase, ms2_phase):
        _check_shape("ms1_phase", ms1_phase, self.channels.shape[1:])
        equiv = self.equiv_phases(ms2_phase)
        amps = self.channels @ (equiv * ms1_phase).T
        gamma = self._iota_column * (amps.real**2 + amps.imag**2)
        return equiv, amps, gamma


@dataclass(frozen=True)
class Evaluation:
    """One objective evaluation: surrogate value, per-user SNRs, softmin weights,
    its forward pass ``(equiv, amps, gamma)`` and optionally the Euclidean gradients."""

    value: float
    user_snrs: np.ndarray
    weights: np.ndarray
    forward: tuple
    grads: tuple | None = None


def _softmin(values: np.ndarray, mu: float) -> tuple[float, np.ndarray]:
    # Shift by the minimum before exponentiating so exp never overflows.
    vmin = float(np.minimum.reduce(values))
    scaled = np.exp((vmin - values) / mu)
    total = np.add.reduce(scaled)
    return vmin - mu * math.log(total), scaled / total


def euclidean_grads(point: ProductPoint, ev: Evaluation, ctx: EvalContext) -> tuple:
    """The three Euclidean gradient blocks at ``point`` from ``ev``, an evaluation
    there; all three reuse its (user, pattern) inner products."""
    equiv, amps, gamma = ev.forward
    coeff = (2.0 * ctx.iota * ev.weights)[:, None] * point.schedule * amps
    # d f / d ms1_phase[m] = sum_{k,u} coeff[k,u] * conj(equiv[u,m] * c[k,m])
    by_pattern = coeff.T @ ctx._conj_channels
    grad_ms1 = np.add.reduce(np.conj(equiv) * by_pattern, axis=0)
    # d f / d ms2_phase[n] gathers the covered entries of conj(phase * c).
    covered = coeff.T @ np.conj(point.ms1_phase * ctx.channels)
    grad_ms2 = np.add.reduce(covered.take(ctx._covered_index), axis=0)
    return grad_ms1, grad_ms2, ev.weights[:, None] * gamma


def evaluate(
    point: ProductPoint, mu: float, ctx: EvalContext, want_grad: bool = False
) -> Evaluation:
    """Evaluate the surrogate at one point, with :func:`euclidean_grads` of
    its own forward pass if ``want_grad``."""
    if not mu > 0:
        raise ValueError("mu must be positive")
    forward = ctx._amplitudes(point.ms1_phase, point.ms2_phase)
    snrs = np.einsum("ku,ku->k", point.schedule, forward[2])
    value, weights = _softmin(snrs, mu)
    ev = Evaluation(value=value, user_snrs=snrs, weights=weights, forward=forward)
    return replace(ev, grads=euclidean_grads(point, ev, ctx)) if want_grad else ev
