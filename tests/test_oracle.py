import itertools
import math

import numpy as np
import pytest

from misopt import (
    ArrayAngles,
    EvalContext,
    MisGeometry,
    Scenario,
    brute_force_solve,
)
from misopt.oracle import fd_directional
from helpers import random_ambient_triple, random_instance, random_scenario


def _scenario(geom, azimuths, iota=0.01, elevation=math.pi / 4):
    users = [(ArrayAngles(az, elevation), iota) for az in azimuths]
    return Scenario(geom=geom, mis_arrival=ArrayAngles(0.0, 0.0), users=users)


def test_single_element_instance_is_phase_invariant():
    geom = MisGeometry(1, 1, 1, 1)
    result = brute_force_solve(_scenario(geom, [0.7]), phase_levels=4)
    assert result.value == pytest.approx(0.01, rel=1e-12)
    assert result.chosen_pattern.tolist() == [1]


def test_lattice_optimum_close_to_matched_filter_bound():
    geom = MisGeometry(2, 1, 1, 1)
    result = brute_force_solve(_scenario(geom, [0.4]), phase_levels=16)
    bound = 0.01 * 4.0
    # every element phase can land within half a lattice step of ideal
    assert result.value <= bound * (1 + 1e-12)
    assert result.value >= bound * math.cos(math.pi / 16) ** 2


def test_value_monotone_in_lattice_refinement():
    geom = MisGeometry(2, 1, 1, 1)
    scenario = _scenario(geom, [-math.pi / 3, math.pi / 3])
    values = [
        brute_force_solve(scenario, phase_levels=levels).value
        for levels in (4, 8, 16)
    ]
    assert values[0] <= values[1] + 1e-15
    assert values[1] <= values[2] + 1e-15


def test_schedule_separability_matches_exhaustive_enumeration():
    geom = MisGeometry(2, 1, 1, 1)
    scenario = _scenario(geom, [-1.0, 0.3])
    levels = 4
    result = brute_force_solve(scenario, phase_levels=levels)

    ctx = EvalContext.from_scenario(scenario)
    angles = 2.0 * np.pi * np.arange(levels) / levels
    best = -np.inf
    for phases in itertools.product(angles, repeat=ctx.num_ms1 + ctx.num_ms2):
        ms1 = np.exp(1j * np.asarray(phases[: ctx.num_ms1]))
        ms2 = np.exp(1j * np.asarray(phases[ctx.num_ms1 :]))
        table = ctx.pattern_snr_table(ms1, ms2)
        for assignment in itertools.product(
            range(ctx.num_patterns), repeat=ctx.num_users
        ):
            value = min(table[k, u] for k, u in enumerate(assignment))
            best = max(best, value)
    assert result.value == pytest.approx(best, rel=1e-12)


def test_search_space_cap_enforced():
    geom = MisGeometry(3, 3, 2, 2)
    with pytest.raises(ValueError, match="exceeds"):
        brute_force_solve(_scenario(geom, [0.1]), phase_levels=16)
    with pytest.raises(ValueError, match="phase_levels"):
        brute_force_solve(_scenario(MisGeometry(1, 1, 1, 1), [0.1]), phase_levels=1)
    with pytest.raises(ValueError, match="phase_levels"):
        brute_force_solve(_scenario(MisGeometry(1, 1, 1, 1), [0.1]), phase_levels=2.5)


def test_fd_constant_function_is_zero():
    rng = np.random.default_rng(0)
    _, _, ctx, point = random_instance(rng)
    direction = random_ambient_triple(rng, point)
    assert fd_directional(lambda p: 4.2, point, direction, 1e-6) == 0.0


def test_fd_quadratic_closed_form():
    rng = np.random.default_rng(1)
    _, _, ctx, point = random_instance(rng)
    direction = random_ambient_triple(rng, point)

    def norm_sq(p):
        return (
            float(np.vdot(p.ms1_phase, p.ms1_phase).real)
            + float(np.vdot(p.ms2_phase, p.ms2_phase).real)
            + float(np.sum(p.schedule**2))
        )

    expected = 2.0 * (
        float(np.real(np.vdot(point.ms1_phase, direction.d_ms1_phase)))
        + float(np.real(np.vdot(point.ms2_phase, direction.d_ms2_phase)))
        + float(np.sum(point.schedule * direction.d_schedule))
    )
    measured = fd_directional(norm_sq, point, direction, 1e-6)
    assert measured == pytest.approx(expected, rel=1e-7, abs=1e-9)


def test_fd_rejects_nonpositive_step():
    rng = np.random.default_rng(2)
    _, _, ctx, point = random_instance(rng)
    direction = random_ambient_triple(rng, point)
    with pytest.raises(ValueError):
        fd_directional(lambda p: 0.0, point, direction, 0.0)


def test_brute_force_result_is_feasible_and_consistent():
    """The value and the chosen patterns are read off one SNR table: the
    solver's own, at the returned phases."""
    rng = np.random.default_rng(31)
    scenarios = [_scenario(MisGeometry(2, 1, 1, 1), [-math.pi / 3, math.pi / 3])]
    scenarios += [random_scenario(rng, MisGeometry(2, 2, 1, 1)) for _ in range(3)]
    for scenario in scenarios:
        result = brute_force_solve(scenario, phase_levels=8)
        np.testing.assert_allclose(np.abs(result.ms1_phase), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(result.ms2_phase), 1.0, atol=1e-12)
        ctx = EvalContext.from_scenario(scenario)
        table = ctx.pattern_snr_table(result.ms1_phase, result.ms2_phase)
        assert result.value == table.max(axis=1).min()
        np.testing.assert_array_equal(
            result.chosen_pattern, np.argmax(table, axis=1) + 1
        )
