import numpy as np
import pytest

from misopt.manifolds import (
    SIMPLEX_FLOOR,
    RetractionError,
    TangentTriple,
    grad_norm,
    inner,
    project_circle_tangent,
    project_multinomial_tangent,
    project_schedule_cone,
    project_simplex,
    retract_circle,
    retract_multinomial,
    transport,
)
from misopt.objective import ProductPoint
from misopt.oracle import simplex_qp_oracle
from helpers import schedule_cone_oracle


def random_circle_base(rng, n=7):
    return np.exp(2j * np.pi * rng.random(n))


def random_complex(rng, n=7):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def test_circle_projection_example():
    out = project_circle_tangent(np.array([1.0 + 0j]), np.array([1.0 + 1.0j]))
    np.testing.assert_allclose(out, [1.0j], atol=1e-15)


def test_circle_projection_fixes_tangent_vectors():
    rng = np.random.default_rng(0)
    base = random_circle_base(rng)
    tangent = 1j * rng.standard_normal(base.size) * base
    np.testing.assert_allclose(project_circle_tangent(base, tangent), tangent, atol=1e-15)


def test_circle_projection_self_adjoint():
    rng = np.random.default_rng(2)
    base = random_circle_base(rng)
    g, h = random_complex(rng), random_complex(rng)
    lhs = np.real(np.vdot(project_circle_tangent(base, g), h))
    rhs = np.real(np.vdot(g, project_circle_tangent(base, h)))
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


def test_circle_projection_shape_mismatch():
    with pytest.raises(ValueError):
        project_circle_tangent(np.ones(3, dtype=complex), np.ones(4, dtype=complex))


def test_multinomial_projection_examples():
    np.testing.assert_allclose(
        project_multinomial_tangent(np.array([[1.0, 2.0, 3.0]])), [[-1.0, 0.0, 1.0]]
    )
    zeros = np.zeros((2, 4))
    np.testing.assert_array_equal(project_multinomial_tangent(zeros), zeros)


def test_multinomial_projection_self_adjoint():
    rng = np.random.default_rng(4)
    g, h = rng.standard_normal((3, 4)), rng.standard_normal((3, 4))
    lhs = float(np.sum(project_multinomial_tangent(g) * h))
    rhs = float(np.sum(g * project_multinomial_tangent(h)))
    assert lhs == pytest.approx(rhs, rel=1e-12)


def test_retract_circle_zero_step_and_example():
    rng = np.random.default_rng(5)
    base = random_circle_base(rng)
    tangent = project_circle_tangent(base, random_complex(rng))
    np.testing.assert_allclose(retract_circle(base, tangent, 0.0), base, atol=1e-15)
    out = retract_circle(np.array([1.0 + 0j]), np.array([1.0j]), 1.0)
    np.testing.assert_allclose(out, [(1.0 + 1.0j) / np.sqrt(2.0)], atol=1e-15)


def test_retract_circle_first_order():
    rng = np.random.default_rng(6)
    base = random_circle_base(rng)
    tangent = project_circle_tangent(base, random_complex(rng))
    for alpha in (1e-3, 1e-4):
        moved = retract_circle(base, tangent, alpha)
        np.testing.assert_allclose(np.abs(moved), 1.0, atol=1e-14)
        gap = np.max(np.abs(moved - (base + alpha * tangent)))
        assert gap < 2.0 * alpha**2 * np.max(np.abs(tangent)) ** 2


def test_retract_circle_degenerate_entry():
    with pytest.raises(RetractionError):
        retract_circle(np.array([1.0 + 0j]), np.array([-1.0 + 0j]), 1.0)


def test_project_simplex_identity_on_simplex():
    mat = np.array([[0.25, 0.5, 0.25], [0.1, 0.6, 0.3]])
    np.testing.assert_allclose(project_simplex(mat), mat, atol=1e-12)


def test_project_simplex_known_answer():
    out = project_simplex(np.array([[0.5, 0.5, 1.0]]))[0]
    np.testing.assert_allclose(out, [1 / 6, 1 / 6, 2 / 3], atol=1e-12)
    np.testing.assert_allclose(out, simplex_qp_oracle(np.array([0.5, 0.5, 1.0])), atol=1e-12)


def test_project_simplex_clipped_vertex():
    out = project_simplex(np.array([[2.0, 0.0, 0.0]]))[0]
    assert out[0] == pytest.approx(1.0, abs=1e-11)
    assert np.all(out > 0.0)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)
    np.testing.assert_allclose(out, simplex_qp_oracle(np.array([2.0, 0.0, 0.0])), atol=1e-10)
    with pytest.raises(ValueError, match="matrix"):
        project_simplex(np.array([2.0, 0.0, 0.0]))


def test_project_simplex_matches_qp_oracle():
    """Gaussian rows, and on odd cases quarter-integer rows with ties and zeros."""
    rng = np.random.default_rng(7)
    for case in range(200):
        size = int(rng.integers(1, 5))
        mat = rng.standard_normal((3, size)) * float(rng.uniform(0.3, 4.0))
        if case % 2:
            mat = rng.integers(-4, 5, (3, size)) / 4
        ours = project_simplex(mat)
        for row, vec in zip(ours, mat):
            np.testing.assert_allclose(row, simplex_qp_oracle(vec), atol=1e-10)
        assert ours.min() > 0.0
        np.testing.assert_allclose(ours.sum(axis=1), 1.0, atol=1e-12)


def _simplex_reference(mat):
    """Frozen copy of the original sort-and-threshold projection (negated
    sort, two floors, a fresh divide); project_simplex must match its bits."""
    mat = np.asarray(mat, dtype=float)
    desc = -np.sort(-mat, axis=1)
    csum = np.cumsum(desc, axis=1)
    ranks = np.arange(1, mat.shape[1] + 1)
    positive = desc - (csum - 1.0) / ranks > 0.0
    last = mat.shape[1] - 1 - np.argmax(positive[:, ::-1], axis=1)
    threshold = (csum[np.arange(mat.shape[0]), last] - 1.0) / (last + 1)
    out = np.maximum(mat - threshold[:, None], 0.0)
    out = np.maximum(out, SIMPLEX_FLOOR)
    return out / out.sum(axis=1, keepdims=True)


def _simplex_cases(rng):
    """Random matrices, matrices with ties, rows already on the simplex, rows
    whose entries mostly fall below the threshold, and single columns."""
    for _ in range(60):
        rows, cols = int(rng.integers(1, 33)), int(rng.integers(1, 30))
        yield rng.standard_normal((rows, cols)) * float(rng.uniform(0.01, 5.0))
        yield rng.integers(-3, 4, size=(rows, cols)) / 4.0
        on = rng.random((rows, cols)) + 1e-3
        yield on / on.sum(axis=1, keepdims=True)
        spiked = np.full((rows, cols), -1.0) + 1e-9 * rng.standard_normal((rows, cols))
        spiked[:, 0] = 5.0
        yield spiked
        yield rng.standard_normal((rows, 1))


def test_project_simplex_bits_match_reference():
    rng = np.random.default_rng(41)
    cases = list(_simplex_cases(rng))
    assert len(cases) == 300
    for mat in cases:
        assert np.array_equal(project_simplex(mat), _simplex_reference(mat))
        tangent = project_multinomial_tangent(rng.standard_normal(mat.shape))
        assert np.array_equal(
            retract_multinomial(mat, tangent, 0.3), _simplex_reference(mat + 0.3 * tangent)
        )


def test_retract_multinomial_interior_identity():
    mat = np.array([[0.25, 0.25, 0.5], [0.4, 0.3, 0.3]])
    out = retract_multinomial(mat, np.zeros_like(mat), 0.0)
    np.testing.assert_allclose(out, mat, atol=1e-12)


def _floored_schedule(rng, rows, cols):
    """Random simplex rows with some entries on the floor, renormalised as the
    retraction leaves them; every row keeps at least one free entry."""
    on_floor = rng.random((rows, cols)) < 0.5
    on_floor[np.arange(rows), rng.integers(0, cols, rows)] = False
    mat = np.where(on_floor, 0.0, rng.random((rows, cols)) + 0.05)
    mat = np.maximum(mat / mat.sum(axis=1, keepdims=True), SIMPLEX_FLOOR)
    return mat / mat.sum(axis=1, keepdims=True)


def test_schedule_cone_matches_oracle():
    """Gaussian moves, and on odd cases quarter-integer moves with ties and zeros."""
    rng = np.random.default_rng(12)
    for case in range(200):
        cols = int(rng.integers(1, 6))
        schedule = _floored_schedule(rng, 3, cols)
        mat = rng.standard_normal((3, cols)) * float(rng.uniform(0.3, 4.0))
        if case % 2:
            mat = rng.integers(-4, 5, (3, cols)) / 4
        ours = project_schedule_cone(schedule, mat)
        np.testing.assert_allclose(ours, schedule_cone_oracle(schedule, mat), atol=1e-12)
        assert np.max(np.abs(ours.sum(axis=1))) < 1e-12
        assert ours[schedule <= 2.0 * SIMPLEX_FLOOR].min(initial=0.0) >= 0.0


def test_schedule_cone_off_the_floor_is_tangent_projection():
    rng = np.random.default_rng(13)
    schedule = rng.random((4, 6)) + 0.05
    schedule /= schedule.sum(axis=1, keepdims=True)
    mat = rng.standard_normal((4, 6))
    np.testing.assert_allclose(
        project_schedule_cone(schedule, mat),
        project_multinomial_tangent(mat),
        atol=1e-14,
    )


def test_schedule_cone_is_one_sided_retraction_derivative():
    rng = np.random.default_rng(14)
    schedule = _floored_schedule(rng, 6, 5)
    direction = rng.standard_normal((6, 5))
    cone = project_schedule_cone(schedule, direction)
    for step in (1e-2, 1e-3, 1e-4, 1e-5, 1e-6):
        moved = retract_multinomial(schedule, direction, step)
        gap = np.max(np.abs((moved - schedule) / step - cone))
        # exact once the active set settles, up to the floor seen at this step
        assert gap <= 1e-12 + 10.0 * schedule.shape[1] * SIMPLEX_FLOOR / step
    # the unconstrained tangent direction is not what the retraction follows
    assert np.max(np.abs(project_multinomial_tangent(direction) - cone)) > 0.1


def _circle_point(rng):
    schedule = np.full((2, 3), 1.0 / 3.0)
    return ProductPoint(random_circle_base(rng), random_circle_base(rng, 3), schedule)


def _tangent_at(rng, point):
    return TangentTriple(
        project_circle_tangent(point.ms1_phase, random_complex(rng)),
        project_circle_tangent(point.ms2_phase, random_complex(rng, 3)),
        rng.standard_normal((2, 3)),
    )


def test_transport_identity_cases():
    rng = np.random.default_rng(9)
    point = _circle_point(rng)
    tangent = _tangent_at(rng, point)
    carried = transport(point, tangent)
    assert isinstance(carried, TangentTriple)
    np.testing.assert_allclose(carried.d_ms1_phase, tangent.d_ms1_phase, atol=1e-14)
    np.testing.assert_allclose(carried.d_ms2_phase, tangent.d_ms2_phase, atol=1e-14)
    # the flat schedule block passes through untouched
    assert carried.d_schedule is tangent.d_schedule


def test_transport_lands_in_new_tangent_space():
    rng = np.random.default_rng(10)
    old, new = _circle_point(rng), _circle_point(rng)
    carried = transport(new, _tangent_at(rng, old))
    for block, base in zip(carried[:2], (new.ms1_phase, new.ms2_phase)):
        assert np.max(np.abs(np.real(block * np.conj(base)))) < 1e-14


def test_grad_norm():
    zero = TangentTriple(
        np.zeros(2, dtype=complex), np.zeros(1, dtype=complex), np.zeros((2, 2))
    )
    assert grad_norm(zero) == 0.0
    triple = TangentTriple(
        np.array([3.0 + 0j]), np.array([4.0 + 0j]), np.zeros((1, 1))
    )
    assert grad_norm(triple) == pytest.approx(5.0, rel=1e-15)
    rng = np.random.default_rng(11)
    rand = TangentTriple(
        rng.standard_normal(4) + 1j * rng.standard_normal(4),
        rng.standard_normal(3) + 1j * rng.standard_normal(3),
        rng.standard_normal((2, 5)),
    )
    flat = np.concatenate(
        [
            rand.d_ms1_phase.view(float),
            rand.d_ms2_phase.view(float),
            rand.d_schedule.ravel(),
        ]
    )
    assert grad_norm(rand) == pytest.approx(float(np.linalg.norm(flat)), rel=1e-12)


def test_inner_sums_blocks_left_to_right():
    rng = np.random.default_rng(15)
    a, b = (
        TangentTriple(
            random_complex(rng, 4), random_complex(rng, 3), rng.standard_normal((2, 5))
        )
        for _ in range(2)
    )
    blocks = [float(np.real(np.vdot(x, y))) for x, y in zip(a, b)]
    assert inner(a, b) == (blocks[0] + blocks[1]) + blocks[2]
    # the real dot product of the flattened real and imaginary parts
    flat_a, flat_b = (np.concatenate([x.view(float).ravel() for x in t]) for t in (a, b))
    assert inner(a, b) == pytest.approx(float(flat_a @ flat_b), rel=1e-12)
    assert inner(a, b) == pytest.approx(inner(b, a))
    assert grad_norm(a) == np.sqrt(inner(a, a))
