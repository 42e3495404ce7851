"""Property tests of the manifold primitives against their references.

Inputs are drawn by hypothesis with a fixed derandomized seed, so every run
checks the same examples.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from misopt.manifolds import (
    SIMPLEX_FLOOR,
    TangentTriple,
    grad_norm,
    inner,
    project_schedule_cone,
    project_simplex,
)
from helpers import schedule_cone_oracle, simplex_qp_oracle

PROPERTY = settings(derandomize=True, deadline=None, database=None, max_examples=60)


def _rows(rows, cols, elements=st.floats(-1.0, 1.0)):
    return st.lists(
        st.lists(elements, min_size=cols, max_size=cols), min_size=rows, max_size=rows
    ).map(np.array)


@st.composite
def scaled_rows(draw):
    """Up to 3 rows of 1-4 entries in [-1, 1], scaled by a factor in [0.3, 4]."""
    cols = draw(st.integers(1, 4))
    mat = draw(_rows(draw(st.integers(1, 3)), cols))
    return mat * draw(st.floats(0.3, 4.0))


@PROPERTY
@given(scaled_rows())
def test_project_simplex_rows_match_qp_oracle(mat):
    ours = project_simplex(mat)
    for row, vec in zip(ours, mat):
        np.testing.assert_allclose(row, simplex_qp_oracle(vec), atol=1e-10)
    assert ours.min() > 0.0
    np.testing.assert_allclose(ours.sum(axis=1), 1.0, atol=1e-12)


@st.composite
def schedule_and_move(draw):
    """A simplex schedule with some entries on the floor (each row keeps a
    free entry) and a scaled move of the same shape."""
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 5))
    on_floor = draw(_rows(rows, cols, st.booleans()))
    on_floor[:, draw(st.integers(0, cols - 1))] = False
    mat = np.where(on_floor, 0.0, draw(_rows(rows, cols, st.floats(0.05, 1.0))))
    mat = np.maximum(mat / mat.sum(axis=1, keepdims=True), SIMPLEX_FLOOR)
    schedule = mat / mat.sum(axis=1, keepdims=True)
    return schedule, draw(_rows(rows, cols)) * draw(st.floats(0.3, 4.0))


@PROPERTY
@given(schedule_and_move())
def test_project_schedule_cone_matches_oracle(case):
    schedule, move = case
    ours = project_schedule_cone(schedule, move)
    np.testing.assert_allclose(ours, schedule_cone_oracle(schedule, move), atol=1e-12)
    assert np.max(np.abs(ours.sum(axis=1))) < 1e-12


@st.composite
def triples(draw):
    """Two tangent triples of one random shape: complex phase blocks of 1-6
    entries and a real schedule block of up to 3x4."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    rows, cols = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def one():
        ms1 = draw(_rows(2, m))
        ms2 = draw(_rows(2, n))
        return TangentTriple(
            ms1[0] + 1j * ms1[1], ms2[0] + 1j * ms2[1], draw(_rows(rows, cols))
        )

    return one(), one()


def _flat(triple):
    return np.concatenate([block.view(float).ravel() for block in triple])


@PROPERTY
@given(triples())
def test_inner_and_grad_norm_match_flat_real_dot(pair):
    a, b = pair
    scale = float(np.linalg.norm(_flat(a)) * np.linalg.norm(_flat(b)))
    assert abs(inner(a, b) - float(_flat(a) @ _flat(b))) <= 1e-12 * max(scale, 1.0)
    np.testing.assert_allclose(grad_norm(a), np.linalg.norm(_flat(a)), rtol=1e-12)
