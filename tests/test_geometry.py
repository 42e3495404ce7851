import numpy as np
import pytest

from misopt import (
    MisGeometry,
    all_selections,
    all_shift_positions,
    build_selection,
    equivalent_phase,
    pattern_grid,
    shift_from_flat,
    shift_position,
)
from helpers import dense_selection_oracle


@pytest.mark.parametrize(
    "dims, expected",
    [
        ((8, 8, 6, 6), (3, 3, 9)),
        ((2, 1, 1, 1), (2, 1, 2)),
        ((3, 5, 3, 5), (1, 1, 1)),
        ((7, 2, 7, 2), (1, 1, 1)),
        ((1, 64, 1, 36), (1, 29, 29)),
    ],
)
def test_pattern_grid(dims, expected):
    assert pattern_grid(MisGeometry(*dims)) == expected


@pytest.mark.parametrize("dims", [(2, 2, 3, 1), (2, 2, 1, 3), (1, 1, 2, 2)])
def test_oversized_movable_layer_rejected(dims):
    with pytest.raises(ValueError, match="fit"):
        MisGeometry(*dims)


@pytest.mark.parametrize("dims", [(0, 1, 1, 1), (1, 1, 0, 1), (2, -1, 1, 1)])
def test_nonpositive_dims_rejected(dims):
    with pytest.raises(ValueError):
        MisGeometry(*dims)


@pytest.mark.parametrize("spacing", [0.0, float("inf"), float("nan")])
def test_bad_spacing_rejected(spacing):
    with pytest.raises(ValueError, match="spacing_over_lambda"):
        MisGeometry(2, 2, 1, 1, spacing_over_lambda=spacing)


def test_build_selection_two_element_column():
    geom = MisGeometry(2, 1, 1, 1)
    first = build_selection(geom, shift_from_flat(geom, 1))
    assert first.ms1_index.tolist() == [0]
    assert first.padding.tolist() == [0, 1]
    second = build_selection(geom, shift_from_flat(geom, 2))
    assert second.ms1_index.tolist() == [1]
    assert second.padding.tolist() == [1, 0]


def test_padding_count_matches_coordinate_oracle():
    geom = MisGeometry(8, 8, 6, 6)
    for pos in all_shift_positions(geom):
        sel = build_selection(geom, pos)
        _, pad_oracle = dense_selection_oracle(geom, pos.u_row, pos.u_col)
        assert int(sel.padding.sum()) == 64 - 36 == int(pad_oracle.sum())
        assert np.array_equal(sel.padding, pad_oracle)


def test_out_of_grid_shift_rejected():
    geom = MisGeometry(3, 3, 2, 2)
    with pytest.raises(ValueError):
        shift_position(geom, 3, 1)
    with pytest.raises(ValueError):
        shift_from_flat(geom, 5)
    good = shift_position(geom, 2, 2)
    bad = type(good)(u_row=3, u_col=1, u=99)
    with pytest.raises(ValueError):
        build_selection(geom, bad)


def test_equivalent_phase_examples():
    geom = MisGeometry(2, 1, 1, 1)
    sel = build_selection(geom, shift_from_flat(geom, 1))
    np.testing.assert_allclose(equivalent_phase(np.array([1j]), sel), [1j, 1.0])

    geom = MisGeometry(3, 4, 2, 2)
    for sel in all_selections(geom):
        ones = np.ones(geom.num_ms2, dtype=complex)
        np.testing.assert_array_equal(
            equivalent_phase(ones, sel), np.ones(geom.num_ms1, dtype=complex)
        )


def test_equivalent_phase_matches_dense_oracle():
    rng = np.random.default_rng(7)
    geom = MisGeometry(4, 3, 2, 2)
    for pos in all_shift_positions(geom):
        sel = build_selection(geom, pos)
        theta = np.exp(2j * np.pi * rng.random(geom.num_ms2))
        dense, padding = dense_selection_oracle(geom, pos.u_row, pos.u_col)
        expected = dense @ theta + padding
        np.testing.assert_allclose(equivalent_phase(theta, sel), expected, atol=1e-15)


def test_equivalent_phase_dimension_mismatch():
    geom = MisGeometry(3, 3, 2, 2)
    sel = build_selection(geom, shift_from_flat(geom, 1))
    with pytest.raises(ValueError, match="shape"):
        equivalent_phase(np.ones(3, dtype=complex), sel)


def test_equivalent_phase_unit_modulus():
    rng = np.random.default_rng(3)
    geom = MisGeometry(5, 2, 2, 2)
    for sel in all_selections(geom):
        theta = np.exp(2j * np.pi * rng.random(geom.num_ms2))
        out = equivalent_phase(theta, sel)
        np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-15)


@pytest.mark.parametrize(
    "dims", [(2, 1, 1, 1), (3, 3, 2, 2), (4, 2, 2, 2), (8, 8, 6, 6), (1, 6, 1, 3)]
)
def test_selection_identities_across_grid(dims):
    geom = MisGeometry(*dims)
    u_rows, u_cols, total = pattern_grid(geom)
    assert total == u_rows * u_cols >= 1
    covered = set()
    for pos in all_shift_positions(geom):
        sel = build_selection(geom, pos)
        dense = sel.dense()
        # injectivity: S^T S is the identity on the movable layer
        np.testing.assert_allclose(dense.T @ dense, np.eye(geom.num_ms2), atol=0)
        # partition: covered plus padded entries tile the fixed layer
        np.testing.assert_allclose(dense.sum(axis=1) + sel.padding, 1.0, atol=0)
        covered.update(sel.ms1_index.tolist())
    assert covered == set(range(geom.num_ms1))


@pytest.mark.parametrize("dims", [(3, 4, 2, 2), (2, 1, 1, 1), (5, 5, 5, 5)])
def test_flat_index_round_trip(dims):
    geom = MisGeometry(*dims)
    for pos in all_shift_positions(geom):
        assert shift_from_flat(geom, pos.u) == pos
        assert shift_position(geom, pos.u_row, pos.u_col) == pos


def test_selection_arrays_are_read_only():
    geom = MisGeometry(3, 3, 2, 2)
    sel = build_selection(geom, shift_from_flat(geom, 1))
    with pytest.raises(ValueError):
        sel.ms1_index[0] = 5
