import numpy as np
import pytest

from misopt import ArrayAngles, EvalContext, MisGeometry, Scenario, all_selections
from misopt.oracle import dense_selection_oracle

def _context(geom):
    """Signal model of a one-user scenario; only its placement table matters here."""
    broadside = ArrayAngles(0.0, 0.0)
    return EvalContext.from_scenario(
        Scenario(geom=geom, mis_arrival=broadside, users=[(broadside, 0.01)])
    )


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
    geom = MisGeometry(*dims)
    u_rows, u_cols, total = expected
    assert geom.num_patterns == total == u_rows * u_cols
    assert all_selections(geom).shape == (total, geom.num_ms2)


@pytest.mark.parametrize("dims", [(2, 2, 3, 1), (2, 2, 1, 3), (1, 1, 2, 2)])
def test_oversized_movable_layer_rejected(dims):
    with pytest.raises(ValueError, match="fit"):
        MisGeometry(*dims)


@pytest.mark.parametrize(
    "dims",
    [(0, 1, 1, 1), (1, 1, 0, 1), (2, -1, 1, 1),
     (True, True, True, True), (2, 2.0, 1, 1), (2, 2, 1.5, 1), (2, 2, 1, "1")],
)
def test_nonpositive_dims_rejected(dims):
    # bools, floats and strings are not positive integers either
    with pytest.raises(ValueError, match=r"^[mn]_(rows|cols) must be a positive integer"):
        MisGeometry(*dims)
    MisGeometry(np.int64(2), np.int32(2), np.int8(1), np.uint16(1))


def test_build_selection_two_element_column():
    geom = MisGeometry(2, 1, 1, 1)
    assert all_selections(geom).tolist() == [[0], [1]]
    padding = _context(geom).equiv_phases(np.zeros(1, dtype=complex))
    np.testing.assert_array_equal(padding, [[0, 1], [1, 0]])


def test_padding_count_matches_coordinate_oracle():
    geom = MisGeometry(8, 8, 6, 6)
    padding = _context(geom).equiv_phases(np.zeros(geom.num_ms2, dtype=complex))
    for u in range(geom.num_patterns):
        _, pad_oracle = dense_selection_oracle(geom, u + 1)
        assert int(padding[u].real.sum()) == 64 - 36 == int(pad_oracle.sum())
        np.testing.assert_array_equal(padding[u], pad_oracle)


def test_equivalent_phase_examples():
    ctx = _context(MisGeometry(2, 1, 1, 1))
    np.testing.assert_allclose(ctx.equiv_phases(np.array([1j]))[0], [1j, 1.0])

    geom = MisGeometry(3, 4, 2, 2)
    ones = np.ones(geom.num_ms2, dtype=complex)
    np.testing.assert_array_equal(
        _context(geom).equiv_phases(ones),
        np.ones((geom.num_patterns, geom.num_ms1), dtype=complex),
    )


def test_equivalent_phase_dimension_mismatch():
    ctx = _context(MisGeometry(3, 3, 2, 2))
    with pytest.raises(ValueError, match="shape"):
        ctx.equiv_phases(np.ones(3, dtype=complex))


def test_equivalent_phase_unit_modulus():
    rng = np.random.default_rng(3)
    geom = MisGeometry(5, 2, 2, 2)
    theta = np.exp(2j * np.pi * rng.random(geom.num_ms2))
    out = _context(geom).equiv_phases(theta)
    np.testing.assert_allclose(np.abs(out), 1.0, atol=1e-15)


@pytest.mark.parametrize("dims", [(3, 4, 2, 2), (2, 1, 1, 1), (5, 5, 5, 5)])
def test_flat_index_round_trip(dims):
    """Flat index ``u = (u_row - 1) * u_cols + u_col`` round-trips: row
    ``u - 1`` of the table puts the first movable element at ``(u_row, u_col)``."""
    geom = MisGeometry(*dims)
    u_cols = geom.m_cols - geom.n_cols + 1
    corners = [divmod(int(row[0]), geom.m_cols) for row in all_selections(geom)]
    for u, (row0, col0) in enumerate(corners, start=1):
        assert row0 * u_cols + col0 + 1 == u
        assert 0 <= col0 < u_cols


def test_selection_arrays_are_read_only():
    table = all_selections(MisGeometry(3, 3, 2, 2))
    with pytest.raises(ValueError):
        table[0, 0] = 5
    assert not _context(MisGeometry(3, 3, 2, 2)).sel_index.flags.writeable
