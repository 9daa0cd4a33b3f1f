"""Tests for truncated Fourier bases, grids, and transforms."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenop.basis import (
    AliasingError,
    FieldSample,
    Grid,
    TruncatedBasis,
    analyze,
    default_grid,
    evaluation_matrix,
    sample_function,
    synthesize,
)

TWO_PI = 2.0 * np.pi


def test_mode_order_is_lexicographic_most_significant_first():
    basis = TruncatedBasis((1, 2), ("base", "fiber"))
    modes = basis.modes
    assert modes.shape == (15, 2)
    assert tuple(modes[0]) == (-1, -2)
    assert tuple(modes[-1]) == (1, 2)
    # Second factor varies fastest.
    assert tuple(modes[1]) == (-1, -1)


def test_index_of_matches_mode_table():
    basis = TruncatedBasis((2, 3), ("base", "fiber"))
    for idx, mode in enumerate(basis.modes):
        assert basis.index_of(tuple(mode)) == idx


def test_index_of_rejects_out_of_band_mode():
    basis = TruncatedBasis((2,), ("fiber",))
    with pytest.raises(ValueError):
        basis.index_of((3,))


def test_size_and_subbases():
    basis = TruncatedBasis((2, 3, 4), ("base", "fiber", "fiber"))
    assert basis.size == 5 * 7 * 9
    assert basis.base_axes() == (0,)
    assert basis.fiber_axes() == (1, 2)
    assert basis.fiber_subbasis().cutoffs == (3, 4)
    assert basis.base_subbasis().cutoffs == (2,)


def test_invalid_role_rejected():
    with pytest.raises(ValueError):
        TruncatedBasis((2,), ("driver",))


def test_grid_weights_sum_to_one():
    grid = Grid((8, 6))
    assert grid.size == 48
    assert grid.weight * grid.size == pytest.approx(1.0)


def test_aliasing_guard():
    basis = TruncatedBasis((4,), ("fiber",))
    with pytest.raises(AliasingError):
        Grid((8,)).check_no_aliasing(basis)
    Grid((9,)).check_no_aliasing(basis)


def test_default_grid_is_alias_free():
    basis = TruncatedBasis((1, 5), ("base", "fiber"))
    grid = default_grid(basis)
    grid.check_no_aliasing(basis)
    assert grid.points == (4, 20)


def test_analyze_synthesize_round_trip_exact_mode():
    basis = TruncatedBasis((3, 3), ("base", "fiber"))
    grid = default_grid(basis)
    sample = sample_function(lambda pts: np.exp(1j * (2 * pts[:, 0] - pts[:, 1])), grid)
    coeffs = analyze(sample, basis)
    expected = np.zeros(basis.size, dtype=complex)
    expected[basis.index_of((2, -1))] = 1.0
    assert np.max(np.abs(coeffs - expected)) < 1e-13


def test_synthesize_then_analyze_is_identity():
    basis = TruncatedBasis((2, 2), ("base", "fiber"))
    grid = default_grid(basis)
    rng = np.random.default_rng(7)
    coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    back = analyze(synthesize(coeffs, basis, grid), basis)
    assert np.max(np.abs(back - coeffs)) < 1e-12


@settings(max_examples=25, deadline=None)
@given(st.integers(min_value=1, max_value=4), st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_round_trip_property(cutoff, seed):
    basis = TruncatedBasis((cutoff,), ("fiber",))
    grid = default_grid(basis)
    rng = np.random.default_rng(seed)
    coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    back = analyze(synthesize(coeffs, basis, grid), basis)
    assert np.max(np.abs(back - coeffs)) < 1e-10


def test_evaluate_at_agrees_with_synthesize_on_nodes():
    basis = TruncatedBasis((3,), ("fiber",))
    grid = default_grid(basis)
    rng = np.random.default_rng(3)
    coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    on_grid = synthesize(coeffs, basis, grid).values.ravel()
    direct = evaluation_matrix(basis, grid.nodes) @ coeffs
    assert np.max(np.abs(on_grid - direct)) < 1e-12


def test_field_sample_norm_parseval():
    basis = TruncatedBasis((4,), ("fiber",))
    grid = default_grid(basis)
    rng = np.random.default_rng(11)
    coeffs = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
    sample = synthesize(coeffs, basis, grid)
    assert sample.norm() == pytest.approx(float(np.linalg.norm(coeffs)), rel=1e-12)


def test_field_sample_reshapes_flat_input():
    grid = Grid((4, 4))
    sample = FieldSample(grid, np.arange(16, dtype=float))
    assert sample.values.shape == (4, 4)
