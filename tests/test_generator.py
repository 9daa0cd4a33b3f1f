"""Tests for Galerkin assembly, smoothing, and transfer matrices."""

import numpy as np
import pytest
from dataclasses import replace

from eigenop.basis import Grid, TruncatedBasis, default_grid
from eigenop.generator import (
    OperatorMatrix,
    assemble_fiber_koopman,
    assemble_generator,
    assemble_multiplication,
    cyclic_fiber_koopman,
    integer_fiber_koopman,
    interior_band_slice,
    skew_symmetry_residual,
    smoothed_generator,
    smoothing_weights,
    unitarity_residual,
)
from eigenop.systems import make_cyclic_group, make_gaussian_vortex, make_rotation, make_torus_translation, make_z_translation

ALPHA = 0.7
BETA = 0.5


def _rotation_setup(kb=4, kf=4):
    basis = TruncatedBasis((kb, kf), ("base", "fiber"))
    return make_rotation(ALPHA, BETA), basis, default_grid(basis)


def test_operator_matrix_shape_guard():
    basis = TruncatedBasis((1,), ("fiber",))
    with pytest.raises(ValueError):
        OperatorMatrix(basis, basis, np.zeros((2, 2)), "generator")


def test_operator_matrix_rejects_non_finite():
    basis = TruncatedBasis((1,), ("fiber",))
    bad = np.full((3, 3), np.nan, dtype=complex)
    with pytest.raises(ValueError):
        OperatorMatrix(basis, basis, bad, "generator")


def test_operator_matrix_entries_read_only():
    basis = TruncatedBasis((1,), ("fiber",))
    op = OperatorMatrix(basis, basis, np.eye(3, dtype=complex), "generator")
    with pytest.raises(ValueError):
        op.entries[0, 0] = 5.0


def test_rotation_generator_entries_closed_form():
    # Mode (k, j) maps to i(k + j*alpha) times itself plus two sidebands
    # of weight i*j*alpha*beta/2 at (k +- 1, j).
    system, basis, grid = _rotation_setup()
    V = assemble_generator(system, basis, grid)
    expected = np.zeros((basis.size, basis.size), dtype=complex)
    for col, (k, j) in enumerate(basis.modes):
        expected[col, col] = 1j * (k + ALPHA * j)
        for dk in (-1, 1):
            if abs(k + dk) <= basis.cutoffs[0]:
                row = basis.index_of((k + dk, j))
                expected[row, col] = 1j * j * ALPHA * BETA / 2.0
    assert np.max(np.abs(V.entries - expected)) < 1e-13


def test_generator_requires_base_leading_basis():
    system, _, _ = _rotation_setup()
    bad = TruncatedBasis((4, 4), ("fiber", "base"))
    with pytest.raises(ValueError):
        assemble_generator(system, bad, default_grid(bad))


def test_generator_skew_adjoint_on_interior_band():
    system, basis, grid = _rotation_setup(6, 6)
    V = assemble_generator(system, basis, grid)
    assert skew_symmetry_residual(V) < 1e-12


def test_compressible_velocity_breaks_skew_adjointness():
    # A z-dependent 1-d fiber velocity has nonzero divergence, so the
    # interior-band residual must flag it.
    system, basis, grid = _rotation_setup(6, 6)
    broken = replace(system, fiber_velocity=lambda y, z: np.sin(np.asarray(z, dtype=float)))
    V = assemble_generator(broken, basis, grid)
    good = assemble_generator(system, basis, grid)
    assert skew_symmetry_residual(V) > 0.1
    assert skew_symmetry_residual(good) < 1e-12


def test_vortex_generator_finite_and_skew():
    vortex = make_gaussian_vortex()
    basis = TruncatedBasis((3, 3, 3), ("base", "fiber", "fiber"))
    V = assemble_generator(vortex, basis, default_grid(basis, 6))
    assert np.all(np.isfinite(V.entries))
    assert skew_symmetry_residual(V) < 1e-4


def test_smoothing_weights_values_and_guards():
    basis = TruncatedBasis((2,), ("fiber",))
    w = smoothing_weights(basis, tau=0.3, p=1.0)
    expected = np.exp(-0.3 * np.abs(np.arange(-2, 3)))
    assert np.allclose(w.values, expected)
    with pytest.raises(ValueError):
        smoothing_weights(basis, tau=-1.0, p=1.0)
    with pytest.raises(ValueError):
        smoothing_weights(basis, tau=0.1, p=1.0, rule="bogus")


def test_alternate_smoothing_rule():
    basis = TruncatedBasis((1,), ("fiber",))
    w = smoothing_weights(basis, tau=0.2, p=1.0, rule="heat_kernel")
    expected = np.exp(0.2 * (1.0 - np.exp(np.abs(np.arange(-1, 2)))))
    assert np.allclose(w.values, expected)


def test_smoothed_generator_scalings():
    system, basis, grid = _rotation_setup(2, 2)
    V = assemble_generator(system, basis, grid)
    w = smoothing_weights(basis, tau=0.1, p=0.5)
    left = smoothed_generator(V, w)
    assert np.allclose(left.entries, w.values[:, None] * V.entries)
    sym = smoothed_generator(V, w, symmetric=True)
    root = np.sqrt(w.values)
    assert np.allclose(sym.entries, root[:, None] * V.entries * root[None, :])


def test_fiber_koopman_rotation_is_diagonal_phase():
    system = make_rotation(ALPHA, BETA)
    fib = TruncatedBasis((4,), ("fiber",))
    fgrid = default_grid(fib)
    y, s = 0.7, 0.6
    U = assemble_fiber_koopman(system, y, s, fib, fgrid)
    shift = ALPHA * (s + BETA * (np.sin(y + s) - np.sin(y)))
    expected = np.diag(np.exp(1j * fib.modes[:, 0] * shift))
    assert np.max(np.abs(U.entries - expected)) < 1e-12
    assert unitarity_residual(U) < 1e-12


def test_fiber_koopman_discrete_torus_iterates():
    map_ = make_torus_translation(4, gtilde=0.7)
    fib = TruncatedBasis((3,), ("fiber",))
    fgrid = default_grid(fib)
    U2 = assemble_fiber_koopman(map_, 0.2, 2, fib, fgrid)
    expected = np.diag(np.exp(1j * fib.modes[:, 0] * 1.4))
    assert np.max(np.abs(U2.entries - expected)) < 1e-12


def test_fiber_koopman_rejects_fractional_discrete_steps():
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((2,), ("fiber",))
    with pytest.raises(ValueError):
        assemble_fiber_koopman(map_, 0.0, 0.5, fib, default_grid(fib))


def test_cyclic_fiber_koopman_is_permutation():
    map_ = make_cyclic_group(6, 3)
    U = cyclic_fiber_koopman(map_, 0.2)
    assert np.allclose(U @ U.conj().T, np.eye(6))
    assert np.all(np.isin(U.real, (0.0, 1.0)))
    # Shift below pi is 1: delta at w maps to the function value at w+1.
    assert U[0, 1] == 1.0


def test_integer_fiber_koopman_is_phase_multiplication():
    map_ = make_z_translation(4, gtilde=2)
    fib = TruncatedBasis((3,), ("fiber",))
    fgrid = default_grid(fib)
    U = integer_fiber_koopman(map_, 0.1, fib, fgrid)
    # Multiplication by e^{2i omega} shifts frequencies by two.
    col = fib.index_of((0,))
    row = fib.index_of((2,))
    assert abs(U.entries[row, col] - 1.0) < 1e-12
    assert abs(U.entries[col, col]) < 1e-12


def test_multiplication_operator_is_toeplitz_shift():
    fib = TruncatedBasis((3,), ("fiber",))
    fgrid = default_grid(fib)
    M = assemble_multiplication(lambda pts: np.exp(1j * pts[:, 0]), fib, fgrid)
    expected = np.zeros((fib.size, fib.size), dtype=complex)
    for col, (m,) in enumerate(fib.modes):
        if abs(m + 1) <= 3:
            expected[fib.index_of((m + 1,)), col] = 1.0
    assert np.max(np.abs(M.entries - expected)) < 1e-13


def test_interior_band_slice_half_cutoffs():
    basis = TruncatedBasis((4, 6), ("base", "fiber"))
    idx = interior_band_slice(basis)
    kept = basis.modes[idx]
    assert np.all(np.abs(kept[:, 0]) <= 2)
    assert np.all(np.abs(kept[:, 1]) <= 3)
    assert len(idx) == 5 * 7
