"""Tests for Galerkin assembly, smoothing, and transfer matrices."""

import numpy as np
import pytest
from dataclasses import replace

from eigenop.basis import Grid, TruncatedBasis, default_grid
from eigenop.generator import (
    BlockOperator,
    SmoothingWeights,
    assemble_fiber_koopman,
    assemble_generator,
    cyclic_fiber_koopman,
    interior_band_slice,
    skew_symmetry_residual,
    smoothed_generator,
)
from eigenop.systems import (
    make_cyclic_group,
    make_gaussian_vortex,
    make_rotation,
    make_torus_translation,
)
from test_systems import validate_system

ALPHA = 0.7
BETA = 0.5


def unitarity_residual(U: np.ndarray, basis: TruncatedBasis) -> float:
    """Spectral norm of U*U - I restricted to the interior half band of basis."""
    idx = interior_band_slice(basis)
    gram = U.conj().T @ U
    sub = gram[np.ix_(idx, idx)] - np.eye(len(idx))
    return float(np.linalg.norm(sub, ord=2))


def _rotation_setup(kb=4, kf=4):
    basis = TruncatedBasis((kb, kf), ("base", "fiber"))
    return make_rotation(ALPHA, BETA), basis, default_grid(basis)


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
    assert np.max(np.abs(V[:] - expected)) < 1e-13


def test_generator_requires_base_leading_basis():
    system, _, _ = _rotation_setup()
    bad = TruncatedBasis((4, 4), ("fiber", "base"))
    with pytest.raises(ValueError):
        assemble_generator(system, bad, default_grid(bad))


def test_generator_skew_adjoint_on_interior_band():
    system, basis, grid = _rotation_setup(6, 6)
    V = assemble_generator(system, basis, grid)
    assert skew_symmetry_residual(V) < 1e-12


def test_skew_symmetry_residual_flags_a_non_skew_operator():
    system, basis, grid = _rotation_setup(6, 6)
    good = assemble_generator(system, basis, grid)
    shifted = BlockOperator(basis, good.blocks, [B + 0.1 * np.eye(len(B)) for B in good.matrices], "generator")
    assert skew_symmetry_residual(shifted) > 0.1
    assert skew_symmetry_residual(good) < 1e-12


def test_compressible_velocity_is_flagged_by_validate_system():
    # The skew-symmetric assembly is skew for any velocity, so a z-dependent
    # 1-d fiber velocity, which has nonzero divergence, is caught upstream.
    broken = replace(make_rotation(ALPHA, BETA), fiber_velocity=lambda y, z: np.sin(np.asarray(z, dtype=float)))
    checks = {c["name"]: c for c in validate_system(broken)["checks"]}
    assert not checks["fiber_divergence_free"]["passed"]


def test_vortex_generator_finite_and_skew():
    vortex = make_gaussian_vortex()
    basis = TruncatedBasis((3, 3, 3), ("base", "fiber", "fiber"))
    V = assemble_generator(vortex, basis, default_grid(basis, 6))
    assert np.all(np.isfinite(V[:]))
    assert skew_symmetry_residual(V) < 1e-12


def test_smoothing_weights_values_and_guards():
    basis = TruncatedBasis((2,), ("fiber",))
    w = SmoothingWeights(basis, tau=0.3, p=1.0)
    expected = np.exp(-0.3 * np.abs(np.arange(-2, 3)))
    assert np.allclose(w.values, expected)
    with pytest.raises(ValueError):
        SmoothingWeights(basis, tau=-1.0, p=1.0)
    # sum_d |m_d|^3 is 81 at the 8 corners (+-3, +-3, +-3) and at most 62
    # elsewhere; e^-x underflows to 0 past x = 745.
    cube = TruncatedBasis((3, 3, 3), ("base", "fiber", "fiber"))
    assert np.all(SmoothingWeights(cube, tau=9.0, p=3.0).values > 0)
    with pytest.raises(ValueError, match=r"tau = 10, p = 3 underflows 8 of 343 weights to 0"):
        SmoothingWeights(cube, tau=10.0, p=3.0)


def test_smoothed_generator_scalings():
    system, basis, grid = _rotation_setup(2, 2)
    V = assemble_generator(system, basis, grid)
    w = SmoothingWeights(basis, tau=0.1, p=0.5)
    left = smoothed_generator(V, w)
    assert np.allclose(left[:], w.values[:, None] * V[:])
    assert {key: left.meta[key] for key in ("tau", "p")} == {"tau": 0.1, "p": 0.5}
    assert not {"rule", "symmetric"} & set(left.meta)


def test_fiber_koopman_torus_translation_is_diagonal_phase():
    map_ = make_torus_translation(4, gtilde=0.7)
    fib = TruncatedBasis((3,), ("fiber",))
    U = assemble_fiber_koopman(map_, 0.2, fib, default_grid(fib))
    expected = np.diag(np.exp(1j * fib.modes[:, 0] * 0.7))
    assert np.max(np.abs(U - expected)) < 1e-12
    assert unitarity_residual(U, fib) < 1e-12
    with pytest.raises(ValueError):
        assemble_fiber_koopman(make_cyclic_group(6, 3), 0.2, fib, default_grid(fib))


def test_cyclic_fiber_koopman_is_permutation():
    map_ = make_cyclic_group(6, 3)
    U = cyclic_fiber_koopman(map_, 0.2)
    assert np.allclose(U @ U.conj().T, np.eye(6))
    assert np.all(np.isin(U.real, (0.0, 1.0)))
    # Shift below pi is 1: delta at w maps to the function value at w+1.
    assert U[0, 1] == 1.0


def test_interior_band_slice_half_cutoffs():
    basis = TruncatedBasis((4, 6), ("base", "fiber"))
    idx = interior_band_slice(basis)
    kept = basis.modes[idx]
    assert np.all(np.abs(kept[:, 0]) <= 2)
    assert np.all(np.abs(kept[:, 1]) <= 3)
    assert len(idx) == 5 * 7
