"""Tests for cocycle products, transported fields, and the product check."""

import numpy as np
import pytest

from eigenop.basis import Grid, TruncatedBasis, default_grid, evaluation_matrix
from eigenop.cocycle import (
    build_test_vector,
    continuous_w,
    discrete_w,
    hatw_field,
    koopman_correspondence_check,
)
from eigenop.generator import assemble_fiber_koopman
from eigenop.oseledets import FiberSubspace
from eigenop.systems import make_gaussian_vortex, make_rotation, make_torus_translation
from test_generator import unitarity_residual

ALPHA = 0.7
BETA = 0.5
TWO_PI = 2.0 * np.pi


def _orbit_transfers(map_, fib, y):
    """The fiber transfers at y, h(y), ..., h^{n-1}(y), as a periodic setup holds them."""
    fgrid = default_grid(fib)
    return [assemble_fiber_koopman(map_, w, fib, fgrid) for w in map_.base_orbit(y)]


# A shift that varies with y, so each orbit point has its own transfer.
VARYING_SHIFT = lambda y: 0.7 + 0.3 * np.sin(y)


def test_discrete_w_identity_at_zero():
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((2,), ("fiber",))
    w0 = discrete_w(_orbit_transfers(map_, fib, 0.3), 0)
    assert np.allclose(w0, np.eye(fib.size))


def test_discrete_w_cocycle_property():
    # w_{i+j}(y) = w_i(y) w_j(h^i(y)) for nonnegative steps; the orbit of
    # h^i(y) visits the same points, starting i steps later.
    map_ = make_torus_translation(4, gtilde=VARYING_SHIFT)
    fib = TruncatedBasis((3,), ("fiber",))
    transfers = _orbit_transfers(map_, fib, 0.9)
    i, j = 2, 3
    shifted = transfers[i:] + transfers[:i]
    left = discrete_w(transfers, i + j)
    right = discrete_w(transfers, i) @ discrete_w(shifted, j)
    assert np.max(np.abs(left - right)) < 1e-12
    # Without the shift the product takes the wrong transfers.
    assert np.max(np.abs(left - discrete_w(transfers, i) @ discrete_w(transfers, j))) > 1e-3


def test_discrete_w_negative_inverts_positive():
    # For unitary transfers, w_{-i}(h^i(y)) inverts w_i(y).
    map_ = make_torus_translation(4, gtilde=VARYING_SHIFT)
    fib = TruncatedBasis((3,), ("fiber",))
    transfers = _orbit_transfers(map_, fib, 0.4)
    i = 2
    forward = discrete_w(transfers, i)
    backward = discrete_w(transfers[i:] + transfers[:i], -i)
    assert np.max(np.abs(forward @ backward - np.eye(fib.size))) < 1e-10


def test_continuous_w_apply_rotation_phase():
    sys_ = make_rotation(ALPHA, BETA)
    fib = TruncatedBasis((3,), ("fiber",))
    fgrid = default_grid(fib)
    y, s, j = 0.6, 0.8, 2
    u = np.zeros(fib.size, dtype=complex)
    u[fib.index_of((j,))] = 1.0
    field = continuous_w(sys_, y, s, fib, fgrid)(u)
    shift = ALPHA * (s + BETA * (np.sin(y + s) - np.sin(y)))
    expected = np.exp(1j * j * (fgrid.nodes[:, 0] + shift))
    assert np.max(np.abs(field.values.ravel() - expected)) < 1e-12


def test_continuous_w_apply_zero_time_is_synthesis():
    sys_ = make_rotation(ALPHA, BETA)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(fib.size) + 1j * rng.standard_normal(fib.size)
    field = continuous_w(sys_, 0.1, 0.0, fib, fgrid)(u)
    direct = np.exp(1j * fgrid.nodes[:, 0][:, None] * fib.modes[:, 0]) @ u
    assert np.max(np.abs(field.values.ravel() - direct)) < 1e-12


def test_continuous_w_at_zero_time_needs_no_alias_free_grid():
    # Evaluation at points takes no transform, so a grid coarser than the
    # band is fine: 4 points per axis against 2K + 1 = 5 modes.
    sys_ = make_gaussian_vortex()
    fib = TruncatedBasis((2, 2), ("fiber", "fiber"))
    fgrid = Grid((4, 4))
    rng = np.random.default_rng(1)
    u = rng.standard_normal(fib.size) + 1j * rng.standard_normal(fib.size)
    field = continuous_w(sys_, 0.4, 0.0, fib, fgrid)(u)
    direct = evaluation_matrix(fib, fgrid.nodes) @ u
    assert np.max(np.abs(field.values.ravel() - direct)) < 1e-12


def test_hatw_field_projects_before_transport():
    sys_ = make_rotation(ALPHA, BETA)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    frame = np.zeros((fib.size, 1), dtype=complex)
    frame[fib.index_of((1,)), 0] = 1.0
    sub = FiberSubspace(0.0, frame)
    u = np.ones(fib.size, dtype=complex)
    field = hatw_field(sub, u, continuous_w(sys_, 0.0, 0.0, fib, fgrid))
    expected = np.exp(1j * fgrid.nodes[:, 0])
    assert np.max(np.abs(field.values.ravel() - expected)) < 1e-12


def test_build_test_vector_averages_restrictions():
    basis = TruncatedBasis((1, 1), ("base", "fiber"))
    fib = basis.fiber_subbasis()
    vecs = np.zeros((basis.size, 2), dtype=complex)
    vecs[basis.index_of((0, 1)), 0] = 1.0
    vecs[basis.index_of((0, -1)), 1] = 1.0
    q = build_test_vector(vecs, basis, 0.0, 2)
    expected = np.zeros(fib.size, dtype=complex)
    expected[fib.index_of((1,))] = 0.5
    expected[fib.index_of((-1,))] = 0.5
    assert np.max(np.abs(q - expected)) < 1e-12
    with pytest.raises(ValueError):
        build_test_vector(vecs, basis, 0.0, 3)


def test_koopman_correspondence_small_grid():
    map_ = make_torus_translation(4)
    basis = TruncatedBasis((3, 3), ("base", "fiber"))
    report = koopman_correspondence_check(map_, basis, default_grid(basis), test_count=3)
    assert report["max_discrepancy"] < 1e-10


def test_koopman_correspondence_requires_torus_fiber():
    from eigenop.systems import make_cyclic_group

    basis = TruncatedBasis((2, 2), ("base", "fiber"))
    with pytest.raises(ValueError):
        koopman_correspondence_check(make_cyclic_group(), basis, default_grid(basis))


def test_unitarity_discrepancy_on_transfer():
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((4,), ("fiber",))
    fgrid = default_grid(fib)
    U = assemble_fiber_koopman(map_, 0.2, fib, fgrid)
    assert unitarity_residual(U, fib) < 1e-12
