"""Tests for cocycle products, transported fields, and the product check."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from eigenop import cocycle
from eigenop.basis import FieldSample, Grid, TruncatedBasis, default_grid, evaluation_matrix
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
    # Each vector is projected onto its own subspace: modes 1 and -2.
    sys_ = make_rotation(ALPHA, BETA)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    subspaces = []
    for j in (1, -2):
        frame = np.zeros((fib.size, 1), dtype=complex)
        frame[fib.index_of((j,)), 0] = 1.0
        subspaces.append(FiberSubspace(0.0, frame))
    u = np.ones(fib.size, dtype=complex)
    fields = hatw_field(subspaces, [u, 2 * u], continuous_w(sys_, 0.0, 0.0, fib, fgrid))
    assert len(fields) == 2
    for field, j, scale in zip(fields, (1, -2), (1, 2)):
        expected = scale * np.exp(1j * j * fgrid.nodes[:, 0])
        assert np.max(np.abs(field.values.ravel() - expected)) < 1e-12


def _unchunked_w(targets: np.ndarray, cutoffs: tuple, u: np.ndarray) -> np.ndarray:
    """continuous_w's evaluation before chunking: every axis's factors at
    every flowed point, built once, and one vector per call."""
    factors = [np.exp(1j * np.outer(np.arange(-k, k + 1), targets[:, d])) for d, k in enumerate(cutoffs)]
    t = np.asarray(u, dtype=complex).reshape(tuple(2 * k + 1 for k in cutoffs)) @ factors[-1]
    for f in reversed(factors[:-1]):
        t = np.einsum("...ap,ap->...p", t, f)
    return t


# system, fiber cutoffs, grid, y, s
W_CASES = {
    # RK4-flowed at s != 0, on 50 x 41 = 2050 points: no chunk length below divides them.
    "vortex": (make_gaussian_vortex(0.5), (6, 6), Grid((50, 41)), 0.4, 0.3),
    # 683 x 3 = 2049 points: at each chunk length below, the last point joins the chunk before it.
    "vortex-tail": (make_gaussian_vortex(0.5), (6, 6), Grid((683, 3)), 0.4, 0.3),
    # The fiber of test_continuous_w_apply_rotation_phase, on 41 points. A
    # 1-d fiber contracts by matrix-vector products, which BLAS splits
    # across threads on large grids; 41 points stay on one thread. At a
    # chunk of 8 the last point joins the chunk before it.
    "rotation": (make_rotation(ALPHA, BETA), (3,), Grid((41,)), 0.6, 0.8),
}


@pytest.mark.parametrize("chunk", [None, 512, 8], ids=["default", "512", "8"])
@pytest.mark.parametrize("case", sorted(W_CASES))
def test_a_stack_of_fields_keeps_the_bits_of_one_vector_over_all_points(case, chunk, monkeypatch):
    system, cutoffs, grid, y, s = W_CASES[case]
    if chunk is not None:
        monkeypatch.setattr(cocycle, "_FIELD_CHUNK", chunk)
    fib = TruncatedBasis(cutoffs, ("fiber",) * len(cutoffs))
    rng = np.random.default_rng(3)
    stack = rng.standard_normal((3, fib.size)) + 1j * rng.standard_normal((3, fib.size))
    targets = system.fiber_flow(s, y, grid.nodes)
    w = continuous_w(system, y, s, fib, grid)
    fields = w(stack)
    assert len(fields) == len(stack)
    for field, u in zip(fields, stack):
        assert field.values.shape == grid.shape
        assert np.array_equal(field.values.ravel().view(np.uint64), _unchunked_w(targets, cutoffs, u).view(np.uint64))
    # A single vector still gives one FieldSample.
    single = w(stack[1])
    assert isinstance(single, FieldSample)
    assert np.array_equal(single.values.view(np.uint64), fields[1].values.view(np.uint64))


def test_a_stack_of_fields_holds_one_chunk_of_mode_factors_at_a_time():
    """The tracemalloc peak while F fields are evaluated on 128 x 128 points at K = 6.

    The bound, from the code: the F * P * 16 bytes of output, plus twice
    one chunk's factors, sum_d (2 K_d + 1) * _FIELD_CHUNK * 16 bytes, plus
    64 KiB for the Python objects. Twice, as a chunk's factors are held
    while its contraction makes one more array of at most one axis's
    factors, and while the last axis's factors are built, its complex
    argument and its exponential are held together. The flow is whole by
    design; it is computed before tracing starts. Holding every point's
    factors at once, sum_d (2 K_d + 1) * P * 16 = 6.8 MB, breaks the bound.
    """
    system = make_gaussian_vortex(0.5)
    fib = TruncatedBasis((6, 6), ("fiber", "fiber"))
    grid = Grid((128, 128))
    targets = system.fiber_flow(0.3, 0.4, grid.nodes)
    flowed = replace(system, closed_form_fiber_flow=lambda s, y, z: targets)
    rng = np.random.default_rng(4)
    stack = rng.standard_normal((3, fib.size)) + 1j * rng.standard_normal((3, fib.size))
    tracemalloc.start()
    try:
        fields = continuous_w(flowed, 0.4, 0.3, fib, grid)(stack)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(fields) == 3
    chunk_factors = sum(2 * k + 1 for k in fib.cutoffs) * cocycle._FIELD_CHUNK * 16
    bound = len(stack) * grid.size * 16 + 2 * chunk_factors + 64 * 1024
    assert peak < bound, f"peak {peak / 1e6:.2f} MB against {bound / 1e6:.2f} MB"


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
