"""Tests for spectral bins and base-indexed fiber subspace families."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenop.basis import TruncatedBasis, default_grid
from eigenop.generator import assemble_fiber_koopman, cyclic_fiber_koopman
from eigenop.oseledets import (
    RANK_THRESHOLD,
    BinBoundaryWarning,
    FiberSubspace,
    SpectralBin,
    arc_bin,
    check_bin_family,
    completeness_defect,
    cyclic_block_matrix,
    equivariance_residual,
    isolating_bins,
    orthonormalize,
    _phase,
    periodic_setup,
    periodic_subspaces,
    principal_angle_distance,
    restrict_at_base,
)
from eigenop.systems import make_cyclic_group, make_torus_translation

TWO_PI = 2.0 * np.pi


def test_spectral_bin_contains_and_width():
    b = SpectralBin(((0.0, 1.0), (3.0, 4.0)))
    assert b.contains(0.5) and b.contains(3.0)
    assert not b.contains(1.0) and not b.contains(2.0)
    assert b.width == pytest.approx(2.0)


def test_spectral_bin_rejects_bad_arcs():
    with pytest.raises(ValueError):
        SpectralBin(((1.0, 0.5),))
    with pytest.raises(ValueError):
        SpectralBin(())


def test_boundary_distance_wraps_the_circle():
    b = arc_bin(0.1, 1.0)
    assert b.boundary_distance(TWO_PI - 0.05) == pytest.approx(0.15)


def test_boundary_distance_skips_the_seam_inside_a_bin():
    wrap = SpectralBin(((0.0, 1.0), (5.0, TWO_PI)))
    assert wrap.boundary_distance(0.0) == pytest.approx(1.0)
    # A bin on one side of the seam has a real edge there.
    assert arc_bin(0.0, 1.0).boundary_distance(0.0) == 0.0
    assert arc_bin(0.0, TWO_PI).boundary_distance(1.0) == np.inf


def test_bin_tests_are_elementwise_on_arrays():
    b = SpectralBin(((0.0, 1.0), (3.0, 4.0)))
    phases = np.array([0.5, 1.0, 2.0, 3.0, TWO_PI - 0.05])
    assert b.contains(phases).tolist() == [b.contains(float(p)) for p in phases]
    assert b.boundary_distance(phases).tolist() == [b.boundary_distance(float(p)) for p in phases]


def test_phase_folds_the_seam_to_zero():
    assert np.mod(np.angle(np.exp(-1e-17j)), TWO_PI) == TWO_PI
    assert _phase(np.exp(-1e-17j)) == 0.0


@pytest.mark.parametrize("kind", ["torus", "cyclic"])
def test_every_block_eigenvector_lands_in_one_bin(kind):
    # Over these y-samples the cyclic map has 32 block eigenvalues whose
    # unfolded phase is exactly 2pi.
    fib = TruncatedBasis((4,), ("fiber",))
    if kind == "torus":
        map_, args = make_torus_translation(4, gtilde=0.7), (fib, default_grid(fib))
    else:
        map_, args = make_cyclic_group(6, 3), ()
    for y in np.linspace(0.0, TWO_PI, 64, endpoint=False):
        setup = periodic_setup(map_, y, *args)
        values = np.linalg.eig(cyclic_block_matrix(setup.transfers))[0]
        hits = sum(b.contains(_phase(values)).astype(int) for b in setup.bins)
        assert np.all(hits == 1), y


def test_check_bin_family_flags_gap():
    bins = [arc_bin(0.0, 1.0), arc_bin(1.5, TWO_PI)]
    with pytest.raises(ValueError):
        check_bin_family(bins)


def test_isolating_bins_separates_root_ladders():
    # Two period-3 ladders: cube roots of 1 and of e^{i}, interleaved on
    # the circle. Each bin must contain exactly the three roots of one
    # ladder and the family must cover the circle disjointly.
    n = 3
    roots_a = [np.exp(2j * np.pi * k / n) for k in range(n)]
    roots_b = [np.exp(1j * (1.0 + 2 * np.pi * k) / n) for k in range(n)]
    bins = isolating_bins(np.array(roots_a + roots_b), n)
    assert len(bins) == 2
    check_bin_family(bins)
    for lam_set in (roots_a, roots_b):
        hits = [sum(b.contains(float(np.mod(np.angle(l), TWO_PI))) for l in lam_set) for b in bins]
        assert sorted(hits) == [0, n]


def test_isolating_bins_single_group_is_full_circle():
    lam = np.exp(2j * np.pi * np.arange(4) / 4)
    bins = isolating_bins(lam, 4)
    assert len(bins) == 1
    assert bins[0].width == pytest.approx(TWO_PI)


def test_isolating_bins_ignores_tiny_eigenvalues():
    lam = np.array([1.0, -1.0, 1e-12, 1j * 1e-9])
    bins = isolating_bins(lam, 2)
    assert len(bins) == 1


def test_orthonormalize_produces_orthonormal_frame():
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    q = orthonormalize(cols)
    assert q.shape == (8, 4)
    assert np.max(np.abs(q.conj().T @ q - np.eye(4))) < 1e-12


def test_orthonormalize_drops_dependent_columns():
    v = np.ones((5, 1), dtype=complex)
    cols = np.concatenate([v, 2 * v, v + 1e-14], axis=1)
    q = orthonormalize(cols)
    assert q.shape[1] == 1


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=2 ** 31 - 1),
    st.integers(min_value=1, max_value=8),
    st.integers(min_value=1, max_value=6),
    st.integers(min_value=0, max_value=6),
    st.floats(min_value=-12.0, max_value=12.0),
)
def test_orthonormalize_spans_input_property(seed, nrows, ncols, rank, log_scale):
    # Columns of a given rank, so some inputs have dependent columns to drop.
    rng = np.random.default_rng(seed)
    rank = min(rank, nrows, ncols)
    left = rng.standard_normal((nrows, rank)) + 1j * rng.standard_normal((nrows, rank))
    right = rng.standard_normal((rank, ncols)) + 1j * rng.standard_normal((rank, ncols))
    cols = (left @ right) * 10.0 ** log_scale
    q = orthonormalize(cols)
    assert q.shape[0] == nrows and q.shape[1] <= ncols
    assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])), initial=0.0) <= 1e-12
    # Every input column lies in the span of the output frame, up to the
    # drop threshold relative to the largest column norm (at least 1).
    scale = max(np.linalg.norm(cols, axis=0).max(), 1.0)
    resid = np.linalg.norm(cols - q @ (q.conj().T @ cols), axis=0)
    assert np.all(resid <= RANK_THRESHOLD * scale * (1.0 + 1e-6))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=False), min_size=1, max_size=16))
@example([complex(1.0, -1e-17), complex(1.0, -0.0), complex(-1.0, -0.0), 0j])
def test_phase_lies_in_half_open_circle(values):
    phases = _phase(np.array(values, dtype=complex))
    assert np.all((phases >= 0.0) & (phases < TWO_PI))


def test_restrict_at_base_rank_one_product_vector():
    basis = TruncatedBasis((2, 2), ("base", "fiber"))
    fib = basis.fiber_subbasis()
    rng = np.random.default_rng(1)
    vb = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    uf = rng.standard_normal(fib.size) + 1j * rng.standard_normal(fib.size)
    vec = np.kron(vb, uf)[:, None]
    y = 0.7
    sub = restrict_at_base(vec, basis, y, 1)
    # The restriction of a product vector is proportional to its fiber part.
    direction = uf / np.linalg.norm(uf)
    overlap = abs(direction.conj() @ sub.frame[:, 0])
    assert overlap == pytest.approx(1.0, abs=1e-12)
    assert sub.effective_rank == 1
    assert np.max(np.abs(sub.frame.conj().T @ sub.frame - np.eye(1))) < 1e-12


def test_restrict_at_base_warns_on_rank_deficiency():
    basis = TruncatedBasis((1, 1), ("base", "fiber"))
    vec = np.zeros((basis.size, 2), dtype=complex)
    vec[0, 0] = 1.0
    vec[0, 1] = 1.0
    with pytest.warns(UserWarning, match="rank deficient"):
        restrict_at_base(vec, basis, 0.0, 2)


def test_cyclic_block_matrix_layout():
    mats = [np.full((2, 2), float(k)) for k in (1, 2, 3)]
    big = cyclic_block_matrix(mats)
    # Row 0 holds the transfer at the next orbit point in block column 1.
    assert np.allclose(big[0:2, 2:4], mats[1])
    assert np.allclose(big[2:4, 4:6], mats[2])
    # The wrap-around row applies the transfer at the starting point.
    assert np.allclose(big[4:6, 0:2], mats[0])


def _torus_setup(y0=0.3):
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((3,), ("fiber",))
    fgrid = default_grid(fib)
    transfers = [
        assemble_fiber_koopman(map_, w, 1, fib, fgrid).entries for w in map_.base_orbit(y0)
    ]
    return map_, transfers


def test_periodic_subspaces_equivariant_and_complete():
    y0 = 0.3
    map_, transfers = _torus_setup(y0)
    values = np.linalg.eigvals(cyclic_block_matrix(transfers))
    bins = isolating_bins(values, map_.base_period)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinBoundaryWarning)
        families = periodic_subspaces(map_, y0, transfers, bins)
    n = map_.base_period
    for family in families:
        assert family[0].y == pytest.approx(y0)
        for m in range(n):
            assert equivariance_residual(family[(m + 1) % n], family[m], transfers[m]) < 1e-10
    for m in range(n):
        assert completeness_defect([f[m] for f in families]) < 1e-10


def test_periodic_subspaces_cyclic_fiber():
    map_ = make_cyclic_group(6, 3)
    y0 = 0.9
    transfers = [cyclic_fiber_koopman(map_, w) for w in map_.base_orbit(y0)]
    values = np.linalg.eigvals(cyclic_block_matrix(transfers))
    bins = isolating_bins(values, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinBoundaryWarning)
        families = periodic_subspaces(map_, y0, transfers, bins)
    for m in range(3):
        assert completeness_defect([f[m] for f in families]) < 1e-10


def test_wraparound_bin_does_not_warn_at_phase_zero():
    # The constant mode gives block eigenvalue 1, phase 0, inside the
    # wrap-around bin and far from its real edges.
    map_, transfers = _torus_setup()
    bins = [SpectralBin(((0.0, 0.25), (TWO_PI - 0.25, TWO_PI))), arc_bin(0.25, TWO_PI - 0.25)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", BinBoundaryWarning)
        periodic_subspaces(map_, 0.3, transfers, bins)


def test_phase_near_an_interior_edge_warns():
    # Block eigenvalue i has phase pi/2; put an edge 5e-11 above it.
    map_, transfers = _torus_setup()
    edge = np.pi / 2 + 5e-11
    with pytest.warns(BinBoundaryWarning):
        periodic_subspaces(map_, 0.3, transfers, [arc_bin(0.0, edge), arc_bin(edge, TWO_PI)])


def test_periodic_setup_matches_its_parts():
    map_, transfers = _torus_setup()
    fib = TruncatedBasis((3,), ("fiber",))
    setup = periodic_setup(map_, 0.3, fib, default_grid(fib))
    assert setup.orbit == map_.base_orbit(0.3)
    for got, ref in zip(setup.transfers, transfers):
        assert np.array_equal(got, ref)
    assert np.array_equal(setup.transfer(setup.orbit[2]), transfers[2])
    assert len(setup.families) == len(setup.bins)
    assert all(len(family) == 4 for family in setup.families)
    with pytest.raises(ValueError):
        periodic_setup(map_, 0.3)


def test_periodic_subspaces_requires_full_orbit():
    map_, transfers = _torus_setup()
    with pytest.raises(ValueError):
        periodic_subspaces(map_, 0.3, transfers[:2], [arc_bin(0.0, TWO_PI)])


def test_principal_angle_distance():
    e1 = FiberSubspace(0.0, np.eye(3, dtype=complex)[:, :1], "spectral_bin", 1)
    e2 = FiberSubspace(0.0, np.eye(3, dtype=complex)[:, 1:2], "spectral_bin", 1)
    assert principal_angle_distance(e1, e1) == pytest.approx(0.0, abs=1e-12)
    assert principal_angle_distance(e1, e2) == pytest.approx(1.0)
    wide = FiberSubspace(0.0, np.eye(3, dtype=complex)[:, :2], "spectral_bin", 2)
    assert not np.isfinite(principal_angle_distance(e1, wide))


def test_completeness_defect_empty_is_infinite():
    assert not np.isfinite(completeness_defect([]))
