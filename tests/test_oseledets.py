"""Tests for spectral bins and base-indexed fiber subspace families."""

import functools
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from eigenop import oseledets
from eigenop.basis import TruncatedBasis, default_grid
from eigenop.generator import assemble_fiber_koopman, cyclic_fiber_koopman
from eigenop.oseledets import (
    BOUNDARY_TOL,
    RANK_THRESHOLD,
    BinBoundaryWarning,
    FiberSubspace,
    PeriodicSetup,
    SpectralBin,
    arc_bin,
    check_bin_family,
    completeness_defect,
    equivariance_residual,
    isolating_bins,
    orthonormalize,
    _bin_tests,
    _fold,
    _root_phases,
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
    assert _fold(np.angle(np.exp(-1e-17j))) == 0.0


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
        values, _ = _block_eig(setup.transfers)
        hits = sum(b.contains(_fold(np.angle(values))).astype(int) for b in setup.bins)
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
    bins = isolating_bins(np.array(roots_a + roots_b) ** n, n)
    assert len(bins) == 2
    check_bin_family(bins)
    for lam_set in (roots_a, roots_b):
        hits = [sum(b.contains(float(np.mod(np.angle(l), TWO_PI))) for l in lam_set) for b in bins]
        assert sorted(hits) == [0, n]


def test_isolating_bins_single_group_is_full_circle():
    lam = np.exp(2j * np.pi * np.arange(4) / 4)
    bins = isolating_bins(lam**4, 4)
    assert len(bins) == 1
    assert bins[0].width == pytest.approx(TWO_PI)


def test_isolating_bins_ignores_tiny_eigenvalues():
    lam = np.array([1.0, -1.0, 1e-12, 1j * 1e-9])
    bins = isolating_bins(lam**2, 2)
    assert len(bins) == 1


def test_orthonormalize_produces_orthonormal_frame():
    rng = np.random.default_rng(0)
    cols = rng.standard_normal((8, 4)) + 1j * rng.standard_normal((8, 4))
    (q,) = orthonormalize(cols[None])
    assert q.shape == (8, 4)
    assert np.max(np.abs(q.conj().T @ q - np.eye(4))) < 1e-12


def test_orthonormalize_drops_dependent_columns():
    v = np.ones((5, 1), dtype=complex)
    cols = np.concatenate([v, 2 * v, v + 1e-14], axis=1)
    (q,) = orthonormalize(cols[None])
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
    (q,) = orthonormalize(cols[None])
    assert q.shape[0] == nrows and q.shape[1] <= ncols
    assert np.max(np.abs(q.conj().T @ q - np.eye(q.shape[1])), initial=0.0) <= 1e-12
    # Every input column lies in the span of the output frame, up to the
    # drop threshold relative to the largest column norm (at least 1).
    scale = max(np.linalg.norm(cols, axis=0).max(), 1.0)
    resid = np.linalg.norm(cols - q @ (q.conj().T @ cols), axis=0)
    assert np.all(resid <= RANK_THRESHOLD * scale * (1.0 + 1e-6))


def _reference_mgs(cols):
    """Per-array modified Gram-Schmidt, one column at a time, with one reorthogonalization pass."""
    scale = max(np.linalg.norm(cols, axis=0).max(initial=0.0), 1.0)
    kept = []
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        for _ in range(2):
            for q in kept:
                v -= q * (q.conj() @ v)
        nv = np.linalg.norm(v)
        if nv > RANK_THRESHOLD * scale:
            kept.append(v / nv)
    return np.stack(kept, axis=1) if kept else np.zeros((cols.shape[0], 0), dtype=complex)


def _padded(arrays, width, extra=0):
    """The arrays in one zero-padded (len + extra, m, width) stack."""
    stack = np.zeros((len(arrays) + extra, arrays[0].shape[0], width), dtype=complex)
    for slot, a in zip(stack, arrays):
        slot[:, : a.shape[1]] = a
    return stack


def _mixed_arrays(seed, m=9):
    # (rank, width) pairs: rank-deficient, full-rank and all-zero arrays of several widths.
    rng = np.random.default_rng(seed)
    arrays = []
    for rank, width in [(1, 4), (2, 3), (3, 3), (0, 2), (4, 5), (1, 1)]:
        left = rng.standard_normal((m, rank)) + 1j * rng.standard_normal((m, rank))
        right = rng.standard_normal((rank, width)) + 1j * rng.standard_normal((rank, width))
        arrays.append((left @ right) * 10.0 ** rng.uniform(-6, 6))
    return arrays


@pytest.mark.parametrize("seed", range(5))
def test_orthonormalize_matches_a_per_array_reference(seed):
    arrays = _mixed_arrays(seed)
    frames = orthonormalize(_padded(arrays, 5))
    assert len(frames) == len(arrays)
    for a, frame in zip(arrays, frames):
        ref = _reference_mgs(a)
        assert frame.shape == ref.shape
        assert np.max(np.abs(frame - ref), initial=0.0) <= 1e-14


def test_zero_padding_changes_no_frame():
    arrays = _mixed_arrays(7)
    tight = orthonormalize(_padded(arrays, 5))
    wide = orthonormalize(_padded(arrays, 8, extra=3))
    for a, b in zip(tight, wide):
        assert np.array_equal(a, b)
    assert [f.shape for f in wide[len(arrays) :]] == [(9, 0)] * 3


def test_each_array_drops_columns_on_its_own_scale():
    rng = np.random.default_rng(3)
    small = (rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))) * 1e-6
    large = (rng.standard_normal((6, 3)) + 1j * rng.standard_normal((6, 3))) * 1e12
    # Against the large array's norm the small columns would fall below the threshold.
    assert np.linalg.norm(small, axis=0).max() < RANK_THRESHOLD * np.linalg.norm(large, axis=0).max()
    frames = orthonormalize(np.stack([large, small]))
    assert [f.shape[1] for f in frames] == [3, 3]
    (alone,) = orthonormalize(small[None])
    assert np.array_equal(frames[1], alone)


def test_orthonormalize_rejects_a_single_array():
    with pytest.raises(ValueError):
        orthonormalize(np.eye(3))


@settings(max_examples=200, deadline=None)
@given(st.lists(st.complex_numbers(allow_nan=False), min_size=1, max_size=16))
@example([complex(1.0, -1e-17), complex(1.0, -0.0), complex(-1.0, -0.0), 0j])
def test_phase_lies_in_half_open_circle(values):
    phases = _fold(np.angle(np.array(values, dtype=complex)))
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
    assert sub.dim == 1
    assert np.max(np.abs(sub.frame.conj().T @ sub.frame - np.eye(1))) < 1e-12


def test_restrict_at_base_warns_on_rank_deficiency():
    basis = TruncatedBasis((1, 1), ("base", "fiber"))
    vec = np.zeros((basis.size, 2), dtype=complex)
    vec[0, 0] = 1.0
    vec[0, 1] = 1.0
    with pytest.warns(UserWarning, match="rank deficient"):
        restrict_at_base(vec, basis, 0.0, 2)


def _cyclic_block_matrix(transfers):
    """Block-cyclic operator of a periodic orbit's fiber transfers.

    Row k carries the transfer at h^{k+1}(y) acting on block k+1 mod n,
    so the wrap-around row applies the transfer at y itself.
    """
    n, N = len(transfers), transfers[0].shape[0]
    big = np.zeros((n * N, n * N), dtype=complex)
    for k in range(n):
        big[k * N : (k + 1) * N, ((k + 1) % n) * N : ((k + 1) % n + 1) * N] = transfers[(k + 1) % n]
    return big


def test_cyclic_block_matrix_layout():
    mats = [np.full((2, 2), float(k)) for k in (1, 2, 3)]
    big = _cyclic_block_matrix(mats)
    # Row 0 holds the transfer at the next orbit point in block column 1.
    assert np.allclose(big[0:2, 2:4], mats[1])
    assert np.allclose(big[2:4, 4:6], mats[2])
    # The wrap-around row applies the transfer at the starting point.
    assert np.allclose(big[4:6, 0:2], mats[0])


def _block_eig(transfers):
    """Eigenvalues and eigenvectors of the nN x nN block-cyclic operator."""
    return np.linalg.eig(_cyclic_block_matrix(transfers))


def _block_reference(transfers):
    """Bins and frames from one eigensolve of the block-cyclic operator.

    Block j of an eigenvector holds the subspace at h^{j+1}(y). Each bin
    takes the eigenvectors whose eigenvalue phase it contains, and each
    (bin, orbit point) block gets its own _reference_mgs frame. The bins
    come from the block eigenvalues' n-th powers.
    """
    n, N = len(transfers), transfers[0].shape[0]
    values, vectors = _block_eig(transfers)
    bins = isolating_bins(values**n, n)
    blocks = vectors.reshape(n, N, -1)
    phases = _fold(np.angle(values))
    return bins, [[_reference_mgs(blocks[p - 1][:, b.contains(phases)]) for p in range(n)] for b in bins]


def _families(map_, y, transfers, mu, vectors, bins):
    """Every orbit point's frames, as a setup built from these parts gives them."""
    carried = periodic_subspaces(map_, y, transfers, mu, vectors, bins)
    return PeriodicSetup(float(y), map_.base_orbit(y), transfers, bins, carried).families


def _decomposition(transfers):
    """Eigenvalues and eigenvectors of the monodromy transfers[0] @ ... @ transfers[-1]."""
    return np.linalg.eig(functools.reduce(np.matmul, transfers))


def _torus_setup(y0=0.3):
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((3,), ("fiber",))
    fgrid = default_grid(fib)
    transfers = [assemble_fiber_koopman(map_, w, fib, fgrid) for w in map_.base_orbit(y0)]
    return map_, transfers


def _unitary(rng, N):
    q, r = np.linalg.qr(rng.standard_normal((N, N)) + 1j * rng.standard_normal((N, N)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _reference_case(case):
    """(map, base point, transfers along its orbit) for the block-reference comparison."""
    if case.startswith("random"):
        # Seeded non-commuting unitary transfers, n = 3 and N = 5; the map
        # supplies only the period-3 orbit.
        rng = np.random.default_rng(int(case.split("-")[1]))
        return make_torus_translation(3), 0.3, [_unitary(rng, 5) for _ in range(3)]
    if case == "torus":
        map_, transfers = _torus_setup()
        return map_, 0.3, transfers
    # The fiber shifts sum to 4 around the orbit of y = 0.5 (3 bins of
    # dimension 2) and to 5 around that of y = 1.5 (6 bins of dimension 1).
    map_, y = make_cyclic_group(6, 3), {"cyclic-3-bins": 0.5, "cyclic-6-bins": 1.5}[case]
    return map_, y, [cyclic_fiber_koopman(map_, w) for w in map_.base_orbit(y)]


@pytest.mark.parametrize("case", ["random-0", "random-1", "random-2", "torus", "cyclic-3-bins", "cyclic-6-bins"])
def test_monodromy_setup_matches_the_block_reference(case):
    map_, y, transfers = _reference_case(case)
    n = len(transfers)
    mu, vectors = _decomposition(transfers)
    bins = isolating_bins(mu, n)
    families = _families(map_, y, transfers, mu, vectors, bins)
    ref_bins, ref_frames = _block_reference(transfers)
    assert len(bins) == len(ref_bins) > 1
    # The same arcs, matched as sets: only the listing order may differ.
    for b, family in zip(bins, families):
        (match,) = [
            i
            for i, ref in enumerate(ref_bins)
            if len(ref.arcs) == len(b.arcs) and np.max(np.abs(np.subtract(ref.arcs, b.arcs))) <= 1e-12
        ]
        for sub, ref in zip(family, ref_frames[match]):
            assert np.max(np.abs(sub.projection - ref @ ref.conj().T)) <= 1e-12
    # Every per-step compression has its bin's principal roots as eigenvalues.
    lam = np.abs(mu) ** (1.0 / n) * np.exp(1j * _root_phases(mu, n)[:, 0])
    assert np.max(np.abs(lam**n - mu)) <= 1e-12
    for b, family in zip(bins, families):
        roots = np.sort_complex(lam[b.contains(_root_phases(mu, n)[:, 0])])
        for p in range(n):
            compressed = family[p].frame.conj().T @ transfers[p] @ family[(p + 1) % n].frame
            assert np.max(np.abs(np.sort_complex(np.linalg.eigvals(compressed)) - roots)) <= 1e-12


def test_principal_root_stays_on_the_upper_side_of_the_negative_axis():
    mu = np.array([-1.0 - 1e-17j, -1.0 + 0j, -1.0 + 1e-17j, np.exp(-1j * (np.pi - 1e-9))])
    assert np.max(np.abs(_root_phases(mu, 3)[:, 0] - np.pi / 3)) < 1e-9
    # Away from the axis the root follows angle(mu) in (-pi, pi].
    assert _root_phases(np.array([np.exp(-2.0j)]), 2)[0].tolist() == pytest.approx([TWO_PI - 1.0, np.pi - 1.0])


def _same_bins(a, b, tol=1e-14):
    return len(a) == len(b) and all(
        len(x.arcs) == len(y.arcs) and np.max(np.abs(np.subtract(x.arcs, y.arcs))) <= tol for x, y in zip(a, b)
    )


@pytest.mark.parametrize(
    "mu, n",
    [
        (_decomposition(_torus_setup(0.3)[1])[0], 4),
        (_decomposition(_torus_setup(2.1)[1])[0], 4),
        (_decomposition(_reference_case("cyclic-6-bins")[2])[0], 3),
        # A conjugate pair with no root at phase 0 puts a cut on the 0/2pi seam.
        (np.exp(1j * np.array([1.0, -1.0, 2.5, -2.5])), 2),
    ],
    ids=["torus-0.3", "torus-2.1", "cyclic", "seam-cut"],
)
def test_bin_order_survives_a_roundoff_perturbation(mu, n):
    bins = isolating_bins(mu, n)
    assert [b.arcs[0] for b in bins] == sorted(b.arcs[0] for b in bins)
    rng = np.random.default_rng(5)
    for _ in range(50):
        bumped = mu * (1.0 + 1e-15 * (rng.standard_normal(mu.shape) + 1j * rng.standard_normal(mu.shape)))
        assert _same_bins(isolating_bins(bumped, n), bins)


def test_periodic_subspaces_equivariant_and_complete():
    y0 = 0.3
    map_, transfers = _torus_setup(y0)
    values, vectors = _decomposition(transfers)
    bins = isolating_bins(values, map_.base_period)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinBoundaryWarning)
        families = _families(map_, y0, transfers, values, vectors, bins)
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
    values, vectors = _decomposition(transfers)
    bins = isolating_bins(values, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinBoundaryWarning)
        families = _families(map_, y0, transfers, values, vectors, bins)
    for m in range(3):
        assert completeness_defect([f[m] for f in families]) < 1e-10


def test_wraparound_bin_does_not_warn_at_phase_zero():
    # The constant mode gives monodromy eigenvalue 1 and root phase 0,
    # inside the wrap-around bin and far from its real edges.
    map_, transfers = _torus_setup()
    bins = [SpectralBin(((0.0, 0.25), (TWO_PI - 0.25, TWO_PI))), arc_bin(0.25, TWO_PI - 0.25)]
    with warnings.catch_warnings():
        warnings.simplefilter("error", BinBoundaryWarning)
        periodic_subspaces(map_, 0.3, transfers, *_decomposition(transfers), bins)


def test_phase_near_an_interior_edge_warns():
    # The fourth root i of monodromy eigenvalue 1 has phase pi/2; put an edge 5e-11 above it.
    map_, transfers = _torus_setup()
    edge = np.pi / 2 + 5e-11
    with pytest.warns(BinBoundaryWarning):
        periodic_subspaces(map_, 0.3, transfers, *_decomposition(transfers), [arc_bin(0.0, edge), arc_bin(edge, TWO_PI)])


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=4),
    st.lists(st.floats(-np.pi, np.pi), min_size=1, max_size=5),
    st.lists(
        st.tuples(
            st.sampled_from(["edge", "seam", "free"]),
            st.integers(min_value=0, max_value=99),
            st.floats(-3 * BOUNDARY_TOL, 3 * BOUNDARY_TOL),
            st.floats(0.0, TWO_PI, exclude_max=True),
        ),
        min_size=1,
        max_size=8,
    ),
    st.booleans(),
)
@example(2, [1.0, 2.5], [("seam", 0, 5e-11, 0.0), ("seam", 0, -5e-11, 0.0)], True)
def test_every_bin_at_once_agrees_with_each_bin_alone(n, bin_angles, picks, conjugate):
    # The bins come from isolating_bins; with each angle's conjugate, and
    # no root at phase 0, a bin owns one side of the 0/2pi seam. Each
    # eigenvalue mu = e^{i n phi} has an n-th root at phi, drawn near an
    # edge, near the seam or anywhere on the circle.
    angles = np.array(bin_angles + [-a for a in bin_angles] * conjugate)
    bins = isolating_bins(np.exp(1j * angles), n)
    edges = [e for b in bins for arc in b.arcs for e in arc]
    phi = [
        edges[k % len(edges)] + dx if kind == "edge" else dx if kind == "seam" else free
        for kind, k, dx, free in picks
    ]
    mu = np.exp(1j * n * np.array(phi))
    phases = _root_phases(mu, n)
    members, near = _bin_tests(bins, phases[:, 0], phases)
    for b, member, close in zip(bins, members, near):
        assert member.tolist() == b.contains(phases[:, 0]).tolist()
        assert close == np.any(b.boundary_distance(phases) < BOUNDARY_TOL)
    # The same bins warn, in the same order.
    expected = [
        f"eigen-phase within {BOUNDARY_TOL:g} of a boundary of bin {b.describe()}"
        for b in bins
        if np.any(b.boundary_distance(phases) < BOUNDARY_TOL)
    ]
    transfers = [np.diag(mu)] + [np.eye(len(mu), dtype=complex)] * (n - 1)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        periodic_subspaces(make_torus_translation(n), 0.3, transfers, mu, np.eye(len(mu), dtype=complex), bins)
    assert [str(w.message) for w in caught if w.category is BinBoundaryWarning] == expected


def test_periodic_setup_matches_its_parts():
    map_, transfers = _torus_setup()
    fib = TruncatedBasis((3,), ("fiber",))
    setup = periodic_setup(map_, 0.3, fib, default_grid(fib))
    assert setup.orbit == map_.base_orbit(0.3)
    for got, ref in zip(setup.transfers, transfers):
        assert np.array_equal(got, ref)
    assert len(setup.families) == len(setup.bins)
    assert all([sub.y for sub in family] == setup.orbit for family in setup.families)
    with pytest.raises(ValueError):
        periodic_setup(map_, 0.3)


def test_periodic_setup_solves_the_monodromy_once(monkeypatch):
    calls = {"eig": [], "eigvals": []}
    for name in calls:

        def counting(a, _original=getattr(np.linalg, name), _name=name):
            calls[_name].append(np.shape(a))
            return _original(a)

        monkeypatch.setattr(np.linalg, name, counting)
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((3,), ("fiber",))
    periodic_setup(map_, 0.3, fib, default_grid(fib))
    assert calls == {"eig": [(fib.size, fib.size)], "eigvals": []}


def test_periodic_setup_orthonormalizes_once(monkeypatch):
    calls = []
    original = oseledets.orthonormalize

    def counting(stack):
        calls.append(np.shape(stack))
        return original(stack)

    monkeypatch.setattr(oseledets, "orthonormalize", counting)
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((3,), ("fiber",))
    setup = periodic_setup(map_, 0.3, fib, default_grid(fib))
    # No frame is built before one is read, and families are built once.
    assert calls == []
    assert setup.families is setup.families
    # One stack entry per (bin, orbit point), each a fiber-sized block.
    assert len(calls) == 1
    assert calls[0][:2] == (len(setup.bins) * 4, fib.size)


@pytest.mark.parametrize("dead", [0.0, 1e-12])
def test_dead_monodromy_eigenvectors_join_no_family(dead):
    # Unitary 4 x 4 blocks plus a fifth mode each transfer scales by dead;
    # the last transfer also couples that mode into the unitary block, so
    # its eigenvector carried back by the root dead would blow up.
    rng = np.random.default_rng(7)
    map_ = make_torus_translation(3)
    transfers = []
    for p in range(3):
        T = np.zeros((5, 5), dtype=complex)
        T[:4, :4], T[4, 4] = _unitary(rng, 4), dead
        transfers.append(T)
    transfers[2][:4, 4] = 0.5
    mu, vectors = _decomposition(transfers)
    bins = isolating_bins(mu, 3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        families = _families(map_, 0.3, transfers, mu, vectors, bins)
    for p in range(3):
        members = [family[p] for family in families]
        assert sum(sub.dim for sub in members) == 4
        assert all(np.all(np.isfinite(sub.frame)) for sub in members)
        for family in families:
            assert equivariance_residual(family[(p + 1) % 3], family[p], transfers[p]) < 1e-10


def test_periodic_subspaces_requires_full_orbit():
    # Two transfers cannot cover a period-4 orbit.
    map_, transfers = _torus_setup()
    with pytest.raises(ValueError):
        periodic_subspaces(map_, 0.3, transfers[:2], *_decomposition(transfers[:2]), [arc_bin(0.0, TWO_PI)])


def test_principal_angle_distance():
    e1 = FiberSubspace(0.0, np.eye(3, dtype=complex)[:, :1])
    e2 = FiberSubspace(0.0, np.eye(3, dtype=complex)[:, 1:2])
    assert principal_angle_distance(e1, e1) == pytest.approx(0.0, abs=1e-12)
    assert principal_angle_distance(e1, e2) == pytest.approx(1.0)
    wide = FiberSubspace(0.0, np.eye(3, dtype=complex)[:, :2])
    assert not np.isfinite(principal_angle_distance(e1, wide))


def test_completeness_defect_empty_is_infinite():
    assert not np.isfinite(completeness_defect([]))
