"""Tests for compressed eigenoperator matrices and their spectra."""

import bisect
import functools
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenop import oseledets
from eigenop.basis import TruncatedBasis, default_grid
from eigenop.eigenoperator import (
    DegenerateEigenvectorError,
    MissingSubspaceError,
    continuous_eigenoperator,
    discrete_eigenoperator_spectrum,
    discrete_multiplier,
    norm_constancy,
    rank_one_spectrum,
    shift_invariance_check,
    _tolerance_union,
)
from eigenop.generator import assemble_fiber_koopman, assemble_generator, cyclic_fiber_koopman
from eigenop.ioformats import canonical_json
from eigenop.oseledets import (
    BinBoundaryWarning,
    FiberSubspace,
    PeriodicSetup,
    isolating_bins,
    periodic_setup,
    periodic_subspaces,
    restrict_coefficients,
)
from eigenop.spectra import eig_matrix, match_multisets
from eigenop.systems import (
    make_cyclic_group,
    make_gaussian_vortex,
    make_rotation,
    make_stratospheric,
    make_torus_translation,
)

ALPHA = 0.7
BETA = 0.5
TWO_PI = 2.0 * np.pi


def _mode_subspace(fib, mode, y):
    frame = np.zeros((fib.size, 1), dtype=complex)
    frame[fib.index_of(mode), 0] = 1.0
    return FiberSubspace(y=float(y), frame=frame)


def test_fiber_restriction_contracts_base_modes():
    basis = TruncatedBasis((2, 2), ("base", "fiber"))
    fib = basis.fiber_subbasis()
    rng = np.random.default_rng(0)
    vb = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    uf = rng.standard_normal(fib.size) + 1j * rng.standard_normal(fib.size)
    y = 1.3
    restricted = restrict_coefficients(np.kron(vb, uf), basis, y)
    scalar = np.exp(1j * np.arange(-2, 3) * y) @ vb
    assert np.max(np.abs(restricted - scalar * uf)) < 1e-12
    # Columns contract one by one.
    cols = restrict_coefficients(np.stack([np.kron(vb, uf), np.kron(vb, 2 * uf)], axis=1), basis, y)
    assert np.max(np.abs(cols - scalar * np.stack([uf, 2 * uf], axis=1))) < 1e-12


def _product_space_compression(system, subspace, ystar, basis, grid):
    """Reference: sections* G section, with G the product-space generator of
    the system whose fiber velocity is pinned to ystar."""
    frozen = replace(system, fiber_velocity=lambda y, z: system.fiber_velocity(ystar, z))
    G = assemble_generator(frozen, basis, grid)[:]
    section = np.kron(np.eye(2 * basis.cutoffs[0] + 1), subspace.frame)
    return section.conj().T @ G @ section


@pytest.mark.parametrize(
    "system, cutoffs, y, s",
    [
        # A y-dependent base velocity couples base modes; at s = 0 the
        # closed-form base flow of the vortex is still exact.
        (replace(make_gaussian_vortex(), base_velocity=lambda y: 1.0 + 0.3 * np.cos(y)), (3, 2, 3), 0.9, 0.0),
        (make_stratospheric(), (2, 3, 3), 2.2, 0.7),
        (make_rotation(ALPHA, BETA), (3, 4), 5.9, 1.1),
    ],
    ids=["vortex-varying-base", "stratospheric", "rotation"],
)
def test_continuous_eigenoperator_matches_product_space_compression(system, cutoffs, y, s):
    basis = TruncatedBasis(cutoffs, ("base",) + ("fiber",) * (len(cutoffs) - 1))
    grid = default_grid(basis)
    ystar = float(np.mod(y + s, TWO_PI))
    rng = np.random.default_rng(3)
    fib_size = basis.fiber_subbasis().size
    frame, _ = np.linalg.qr(rng.standard_normal((fib_size, 3)) + 1j * rng.standard_normal((fib_size, 3)))
    sub = FiberSubspace(ystar, frame)
    A = continuous_eigenoperator(system, sub, y, s, basis, grid)
    ref = _product_space_compression(system, sub, ystar, basis, grid)
    assert np.max(np.abs(A)) > 1.0
    assert np.max(np.abs(A - ref)) <= 1e-12 * np.max(np.abs(A))


def test_continuous_eigenoperator_frequency_ladder():
    sys_ = make_rotation(ALPHA, BETA)
    basis = TruncatedBasis((3, 3), ("base", "fiber"))
    grid = default_grid(basis)
    y, j = 0.8, 2
    sub = _mode_subspace(basis.fiber_subbasis(), (j,), y)
    matrix = continuous_eigenoperator(sys_, sub, y, 0.0, basis, grid)
    ref = [1j * (k + j * ALPHA * (1.0 + BETA * np.cos(y))) for k in range(-3, 4)]
    ok, worst = match_multisets(eig_matrix(matrix).eigenvalues, ref, 1e-10)
    assert ok, worst


def test_continuous_eigenoperator_rejects_misplaced_subspace():
    sys_ = make_rotation(ALPHA, BETA)
    basis = TruncatedBasis((2, 2), ("base", "fiber"))
    grid = default_grid(basis)
    sub = _mode_subspace(basis.fiber_subbasis(), (1,), 0.0)
    with pytest.raises(MissingSubspaceError):
        continuous_eigenoperator(sys_, sub, 0.0, 0.5, basis, grid)


def test_continuous_eigenoperator_rejects_empty_subspace():
    sys_ = make_rotation(ALPHA, BETA)
    basis = TruncatedBasis((2, 2), ("base", "fiber"))
    empty = FiberSubspace(0.0, np.zeros((5, 0), dtype=complex))
    with pytest.raises(MissingSubspaceError):
        continuous_eigenoperator(sys_, empty, 0.0, 0.0, basis, default_grid(basis))


def test_rank_one_spectrum_constant_mode():
    # The pure fiber mode e^{ijz} has pointwise value i*j*velocity(y).
    sys_ = make_rotation(ALPHA, BETA)
    basis = TruncatedBasis((2, 3), ("base", "fiber"))
    fib = basis.fiber_subbasis()
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[basis.index_of((0, 2))] = 1.0
    y = 0.4
    lam = rank_one_spectrum(sys_, coeffs, basis, y, default_grid(fib))
    expected = 2j * ALPHA * (1.0 + BETA * np.cos(y))
    assert abs(lam - expected) < 1e-12


def test_rank_one_spectrum_rejects_vanishing_restriction():
    sys_ = make_rotation(ALPHA, BETA)
    basis = TruncatedBasis((1, 1), ("base", "fiber"))
    fib = basis.fiber_subbasis()
    coeffs = np.zeros(basis.size, dtype=complex)
    with pytest.raises(DegenerateEigenvectorError):
        rank_one_spectrum(sys_, coeffs, basis, 0.0, default_grid(fib))


def test_norm_constancy_flat_for_product_vectors():
    basis = TruncatedBasis((2, 2), ("base", "fiber"))
    coeffs = np.zeros(basis.size, dtype=complex)
    coeffs[basis.index_of((1, 1))] = 1.0
    ys = np.linspace(0, TWO_PI, 16, endpoint=False)
    assert norm_constancy(coeffs, basis, ys) < 1e-12
    assert not np.isfinite(norm_constancy(np.zeros(basis.size), basis, ys))


def test_shift_invariance_exact_with_pullback():
    sys_ = make_rotation(ALPHA, BETA)
    basis = TruncatedBasis((3, 3), ("base", "fiber"))
    grid = default_grid(basis)
    fib = basis.fiber_subbasis()
    factory = lambda ystar: _mode_subspace(fib, (1,), ystar)
    distances = shift_invariance_check(sys_, factory, (0.3,), basis, grid, y_count=8)
    assert max(distances.values()) < 1e-10


def _family(map_, y0, fib, fgrid):
    # One-dimensional invariant family: the j=1 Fourier mode at every
    # orbit point of the translation map.
    frames = []
    for m, w in enumerate(map_.base_orbit(y0)):
        frame = np.zeros((fib.size, 1), dtype=complex)
        frame[fib.index_of((1,)), 0] = 1.0
        frames.append(FiberSubspace(float(w), frame))
    return frames


def _orbit_transfers(map_, y0, fib, fgrid):
    return [assemble_fiber_koopman(map_, w, fib, fgrid) for w in map_.base_orbit(y0)]


def test_discrete_multiplier_matches_phase():
    map_ = make_torus_translation(4, gtilde=0.7)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    y0 = 0.3
    family = _family(map_, y0, fib, fgrid)
    matrix = discrete_multiplier(_orbit_transfers(map_, y0, fib, fgrid), family, 1)
    # The multiplier restricted to the j=1 mode is the phase e^{i*0.7}.
    row = fib.index_of((1,))
    assert matrix[row, row] == pytest.approx(np.exp(0.7j), abs=1e-12)
    assert matrix.shape == (fib.size, fib.size)


def test_discrete_multiplier_needs_full_family():
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    family = _family(map_, 0.3, fib, fgrid)[:2]
    with pytest.raises(MissingSubspaceError):
        discrete_multiplier(_orbit_transfers(map_, 0.3, fib, fgrid), family, 1)


def _carried(families):
    """A setup's carried stack whose frames are the given families' frames, one family per bin."""
    width = max(sub.dim for family in families for sub in family)
    stack = np.zeros((len(families), len(families[0]), families[0][0].frame.shape[0], width), dtype=complex)
    for b, family in enumerate(families):
        for p, sub in enumerate(family):
            stack[b, p, :, : sub.dim] = sub.frame
    return stack


def _family_setups(map_, fib, fgrid, family_fn, ys):
    """Setups at ys, built lazily, that carry the given families, one per bin; calls lists each y set up."""
    calls = []

    def setups():
        for y in ys:
            calls.append(y)
            transfers = _orbit_transfers(map_, y, fib, fgrid)
            yield PeriodicSetup(y, map_.base_orbit(y), transfers, [], _carried(family_fn(y)))

    return setups(), calls


def test_discrete_eigenoperator_spectrum_constant_shift():
    map_ = make_torus_translation(4, gtilde=0.7)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    ys = [float(y) for y in np.linspace(0.0, TWO_PI, 6, endpoint=False)]
    setups, _ = _family_setups(map_, fib, fgrid, lambda y: [_family(map_, y, fib, fgrid)], ys)
    (out,) = discrete_eigenoperator_spectrum(setups, 1, 1)
    assert out["dimension"] == 1
    assert out["y_samples"] == ys
    # A constant shift gives the same compressed phase at every sample.
    assert len(out["eigenvalues"]) == 1
    cluster = out["eigenvalues"][0]
    assert cluster["support"] == len(ys)
    assert abs(complex(*cluster["value"]) - np.exp(0.7j)) < 1e-10


def test_discrete_eigenoperator_spectrum_dimension_guard():
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)

    def jittery_family(y):
        family = _family(map_, y, fib, fgrid)
        if y > np.pi:
            wide = np.zeros((fib.size, 2), dtype=complex)
            wide[0, 0] = 1.0
            wide[1, 1] = 1.0
            family = [FiberSubspace(s.y, wide) for s in family]
        return family

    families = lambda y: [_family(map_, y, fib, fgrid), jittery_family(y)]
    ys = [0.5, 4.0]
    setups, _ = _family_setups(map_, fib, fgrid, families, ys)
    stable, drifting = discrete_eigenoperator_spectrum(setups, 1, 2)
    assert drifting == {"i": 1, "error": "subspace dimension varies across samples (2 vs 1)"}
    assert stable["dimension"] == 1
    assert sum(c["support"] for c in stable["eigenvalues"]) == len(ys)

    # Once every bin has drifted, no further sample is set up.
    setups, calls = _family_setups(map_, fib, fgrid, lambda y: [jittery_family(y)], [0.5, 4.0, 4.5, 5.0])
    (only,) = discrete_eigenoperator_spectrum(setups, 1, 1)
    assert "error" in only
    assert calls == [0.5, 4.0]


def test_a_drift_at_the_next_orbit_point_names_the_width_that_differs():
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    wide = np.zeros((fib.size, 2), dtype=complex)
    wide[0, 0] = wide[1, 1] = 1.0

    def family(y):
        # Past pi only the frame at h^2(y), which i = 1 reads as h^{i+1}(y), widens.
        subs = _family(map_, y, fib, fgrid)
        if y > np.pi:
            subs[2] = FiberSubspace(subs[2].y, wide)
        return [subs]

    setups, _ = _family_setups(map_, fib, fgrid, family, [0.5, 4.0])
    (entry,) = discrete_eigenoperator_spectrum(setups, 1, 1)
    assert entry == {"i": 1, "error": "subspace dimension varies across samples (2 vs 1)"}


def _per_bin_reference(setups, i, bin_count, transfer_at, tol=1e-8):
    """Bin-outer aggregation from periodic setups' families; None marks drift.

    transfer_at(w) assembles the fiber transfer at base point w, so the
    transfer at h^i(y) is built here rather than read from the setup.
    """
    out = []
    for b in range(bin_count):
        dim, samples = None, []
        for setup in setups:
            n = len(setup.orbit)
            family = setup.families[min(b, len(setup.families) - 1)]
            sub_w, sub_hw = family[i % n], family[(i + 1) % n]
            dim = sub_w.dim if dim is None else dim
            if sub_w.dim != dim or sub_hw.dim != dim:
                samples = None
                break
            U = transfer_at(setup.orbit[i % n])
            samples.append(np.linalg.eigvals(sub_w.frame.conj().T @ U @ sub_hw.frame))
        out.append(None if samples is None else _tolerance_union(samples, tol))
    return out


@pytest.mark.parametrize("kind", ["torus", "cyclic"])
def test_discrete_eigenoperator_spectrum_matches_per_bin_reference(kind):
    if kind == "torus":
        map_ = make_torus_translation(4, gtilde=0.7)
        fib = TruncatedBasis((3,), ("fiber",))
        fgrid = default_grid(fib)
        setup_at = lambda y: periodic_setup(map_, y, fib, fgrid)
        transfer_at = lambda w: assemble_fiber_koopman(map_, w, fib, fgrid)
        y0 = 0.3
    else:
        map_ = make_cyclic_group(6, 3)
        setup_at = lambda y: periodic_setup(map_, y)
        transfer_at = lambda w: cyclic_fiber_koopman(map_, w)
        y0 = 0.5
    ys = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    bin_count = len(setup_at(y0).bins)
    got = discrete_eigenoperator_spectrum((setup_at(y) for y in ys), 1, bin_count)
    ref = _per_bin_reference([setup_at(y) for y in ys], 1, bin_count, transfer_at)
    assert len(got) == bin_count
    for entry, expected in zip(got, ref):
        if expected is None:
            assert set(entry) == {"i", "error"}
        else:
            assert entry["eigenvalues"] == expected
            assert entry["y_samples"] == ys.tolist()
    if kind == "torus":
        assert all(expected is not None for expected in ref)


@pytest.mark.parametrize("i", [1, 3, -1, 5])
def test_mixed_dimension_bins_match_the_per_bin_reference(i):
    # gtilde = pi/4 at fiber cutoff 4 splits the 9 modes into bins of
    # dimension 5 and 4, compressed as two stacks of different widths.
    map_ = make_torus_translation(4, gtilde=np.pi / 4)
    fib = TruncatedBasis((4,), ("fiber",))
    fgrid = default_grid(fib)
    setup_at = lambda y: periodic_setup(map_, y, fib, fgrid)
    ys = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    got = discrete_eigenoperator_spectrum((setup_at(y) for y in ys), i, 2)
    assert [entry["dimension"] for entry in got] == [5, 4]
    transfer_at = lambda w: assemble_fiber_koopman(map_, w, fib, fgrid)
    assert [entry["eigenvalues"] for entry in got] == _per_bin_reference([setup_at(y) for y in ys], i, 2, transfer_at)


def test_the_aggregate_orthonormalizes_two_orbit_points_per_sample(monkeypatch):
    blocks = []
    original = oseledets.orthonormalize

    def counting(stack):
        blocks.append(len(stack))
        return original(stack)

    monkeypatch.setattr(oseledets, "orthonormalize", counting)
    # A shift that grows with y gives every sample its own decomposition.
    map_ = make_torus_translation(4, gtilde=lambda y: 0.7 + 0.01 * y)
    fib = TruncatedBasis((4,), ("fiber",))
    fgrid = default_grid(fib)
    setups = [periodic_setup(map_, y, fib, fgrid) for y in np.linspace(0.0, TWO_PI, 8, endpoint=False)]
    # A setup builds no frame; the aggregate asks each for the blocks of
    # every bin at h^i(y) and h^{i+1}(y), in one call, and for no others.
    assert blocks == []
    discrete_eigenoperator_spectrum(iter(setups), 1, len(setups[0].bins))
    assert blocks == [2 * len(setup.bins) for setup in setups]
    assert all(len(setup.bins) > 1 for setup in setups)
    # Samples of one decomposition are read once.
    blocks.clear()
    discrete_eigenoperator_spectrum(iter(setups[:1] * 8), 1, len(setups[0].bins))
    assert blocks == [2 * len(setups[0].bins)]


@pytest.mark.parametrize("i", [1, 3, -1, 5])
def test_discrete_aggregation_reuses_the_setup_transfer(i, monkeypatch):
    # The constant shift gives every orbit point of every sample the same
    # transfer: setups that share a memo assemble it once, at the first
    # sample, and the aggregation assembles none.
    calls = []
    original = oseledets.assemble_fiber_koopman

    def counting(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(oseledets, "assemble_fiber_koopman", counting)
    map_ = make_torus_translation(4, gtilde=0.7)
    fib = TruncatedBasis((3,), ("fiber",))
    fgrid = default_grid(fib)
    memo = {}
    ys = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    setups = [periodic_setup(map_, y, fib, fgrid, memo) for y in ys]
    bin_count = len(setups[0].bins)
    got = discrete_eigenoperator_spectrum(iter(setups), i, bin_count)
    assert calls == [ys[0]]
    assert all(setup.transfers[m] is setups[0].transfers[0] for setup in setups for m in range(4))
    # The shared transfer is the transfer assembled at h^i(y), bit for bit.
    transfer_at = lambda w: original(map_, w, fib, fgrid)
    ref = _per_bin_reference(setups, i, bin_count, transfer_at)
    assert [entry["eigenvalues"] for entry in got] == ref


def _unshared_setup(map_, y, fib, fgrid):
    """A setup built with nothing shared: each orbit point's transfer assembled, its own solve, a key of its own."""
    orbit = map_.base_orbit(y)
    if map_.fiber_kind == "torus":
        transfers = [assemble_fiber_koopman(map_, w, fib, fgrid) for w in orbit]
    else:
        transfers = [cyclic_fiber_koopman(map_, w) for w in orbit]
    mu, vectors = np.linalg.eig(functools.reduce(np.matmul, transfers))
    bins = isolating_bins(mu, map_.base_period)
    return PeriodicSetup(float(y), orbit, transfers, bins, periodic_subspaces(map_, y, transfers, mu, vectors, bins))


@pytest.mark.parametrize("i", [1, 3, -1, 5])
@pytest.mark.parametrize("kind", ["torus", "cyclic"])
@settings(max_examples=15, deadline=None)
@given(
    st.lists(st.tuples(st.floats(0.0, TWO_PI, exclude_max=True), st.integers(0, 2)), min_size=1, max_size=4),
    st.integers(min_value=2, max_value=16),
    st.floats(0.0, TWO_PI, exclude_max=True),
)
def test_shared_setups_aggregate_like_unshared_ones(kind, i, pieces, count, y0):
    # gtilde is a step function of y: samples on one step share their
    # transfers, and samples whose orbits see the same steps in the same
    # order share their decomposition.
    starts, values = zip(*sorted(pieces))
    gtilde = lambda y: values[bisect.bisect_right(starts, y) - 1]
    if kind == "torus":
        map_ = make_torus_translation(4, gtilde=lambda y: (0.3, 0.7, 1.9)[gtilde(y)])
        fib = TruncatedBasis((3,), ("fiber",))
        fgrid = default_grid(fib)
    else:
        map_ = make_cyclic_group(6, 3, gtilde=lambda y: 1 + gtilde(y))
        fib = fgrid = None
    ys = np.linspace(0.0, TWO_PI, count, endpoint=False)
    memo = {}
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BinBoundaryWarning)
        bin_count = len(periodic_setup(map_, y0, fib, fgrid, memo).bins)
        shared = discrete_eigenoperator_spectrum((periodic_setup(map_, y, fib, fgrid, memo) for y in ys), i, bin_count)
        assert len(_unshared_setup(map_, y0, fib, fgrid).bins) == bin_count
        unshared = discrete_eigenoperator_spectrum((_unshared_setup(map_, y, fib, fgrid) for y in ys), i, bin_count)
    assert canonical_json(shared) == canonical_json(unshared)


def test_the_aggregate_stops_decomposing_once_every_bin_has_drifted(monkeypatch):
    decomposed, pulled = [], []
    original = oseledets.periodic_subspaces

    def counting(map_, y, *args):
        decomposed.append(y)
        return original(map_, y, *args)

    monkeypatch.setattr(oseledets, "periodic_subspaces", counting)
    # Some base points of cyclic_group(6, 3) have 3 bins of dimension 2,
    # the others 6 of dimension 1, so all 3 bins of y = 0.5 drift.
    map_ = make_cyclic_group(6, 3)
    memo = {}
    bin_count = len(periodic_setup(map_, 0.5, memo=memo).bins)
    ys = np.linspace(0.0, TWO_PI, 16, endpoint=False).tolist()

    def setups(ys):
        for y in ys:
            pulled.append(y)
            yield periodic_setup(map_, y, memo=memo)

    got = discrete_eigenoperator_spectrum(setups(ys), 1, bin_count)
    assert bin_count == 3 and all(set(entry) == {"i", "error"} for entry in got)
    # The last sample read is the one at which the last bin drifted, and
    # no sample after it is set up or decomposed.
    assert pulled == ys[: len(pulled)] and len(pulled) < len(ys)
    before = discrete_eigenoperator_spectrum((periodic_setup(map_, y) for y in pulled[:-1]), 1, bin_count)
    assert any("error" not in entry for entry in before)
    assert decomposed[0] == 0.5 and set(decomposed[1:]) <= set(pulled)
