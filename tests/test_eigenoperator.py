"""Tests for compressed eigenoperator matrices and their spectra."""

import numpy as np
import pytest

from eigenop.basis import TruncatedBasis, default_grid
from eigenop.eigenoperator import (
    DegenerateEigenvectorError,
    EigenoperatorSample,
    MissingSubspaceError,
    continuous_eigenoperator,
    discrete_eigenoperator_spectrum,
    discrete_multiplier,
    frozen_fiber_system,
    norm_constancy,
    rank_one_spectrum,
    shift_invariance_check,
    _tolerance_union,
)
from eigenop.generator import assemble_fiber_koopman
from eigenop.oseledets import RESTRICTED_EIGVECS, FiberSubspace, PeriodicSetup, periodic_setup, restrict_coefficients
from eigenop.spectra import match_multisets
from eigenop.systems import make_cyclic_group, make_rotation, make_torus_translation

ALPHA = 0.7
BETA = 0.5
TWO_PI = 2.0 * np.pi


def _mode_subspace(fib, mode, y):
    frame = np.zeros((fib.size, 1), dtype=complex)
    frame[fib.index_of(mode), 0] = 1.0
    return FiberSubspace(y=float(y), frame=frame, origin=RESTRICTED_EIGVECS, effective_rank=1)


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


def test_frozen_fiber_system_pins_base_point():
    sys_ = make_rotation(ALPHA, BETA)
    frozen = frozen_fiber_system(sys_, np.pi)
    z = np.array([[0.1]])
    expected = ALPHA * (1.0 + BETA * np.cos(np.pi))
    assert frozen.fiber_velocity(0.0, z)[0, 0] == pytest.approx(expected)


def test_continuous_eigenoperator_frequency_ladder():
    sys_ = make_rotation(ALPHA, BETA)
    basis = TruncatedBasis((3, 3), ("base", "fiber"))
    grid = default_grid(basis)
    y, j = 0.8, 2
    sub = _mode_subspace(basis.fiber_subbasis(), (j,), y)
    sample = continuous_eigenoperator(sys_, sub, y, 0.0, basis, grid)
    ref = [1j * (k + j * ALPHA * (1.0 + BETA * np.cos(y))) for k in range(-3, 4)]
    ok, worst = match_multisets(sample.spectrum().eigenvalues, ref, 1e-10)
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
    empty = FiberSubspace(0.0, np.zeros((5, 0), dtype=complex), RESTRICTED_EIGVECS, 0)
    with pytest.raises(MissingSubspaceError):
        continuous_eigenoperator(sys_, empty, 0.0, 0.0, basis, default_grid(basis))


def test_eigenoperator_sample_guards():
    with pytest.raises(ValueError):
        EigenoperatorSample(0.0, np.zeros((2, 3)), "discrete_M", {})
    with pytest.raises(ValueError):
        EigenoperatorSample(0.0, np.eye(2), "unknown", {})


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
        frames.append(FiberSubspace(float(w), frame, "spectral_bin", 1))
    return frames


def test_discrete_multiplier_matches_phase():
    map_ = make_torus_translation(4, gtilde=0.7)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    y0 = 0.3
    family = _family(map_, y0, fib, fgrid)
    transfer = lambda w: assemble_fiber_koopman(map_, w, 1, fib, fgrid).entries
    sample = discrete_multiplier(map_, family, transfer, y0, 1)
    # The multiplier restricted to the j=1 mode is the phase e^{i*0.7}.
    row = fib.index_of((1,))
    assert sample.matrix[row, row] == pytest.approx(np.exp(0.7j), abs=1e-12)
    assert sample.kind == "discrete_M"


def test_discrete_multiplier_needs_full_family():
    map_ = make_torus_translation(4)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    family = _family(map_, 0.3, fib, fgrid)[:2]
    transfer = lambda w: assemble_fiber_koopman(map_, w, 1, fib, fgrid).entries
    with pytest.raises(MissingSubspaceError):
        discrete_multiplier(map_, family, transfer, 0.3, 1)


def _family_setup(map_, fib, fgrid, family_fn):
    """setup_fn whose setups carry the given families, one per bin."""
    transfer = lambda w: assemble_fiber_koopman(map_, w, 1, fib, fgrid).entries
    calls = []

    def setup_fn(y):
        calls.append(y)
        return PeriodicSetup(y, map_.base_orbit(y), [], transfer, [], family_fn(y))

    return setup_fn, calls


def test_discrete_eigenoperator_spectrum_constant_shift():
    map_ = make_torus_translation(4, gtilde=0.7)
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    setup_fn, _ = _family_setup(map_, fib, fgrid, lambda y: [_family(map_, y, fib, fgrid)])
    ys = np.linspace(0.0, TWO_PI, 6, endpoint=False)
    (out,) = discrete_eigenoperator_spectrum(map_, ys, 1, setup_fn, 1)
    assert out["dimension"] == 1
    # A constant shift gives the same compressed phase at every sample.
    assert len(out["eigenvalues"]) == 1
    cluster = out["eigenvalues"][0]
    assert cluster["support"] == len(ys)
    assert abs(cluster["value"] - np.exp(0.7j)) < 1e-10


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
            family = [FiberSubspace(s.y, wide, "spectral_bin", 2) for s in family]
        return family

    families = lambda y: [_family(map_, y, fib, fgrid), jittery_family(y)]
    setup_fn, _ = _family_setup(map_, fib, fgrid, families)
    ys = np.array([0.5, 4.0])
    stable, drifting = discrete_eigenoperator_spectrum(map_, ys, 1, setup_fn, 2)
    assert drifting == {"i": 1, "error": "subspace dimension varies across samples (2 vs 1)"}
    assert stable["dimension"] == 1
    assert sum(c["support"] for c in stable["eigenvalues"]) == len(ys)

    # Once every bin has drifted, no further sample is set up.
    setup_fn, calls = _family_setup(map_, fib, fgrid, lambda y: [jittery_family(y)])
    (only,) = discrete_eigenoperator_spectrum(map_, [0.5, 4.0, 4.5, 5.0], 1, setup_fn, 1)
    assert "error" in only
    assert calls == [0.5, 4.0]


def _per_bin_reference(map_, ys, i, setup_at, bin_count, tol=1e-8):
    """Bin-outer aggregation straight from periodic setups; None marks drift."""
    n = map_.base_period
    out = []
    for b in range(bin_count):
        dim, samples = None, []
        for y in ys:
            setup = setup_at(float(y))
            family = setup.families[min(b, len(setup.families) - 1)]
            sub_w, sub_hw = family[i % n], family[(i + 1) % n]
            dim = sub_w.dim if dim is None else dim
            if sub_w.dim != dim or sub_hw.dim != dim:
                samples = None
                break
            U = setup.transfer(map_.base_iterate(float(y), i))
            samples.append(np.linalg.eigvals(sub_w.frame.conj().T @ U @ sub_hw.frame))
        out.append(None if samples is None else _tolerance_union(samples, tol))
    return out


@pytest.mark.parametrize("kind", ["torus", "cyclic"])
def test_discrete_eigenoperator_spectrum_matches_per_bin_reference(kind):
    if kind == "torus":
        map_ = make_torus_translation(4, gtilde=0.7)
        fib = TruncatedBasis((3,), ("fiber",))
        setup_at = lambda y: periodic_setup(map_, y, fib, default_grid(fib))
        y0 = 0.3
    else:
        map_ = make_cyclic_group(6, 3)
        setup_at = lambda y: periodic_setup(map_, y)
        y0 = 0.5
    ys = np.linspace(0.0, TWO_PI, 8, endpoint=False)
    bin_count = len(setup_at(y0).bins)
    got = discrete_eigenoperator_spectrum(map_, ys, 1, setup_at, bin_count)
    ref = _per_bin_reference(map_, ys, 1, setup_at, bin_count)
    assert len(got) == bin_count
    for entry, expected in zip(got, ref):
        if expected is None:
            assert set(entry) == {"i", "error"}
        else:
            assert entry["eigenvalues"] == expected
    if kind == "torus":
        assert all(expected is not None for expected in ref)
