"""Tests for the certified eigensolver and spectral set utilities."""

import hashlib
import re
import tracemalloc
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eigenop import cli, ioformats, spectra
from eigenop.basis import TruncatedBasis, default_grid
from eigenop.generator import (
    BlockOperator,
    SmoothingWeights,
    advection_matrix,
    assemble_generator,
    smoothed_generator,
)
from eigenop.spectra import (
    COUPLING_RTOL,
    EigensolveError,
    SpectrumReport,
    coupling_blocks,
    eig,
    eig_matrix,
    hausdorff_distance,
    match_multisets,
    matrix_norm_estimate,
    sort_by_target,
)
from eigenop.systems import make_gaussian_vortex, make_rotation, make_stratospheric


def _rotation_generator():
    basis = TruncatedBasis((8, 8), ("base", "fiber"))
    return assemble_generator(make_rotation(0.7, 0.5), basis, default_grid(basis))


def _smoothed_generator(system, multiplier=4):
    """(diag(w) V, w) at cutoffs 3."""
    basis = TruncatedBasis((3, 3, 3), ("base", "fiber", "fiber"))
    V = assemble_generator(system, basis, default_grid(basis, multiplier))
    w = SmoothingWeights(basis, 0.1, 0.1)
    return smoothed_generator(V, w), w.values


def _skew_hermitian(rng, n):
    X = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    return X - X.conj().T


def test_matrix_norm_estimate_matches_svd():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    exact = np.linalg.norm(A, ord=2)
    assert matrix_norm_estimate(A) == pytest.approx(exact, rel=1e-6)


@pytest.mark.parametrize("entry", [1e78, 1e160, 1e300, 1e-300], ids=["1e78", "1e160", "1e300", "1e-300"])
def test_matrix_norm_estimate_stays_in_range(entry):
    # ||M||^2 leaves the float range; the estimate of ||M|| must not.
    M = np.array([[0.0, entry], [-entry, 0.0]], dtype=complex)
    assert matrix_norm_estimate(M) == pytest.approx(entry, rel=1e-14, abs=0.0)
    op = BlockOperator(TruncatedBasis((1,), ("fiber",)), [np.arange(2), np.array([2])], [M, np.zeros((1, 1))], "generator")
    assert matrix_norm_estimate(op) == pytest.approx(entry, rel=1e-14, abs=0.0)


@pytest.mark.parametrize("entry", [1e200, 1e300], ids=["1e200", "1e300"])
def test_eig_matrix_residuals_stay_finite_near_the_float_limit(entry):
    # The defect's norm squares entries of size ||M||; the relative residual must not overflow.
    M = np.array([[0.0, 1 + 2j], [-1 + 2j, 0.0]]) * entry
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        report = eig_matrix(M)
    assert np.all(report.residuals <= 1e-14)
    assert np.sort(report.eigenvalues.imag / entry) == pytest.approx([-np.sqrt(5), np.sqrt(5)], rel=1e-14)


def test_matrix_norm_estimate_deterministic():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((15, 15))
    assert matrix_norm_estimate(A) == matrix_norm_estimate(A.copy())


def test_eig_matrix_diagonal_exact():
    lam = np.array([2j, -1j, 0.5j])
    report = eig_matrix(np.diag(lam))
    matched, worst = match_multisets(report.eigenvalues, lam, 1e-12)
    assert matched
    assert np.max(report.residuals) < 1e-12


def test_eig_matrix_residuals_recomputed_independently():
    A = _skew_hermitian(np.random.default_rng(2), 12)
    report = eig_matrix(A)
    scale = np.linalg.norm(A, ord=2)
    for lam, v, r in zip(report.eigenvalues, np.asarray(report.eigenvectors).T, report.residuals):
        direct = np.linalg.norm(A @ v - lam * v) / scale
        assert direct == pytest.approx(r, rel=1e-3, abs=1e-14)


def test_eig_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        eig_matrix(np.zeros((2, 3)))


def test_residual_contract_violation_raises():
    # Rounding makes residuals of a generic matrix nonzero, so an absurd
    # tolerance must trip the contract and carry the residuals.
    A = _skew_hermitian(np.random.default_rng(9), 10)
    with pytest.raises(EigensolveError, match="residual contract violated") as info:
        eig_matrix(A, tol=1e-300)
    assert info.value.residuals is not None and np.max(info.value.residuals) > 0


def test_residual_contract_rejects_nan_residuals(monkeypatch):
    # A norm estimate that comes back NaN makes every relative residual NaN.
    monkeypatch.setattr(spectra, "matrix_norm_estimate", lambda M: float("nan"))
    M = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(EigensolveError) as info:
        eig_matrix(M)
    assert np.all(np.isnan(info.value.residuals))


def test_eig_on_operator_matrix_carries_provenance():
    basis = TruncatedBasis((1,), ("fiber",))
    op = BlockOperator(basis, [np.arange(3)], [np.diag([1j, 2j, 3j])], "generator")
    report = eig(op)
    assert report.source == "generator"
    assert sorted(report.eigenvalues.imag) == pytest.approx([1.0, 2.0, 3.0])


def test_sort_by_target_orders_by_distance():
    report = eig_matrix(np.diag([3j, 1j, 2j]))
    ordered = sort_by_target(report, target=1.1j)
    assert np.allclose(ordered.eigenvalues.imag, [1.0, 2.0, 3.0])
    assert ordered.sort_rule == "target:1.1j"
    assert sort_by_target(report).sort_rule == "target:(1e-10+0j)"


def test_sort_by_target_tie_break_is_lexicographic():
    report = eig_matrix(np.diag([1j, -1j, 0.0]).astype(complex))
    ordered = sort_by_target(report, target=0.0)
    assert ordered.eigenvalues[0] == pytest.approx(0.0)
    assert ordered.eigenvalues[1].imag < ordered.eigenvalues[2].imag


def test_match_multisets_success_and_failure():
    computed = [1.0 + 0j, 2.0 + 0j, 3.0 + 0j]
    ok, worst = match_multisets(computed, [1.0, 3.0], 1e-9)
    assert ok and worst < 1e-12
    ok, worst = match_multisets(computed, [10.0], 1e-9)
    assert not ok and worst == pytest.approx(7.0)


def test_match_multisets_respects_multiplicity():
    ok, _ = match_multisets([1.0 + 0j, 2.0 + 0j], [1.0, 1.0], 1e-6)
    assert not ok


def test_match_multisets_reference_larger_fails():
    ok, worst = match_multisets([1.0 + 0j], [1.0, 2.0], 1e-6)
    assert not ok and not np.isfinite(worst)


def test_hausdorff_distance_symmetric_and_zero_on_equal():
    a = np.array([0.0, 1.0 + 1j])
    b = np.array([1.0 + 1j, 0.0])
    assert hausdorff_distance(a, b) == 0.0
    c = np.array([0.0, 2.0 + 1j])
    assert hausdorff_distance(a, c) == pytest.approx(1.0)
    assert hausdorff_distance(c, a) == pytest.approx(1.0)


def test_hausdorff_distance_empty_sets():
    assert hausdorff_distance([], []) == 0.0
    assert not np.isfinite(hausdorff_distance([], [1.0]))


def test_spectrum_report_json_round_trip():
    report = eig_matrix(np.diag([2.0j]))
    doc = report.to_json_dict()
    assert doc["eigenvalues"] == [[0.0, 2.0]]
    assert doc["tolerance"] == report.tolerance


@pytest.mark.parametrize(
    "make_op",
    [
        lambda: (_rotation_generator(), None),
        # Grid multiplier 4: the quadrature is not exact for these velocities.
        lambda: _smoothed_generator(make_gaussian_vortex(0.5)),
        lambda: _smoothed_generator(make_stratospheric()),
    ],
    ids=["rotation", "vortex", "stratospheric"],
)
def test_real_velocity_generators_take_hermitian_path(make_op):
    op, w = make_op()
    report = eig(op, tol=1e-8, weights=w)
    assert report.meta["blocks"] > 1
    matched, worst = match_multisets(report.eigenvalues, np.linalg.eigvals(op[:]), 1e-10)
    assert matched, worst
    assert np.all(report.eigenvalues.real == 0.0)
    assert np.all(report.residuals <= report.tolerance)


def test_coarse_grid_quadrature_error_keeps_vortex_generator_skew():
    # At grid multiplier 4 the vortex entries carry a quadrature error of
    # about 7e-6 against multiplier 8, yet the skew-symmetric assembly keeps
    # V + V* at rounding level, so the coarse operator passes the skew test.
    basis = TruncatedBasis((3, 3, 3), ("base", "fiber", "fiber"))
    vortex = make_gaussian_vortex(0.5)
    coarse = assemble_generator(vortex, basis, default_grid(basis, 4))[:]
    fine = assemble_generator(vortex, basis, default_grid(basis, 8))[:]
    assert np.max(np.abs(coarse - fine)) > 1e-7
    assert np.max(np.abs(coarse + coarse.conj().T)) < 1e-14
    op, w = _smoothed_generator(vortex)
    assert np.all(eig(op, tol=1e-8, weights=w).eigenvalues.real == 0.0)


def test_random_complex_operator_is_rejected():
    rng = np.random.default_rng(4)
    M = rng.standard_normal((15, 15)) + 1j * rng.standard_normal((15, 15))
    defect = np.max(np.abs(M + M.conj().T))
    with pytest.raises(EigensolveError, match=rf"not skew-Hermitian: .* = {re.escape(f'{defect:.3e}')} > ") as info:
        eig_matrix(M)
    # Raised before any solve, so there are no residuals to carry.
    assert info.value.residuals is None


def test_hermitian_path_keeps_residual_contract():
    with pytest.raises(EigensolveError) as info:
        eig(_rotation_generator(), tol=1e-300)
    assert info.value.residuals is not None


def test_block_counts_are_recorded_in_json():
    doc = eig(_rotation_generator()).to_json_dict()
    assert (doc["meta"]["blocks"], doc["meta"]["largest_block"]) == (33, 17)
    assert "solver" not in doc["meta"]
    assert len(doc["eigenvalues"]) == len(doc["residuals"]) == 17 * 17


@pytest.mark.parametrize("form", ["left", "symmetric"])
def test_skew_similar_generator_takes_hermitian_path(form):
    # The smoothed vortex generator diag(w) V, scaled by sqrt(w), is
    # skew-Hermitian to ~1e-16. The similar sqrt(w) V sqrt(w), built here, is
    # skew-Hermitian itself and is solved without weights. numpy's dense
    # general eigensolver on diag(w) V is the oracle for both.
    op, w = _smoothed_generator(make_gaussian_vortex(0.5), multiplier=8)
    M = op[:]
    if form == "left":
        report = eig(op, tol=1e-8, weights=w)
    else:
        root = np.sqrt(w)
        M = M * (root[None, :] / root[:, None])
        report = eig_matrix(M, tol=1e-8)
    assert report.size == op.basis.size
    matched, worst = match_multisets(report.eigenvalues, np.linalg.eigvals(op[:]), 1e-10)
    assert matched, worst
    assert np.all(report.eigenvalues.real == 0.0)
    assert np.all(report.residuals <= 1e-13)
    scale = np.linalg.norm(M, ord=2)
    vectors = np.asarray(report.eigenvectors)
    direct = np.linalg.norm(M @ vectors - vectors * report.eigenvalues, axis=0)
    assert np.max(direct) / scale < 1e-13


def test_mirror_paired_operator_that_is_not_skew_is_rejected():
    # A real shift keeps the mirror pairing but puts 0.2 on the diagonal of S + S*.
    op = _rotation_generator()
    with pytest.raises(EigensolveError, match=r"not skew-Hermitian: .* = 2\.000e-01 > "):
        eig_matrix(op[:] + 0.1 * np.eye(op.basis.size), tol=1e-8)
    # An imaginary shift keeps the operator skew and shifts every eigenvalue.
    report = eig_matrix(op[:] + 0.1j * np.eye(op.basis.size), tol=1e-8)
    matched, worst = match_multisets(report.eigenvalues, eig(op).eigenvalues + 0.1j, 1e-10)
    assert matched, worst


def test_skew_path_needs_positive_weights_that_describe_the_operator():
    op, w = _smoothed_generator(make_gaussian_vortex(0.5), multiplier=8)
    underflowed = w.copy()
    underflowed[[0, -1]] = 0.0
    with pytest.raises(EigensolveError, match=r"^2 of 343 weights are not positive; the smallest is 0\.000e\+00$"):
        eig(op, tol=1e-8, weights=underflowed)
    ramped = w * np.linspace(1.0, 2.0, len(w))
    with pytest.raises(EigensolveError, match=r"not skew-Hermitian: .* = \d\.\d{3}e[-+]\d\d > "):
        eig(op, tol=1e-8, weights=ramped)
    # Positive weights need no mirror symmetry when they do describe the operator.
    ramped_op = ramped[:, None] * (op[:] / w[:, None])
    report = eig_matrix(ramped_op, tol=1e-8, weights=ramped)
    assert np.all(report.eigenvalues.real == 0.0)
    assert np.all(report.residuals <= report.tolerance)


@pytest.mark.parametrize("shift", [0.0, 0.3j], ids=["skew", "shifted"])
def test_permuted_block_diagonal_operator_matches_dense_oracle(shift):
    rng = np.random.default_rng(12)
    sizes = [3, 5, 1, 7, 2]
    n = sum(sizes)
    V = np.zeros((n, n), dtype=complex)
    start = 0
    for k in sizes:
        V[start : start + k, start : start + k] = _skew_hermitian(rng, k)
        start += k
    # An imaginary shift keeps V skew-Hermitian.
    V += shift * np.eye(n)
    perm = rng.permutation(n)
    V = V[np.ix_(perm, perm)]
    w = rng.uniform(0.5, 2.0, n)
    M = w[:, None] * V
    report = eig_matrix(M, weights=w)
    assert report.meta == {"blocks": 5, "largest_block": 7}
    assert sorted(len(b) for b in coupling_blocks(M)) == sorted(sizes)
    matched, worst = match_multisets(report.eigenvalues, np.linalg.eigvals(M), 1e-10)
    assert matched, worst
    assert np.all(report.residuals <= 1e-13)
    vectors = np.asarray(report.eigenvectors)
    direct = np.linalg.norm(M @ vectors - vectors * report.eigenvalues, axis=0)
    assert np.max(direct) / np.linalg.norm(M, ord=2) < 1e-13
    assert np.all(report.eigenvalues.real == 0.0)


def test_dense_random_skew_hermitian_operator_is_one_block():
    M = _skew_hermitian(np.random.default_rng(13), 40)
    report = eig_matrix(M)
    assert report.meta == {"blocks": 1, "largest_block": 40}
    matched, worst = match_multisets(report.eigenvalues, np.linalg.eigvals(M), 1e-10)
    assert matched, worst
    assert np.all(report.eigenvalues.real == 0.0)
    assert np.all(report.residuals <= 1e-13)


def test_coupling_below_the_threshold_shows_in_the_residual():
    # Block {0..3} and the singleton {4}, joined only by a coupling below
    # COUPLING_RTOL * max|M|: the graph splits them, so the singleton's
    # eigenvector e_4 is not an eigenvector of M, and its residual must say so.
    M = np.zeros((5, 5), dtype=complex)
    M[:4, :4] = _skew_hermitian(np.random.default_rng(14), 4) / 4
    M[4, 4] = 5j
    coupling = 0.5 * COUPLING_RTOL * np.max(np.abs(M))
    M[0, 4] = coupling
    report = eig_matrix(M)
    assert report.meta["blocks"] == 2
    assert report.eigenvalues[4] == 5j
    assert report.residuals[4] >= 0.5 * coupling / matrix_norm_estimate(M)


def test_block_of_rounding_noise_keeps_the_hermitian_path():
    # The singleton block [[1e-17]] is far from skew on its own scale, but
    # the skew test is relative to the whole matrix.
    report = eig_matrix(np.diag([2j, 1e-17]))
    assert report.meta == {"blocks": 2, "largest_block": 1}
    assert np.array_equal(report.eigenvalues, [2j, 0.0])
    assert np.all(report.residuals <= 1e-16)


def test_sort_by_target_ignores_roundoff_in_pair_distances():
    # +-i mu pairs whose distances to the target differ by one ulp, one way
    # round in each report, must be listed the same way.
    mu = 0.7
    up = np.nextafter(mu, 2.0)
    orders = []
    for a, b in ((mu, up), (up, mu)):
        report = SpectrumReport(
            np.array([1j * a, -1j * b, 2j, -2j]),
            np.eye(4, dtype=complex),
            np.zeros(4),
            1e-8,
            "unsorted",
            "matrix",
        )
        orders.append(np.sign(sort_by_target(report, 1e-10).eigenvalues.imag))
    assert np.abs(1j * mu - 1e-10) != np.abs(-1j * up - 1e-10)
    assert np.array_equal(orders[0], orders[1])
    assert np.array_equal(orders[0], [-1.0, 1.0, -1.0, 1.0])


def _velocity(system, grid):
    nodes = grid.nodes
    return np.column_stack([system.base_velocity(nodes[:, 0]), system.fiber_velocity(nodes[:, 0], nodes[:, 1:])])


BLOCK_CASES = {
    # name: (system, cutoffs, grid multiplier, smoothed)
    "rotation": (lambda: make_rotation(0.7, 0.5), (4, 4), 4, False),
    "vortex": (lambda: make_gaussian_vortex(0.5), (3, 3, 3), 4, True),
    "stratospheric": (make_stratospheric, (2, 3, 3), 8, True),
}


def _block_case(name):
    """(system, basis, grid, generator, operator to solve, left weights or None)."""
    make, cutoffs, multiplier, smoothed = BLOCK_CASES[name]
    system = make()
    basis = TruncatedBasis(cutoffs, ("base",) + ("fiber",) * (len(cutoffs) - 1))
    grid = default_grid(basis, multiplier)
    V = assemble_generator(system, basis, grid)
    if not smoothed:
        return system, basis, grid, V, V, None
    w = SmoothingWeights(basis, 0.1, 0.1)
    return system, basis, grid, V, smoothed_generator(V, w), w.values


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_generator_matches_dense_assembly(name):
    system, basis, grid, V, _, _ = _block_case(name)
    dense = advection_matrix(basis, grid, _velocity(system, grid))
    block = V[:]
    above = np.abs(dense) > COUPLING_RTOL * np.max(np.abs(dense))
    assert np.array_equal(block[above], dense[above])
    assert np.max(np.abs(block - dense)) <= V.meta["dropped_coupling_bound"] == V.dropped_bound
    assert [b.tolist() for b in V.blocks] == [b.tolist() for b in coupling_blocks(dense)]
    # Every entry inside a block is the dense one, bit for bit; every other is 0.
    inside = np.zeros(dense.shape, dtype=bool)
    for b in V.blocks:
        inside[np.ix_(b, b)] = True
    assert np.array_equal(block[inside], dense[inside])
    assert np.all(block[~inside] == 0.0)


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_operator_streams_the_dense_document(name, tmp_path, monkeypatch):
    *_, op, _ = _block_case(name)
    args = (op.basis.describe(), op.basis.describe(), op.provenance, op.meta)
    ioformats.write_matrix(tmp_path / "dense.json", op[:], *args)
    # A few rows per chunk, so that chunks end inside blocks.
    monkeypatch.setattr(ioformats, "_PAYLOAD_CHUNK", 3 * 2 * op.shape[0])
    digest = ioformats.write_matrix(tmp_path / "block.json", op, *args)
    raw = (tmp_path / "block.json").read_bytes()
    assert raw == (tmp_path / "dense.json").read_bytes()
    assert digest == hashlib.sha256(raw).hexdigest() == ioformats.file_sha256(tmp_path / "block.json")


@pytest.mark.parametrize("name", BLOCK_CASES)
def test_block_and_dense_solves_are_bitwise_equal(name):
    *_, op, w = _block_case(name)
    block = eig(op, tol=1e-8, weights=w)
    dense = eig_matrix(op[:], tol=1e-8, source=op.provenance, meta=dict(op.meta), weights=w)
    assert np.array_equal(block.eigenvalues, dense.eigenvalues)
    assert np.array_equal(np.asarray(block.eigenvectors), np.asarray(dense.eigenvectors))
    assert block.meta == dense.meta
    assert np.max(np.abs(block.residuals - dense.residuals)) < 1e-15
    # Sorting and keeping the leading columns commute with densifying.
    leading = sort_by_target(block).eigenvectors[:, :7]
    assert np.array_equal(np.asarray(leading), np.asarray(sort_by_target(dense).eigenvectors)[:, :7])


def test_vortex_assembly_and_solve_stay_below_a_quarter_dense_matrix():
    ctx = cli.PipelineContext(cli.bundled_config("gaussian_vortex"), Path("unused"))
    quarter = ctx.basis.size**2 * 16 / 4
    tracemalloc.start()
    try:
        V = assemble_generator(ctx.system, ctx.basis, ctx.grid)
        op = smoothed_generator(V, ctx.weights)
        report = eig(op, tol=1e-6, weights=ctx.weights.values)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.size == ctx.basis.size == 2197
    assert peak < quarter, f"peak {peak / 1e6:.1f} MB against {quarter / 1e6:.1f} MB"


def _rotation_with_a_wave(amplitude):
    """The rotation plus amplitude * cos(3y) on the fiber velocity: coefficients amplitude/2 at s = (+-3, 0)."""
    rotation = make_rotation(0.7, 0.5)
    wave = lambda y, z: rotation.fiber_velocity(y, z) + amplitude * np.cos(3 * np.asarray(y, dtype=float))[..., None]
    return replace(rotation, fiber_velocity=wave)


def test_dropped_coupling_bound_shows_a_coefficient_below_the_support():
    # The largest coefficient is the base velocity's 1, so the support
    # threshold is COUPLING_RTOL itself.
    basis = TruncatedBasis((8, 8), ("base", "fiber"))
    grid = default_grid(basis)
    plain = assemble_generator(make_rotation(0.7, 0.5), basis, grid).dropped_bound
    below = 0.9 * COUPLING_RTOL
    waved = assemble_generator(_rotation_with_a_wave(2 * below), basis, grid)
    # Each of s = (+-3, 0) enters once, times the fiber cutoff 8.
    assert waved.dropped_bound == pytest.approx(plain + 2 * below * 8, abs=0.05 * below)
    assert waved.meta["dropped_coupling_bound"] == waved.dropped_bound
    above = assemble_generator(_rotation_with_a_wave(2 * 1.1 * COUPLING_RTOL), basis, grid)
    assert above.dropped_bound == pytest.approx(plain, abs=0.05 * below)


def test_dropped_coupling_bound_enters_the_residual_contract():
    basis = TruncatedBasis((8, 8), ("base", "fiber"))
    waved = assemble_generator(_rotation_with_a_wave(1.8 * COUPLING_RTOL), basis, default_grid(basis))
    report = eig(waved, tol=1e-8)
    assert report.meta["dropped_coupling_bound"] == waved.dropped_bound
    share = waved.dropped_bound / matrix_norm_estimate(waved)
    tol = np.max(report.residuals) + 0.5 * share
    with pytest.raises(EigensolveError, match="dropped coupling") as info:
        eig(waved, tol=tol)
    assert np.all(info.value.residuals <= tol)
