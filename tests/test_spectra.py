"""Tests for the certified eigensolver and spectral set utilities."""

import numpy as np
import pytest

from eigenop.basis import TruncatedBasis, default_grid
from eigenop.generator import OperatorMatrix, SmoothingWeights, assemble_generator, smoothed_generator
from eigenop.spectra import (
    EigensolveError,
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


def _smoothed_generator(system, symmetric, multiplier=4):
    """(diag(w) V or sqrt(w) V sqrt(w), w) at cutoffs 3; w is None for the symmetric form."""
    basis = TruncatedBasis((3, 3, 3), ("base", "fiber", "fiber"))
    V = assemble_generator(system, basis, default_grid(basis, multiplier))
    w = SmoothingWeights(basis, 0.1, 0.1)
    return smoothed_generator(V, w, symmetric), None if symmetric else w.values


def test_matrix_norm_estimate_matches_svd():
    rng = np.random.default_rng(5)
    A = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
    exact = np.linalg.norm(A, ord=2)
    assert matrix_norm_estimate(A) == pytest.approx(exact, rel=1e-6)


def test_matrix_norm_estimate_deterministic():
    rng = np.random.default_rng(1)
    A = rng.standard_normal((15, 15))
    assert matrix_norm_estimate(A) == matrix_norm_estimate(A.copy())


def test_eig_matrix_diagonal_exact():
    lam = np.array([2.0, -1.0, 0.5j])
    report = eig_matrix(np.diag(lam))
    matched, worst = match_multisets(report.eigenvalues, lam, 1e-12)
    assert matched
    assert np.max(report.residuals) < 1e-12


def test_eig_matrix_residuals_recomputed_independently():
    rng = np.random.default_rng(2)
    A = rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12))
    report = eig_matrix(A)
    scale = np.linalg.norm(A, ord=2)
    for lam, v, r in zip(report.eigenvalues, report.eigenvectors.T, report.residuals):
        direct = np.linalg.norm(A @ v - lam * v) / scale
        assert direct == pytest.approx(r, rel=1e-3, abs=1e-14)


def test_eig_matrix_rejects_non_square():
    with pytest.raises(ValueError):
        eig_matrix(np.zeros((2, 3)))


def test_residual_contract_violation_raises():
    # Rounding makes residuals of a generic matrix nonzero, so an absurd
    # tolerance must trip the contract and carry the residuals.
    rng = np.random.default_rng(9)
    A = rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10))
    with pytest.raises(EigensolveError) as info:
        eig_matrix(A, tol=1e-300)
    assert info.value.residuals is not None


def test_eig_on_operator_matrix_carries_provenance():
    basis = TruncatedBasis((1,), ("fiber",))
    op = OperatorMatrix(basis, basis, np.diag([1.0, 2.0, 3.0]).astype(complex), "generator")
    report = eig(op)
    assert report.source == "generator"
    assert sorted(report.eigenvalues.real) == pytest.approx([1.0, 2.0, 3.0])


def test_sort_by_target_orders_by_distance():
    report = eig_matrix(np.diag([3.0, 1.0, 2.0]).astype(complex))
    ordered = sort_by_target(report, target=1.1)
    assert np.allclose(ordered.eigenvalues.real, [1.0, 2.0, 3.0])
    assert ordered.sort_rule.startswith("target:")


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
    report = eig_matrix(np.diag([1.0 + 2.0j]).astype(complex))
    doc = report.to_json_dict()
    assert doc["eigenvalues"] == [[1.0, 2.0]]
    assert doc["tolerance"] == report.tolerance


@pytest.mark.parametrize(
    "make_op",
    [
        lambda: (_rotation_generator(), None),
        # Grid multiplier 4: the quadrature is not exact for these velocities.
        lambda: _smoothed_generator(make_gaussian_vortex(0.5), False),
        lambda: _smoothed_generator(make_gaussian_vortex(0.5), True),
        lambda: _smoothed_generator(make_stratospheric(), False),
    ],
    ids=["rotation", "vortex", "vortex-symmetric", "stratospheric"],
)
def test_real_velocity_generators_take_real_form_path(make_op):
    op, w = make_op()
    report = eig(op, tol=1e-8, weights=w)
    reference = eig_matrix(op.entries, tol=1e-8)
    assert report.meta["solver"] == "skew-tridiagonal"
    assert reference.meta["solver"] == "complex"
    matched, worst = match_multisets(report.eigenvalues, reference.eigenvalues, 1e-10)
    assert matched, worst
    assert np.all(report.eigenvalues.real == 0.0)
    assert np.all(report.residuals <= report.tolerance)


def test_coarse_grid_quadrature_error_keeps_vortex_generator_skew():
    # At grid multiplier 4 the vortex entries carry a quadrature error of
    # about 7e-6 against multiplier 8, yet the skew-symmetric assembly keeps
    # V + V* at rounding level, so the coarse operator needs no fallback.
    basis = TruncatedBasis((3, 3, 3), ("base", "fiber", "fiber"))
    vortex = make_gaussian_vortex(0.5)
    coarse = assemble_generator(vortex, basis, default_grid(basis, 4)).entries
    fine = assemble_generator(vortex, basis, default_grid(basis, 8)).entries
    assert np.max(np.abs(coarse - fine)) > 1e-7
    assert np.max(np.abs(coarse + coarse.conj().T)) < 1e-14
    op, w = _smoothed_generator(vortex, False)
    assert eig(op, tol=1e-8, weights=w).meta["solver"] == "skew-tridiagonal"


def test_random_complex_operator_takes_complex_path():
    rng = np.random.default_rng(4)
    basis = TruncatedBasis((2, 1), ("base", "fiber"))
    n = basis.size
    op = OperatorMatrix(basis, basis, rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), "generator")
    report = eig(op)
    assert report.meta["solver"] == "complex"
    assert np.all(report.residuals <= report.tolerance)


def test_real_form_path_keeps_residual_contract():
    with pytest.raises(EigensolveError) as info:
        eig(_rotation_generator(), tol=1e-300)
    assert info.value.residuals is not None


def test_solver_is_recorded_in_json():
    doc = eig(_rotation_generator()).to_json_dict()
    assert doc["meta"]["solver"] == "skew-tridiagonal"
    assert len(doc["eigenvalues"]) == len(doc["residuals"]) == 17 * 17


@pytest.mark.parametrize("symmetric", [False, True], ids=["left", "symmetric"])
def test_skew_similar_generator_takes_skew_tridiagonal_path(symmetric):
    # The smoothed vortex generator's real form, scaled by sqrt(w), is skew
    # to ~1e-16; the dense complex solver is the oracle.
    op, w = _smoothed_generator(make_gaussian_vortex(0.5), symmetric, multiplier=8)
    report = eig(op, tol=1e-8, weights=w)
    reference = eig_matrix(op.entries, tol=1e-8)
    assert report.meta["solver"] == "skew-tridiagonal"
    assert reference.meta["solver"] == "complex"
    assert report.size == reference.size == op.rows.size
    matched, worst = match_multisets(report.eigenvalues, reference.eigenvalues, 1e-10)
    assert matched, worst
    assert np.all(report.eigenvalues.real == 0.0)
    assert np.all(report.residuals <= 1e-13)
    scale = np.linalg.norm(op.entries, ord=2)
    direct = np.linalg.norm(op.entries @ report.eigenvectors - report.eigenvectors * report.eigenvalues, axis=0)
    assert np.max(direct) / scale < 1e-13


def test_mirror_paired_operator_that_is_not_skew_takes_complex_path():
    op = _rotation_generator()
    shifted = OperatorMatrix(op.rows, op.cols, op.entries + 0.1 * np.eye(op.rows.size), "generator")
    report = eig(shifted, tol=1e-8)
    assert report.meta["solver"] == "complex"
    assert np.all(report.residuals <= report.tolerance)
    matched, worst = match_multisets(report.eigenvalues, eig(op).eigenvalues + 0.1, 1e-10)
    assert matched, worst


def test_skew_path_needs_positive_mirror_symmetric_weights():
    op, w = _smoothed_generator(make_gaussian_vortex(0.5), False, multiplier=8)
    underflowed = w.copy()
    underflowed[[0, -1]] = 0.0
    for bad in (underflowed, w * np.linspace(1.0, 2.0, len(w))):
        report = eig(op, tol=1e-8, weights=bad)
        assert report.meta["solver"] == "complex"
        assert np.all(report.residuals <= report.tolerance)
