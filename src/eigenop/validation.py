"""Closed-form acceptance checks for the whole pipeline.

Each check returns a dict with an id, a name, a passed flag, and a
human-readable detail string. run_all executes every check, adds its
wall time as `seconds`, prints one line per check, and returns a
machine-readable summary.
"""

from __future__ import annotations

import filecmp
import tempfile
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

from .basis import TruncatedBasis, default_grid
from .cocycle import continuous_w, discrete_w, koopman_correspondence_check
from .eigenoperator import (
    CONTINUOUS_N,
    continuous_eigenoperator,
    discrete_multiplier,
    norm_constancy,
    rank_one_spectrum,
    shift_invariance_check,
)
from .generator import SmoothingWeights, assemble_generator, skew_symmetry_residual
from .oracles import peter_weyl_blockdiag, rotation_oracle, s3_table
from .oseledets import FiberSubspace, completeness_defect, equivariance_residual, periodic_setup
from .spectra import eig, eig_matrix, match_multisets
from .systems import make_cyclic_group, make_rotation, make_torus_translation

TWO_PI = 2.0 * np.pi

ALPHA = 0.7
BETA = 0.5


def _result(cid, name, passed, detail):
    return {"id": cid, "name": name, "passed": bool(passed), "detail": detail}


def _product_basis(kb: int, kf, fiber_dims: int = 1) -> TruncatedBasis:
    if np.isscalar(kf):
        kf = (kf,) * fiber_dims
    return TruncatedBasis((kb,) + tuple(kf), ("base",) + ("fiber",) * len(kf))


def _mode_frame_subspace(fiber_basis: TruncatedBasis, mode, y: float) -> FiberSubspace:
    frame = np.zeros((fiber_basis.size, 1), dtype=complex)
    frame[fiber_basis.index_of(mode), 0] = 1.0
    return FiberSubspace(y=float(y), frame=frame)


def check_rotation_generator_spectrum():
    """Generator eigenvalues of the driven rotation against closed form."""
    start = time.time()
    system = make_rotation(ALPHA, BETA)
    basis = _product_basis(8, 8)
    V = assemble_generator(system, basis, default_grid(basis))
    report = eig(V)
    reference = [1j * (k + ALPHA * j) for k in range(-2, 3) for j in range(-2, 3)]
    ok, worst = match_multisets(report.eigenvalues, reference, 1e-6)
    elapsed = time.time() - start
    passed = ok and elapsed < 10.0
    return _result(
        1,
        "rotation generator spectrum",
        passed,
        f"25 closed-form eigenvalues matched to {worst:.2e} (tol 1e-6), {elapsed:.1f}s",
    )


def check_eigenoperator_formula():
    """Frequency ladder of the compressed eigenoperator at fixed y."""
    system = make_rotation(ALPHA, BETA)
    basis = _product_basis(4, 4)
    grid = default_grid(basis)
    fib = basis.fiber_subbasis()
    worst = 0.0
    for j in (1, 2):
        for y in (0.0, np.pi / 2.0, np.pi):
            sub = _mode_frame_subspace(fib, (j,), y)
            matrix = continuous_eigenoperator(system, sub, y, 0.0, basis, grid)
            spec = eig_matrix(matrix, source=CONTINUOUS_N).eigenvalues
            ref = [1j * (k + j * ALPHA * (1.0 + BETA * np.cos(y))) for k in range(-4, 5)]
            ok, w = match_multisets(spec, ref, 1e-8)
            if not ok:
                return _result(2, "eigenoperator frequency ladder", False, f"mismatch at j={j}, y={y:.3f}")
            worst = max(worst, w)
    return _result(
        2,
        "eigenoperator frequency ladder",
        worst <= 1e-8,
        f"max eigenvalue error {worst:.2e} (tol 1e-8) over j in {{1,2}}, y in {{0, pi/2, pi}}",
    )


def check_cocycle_closed_form():
    """Numerically flowed cocycle phase against the analytic phase."""
    exact = make_rotation(ALPHA, BETA)
    numeric = replace(exact, closed_form_fiber_flow=None)
    fib = TruncatedBasis((4,), ("fiber",))
    grid = default_grid(fib)
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(20):
        y = rng.uniform(0.0, TWO_PI)
        s = rng.uniform(0.1, 1.5)
        j = int(rng.integers(1, 4))
        u = np.zeros(fib.size, dtype=complex)
        u[fib.index_of((j,))] = 1.0
        field = continuous_w(numeric, y, s, fib, grid, steps_per_unit_time=200)(u)
        _, phase = rotation_oracle(ALPHA, BETA, 0, j, y, s)
        expected = np.exp(1j * j * grid.nodes[:, 0]) * phase
        worst = max(worst, float(np.max(np.abs(field.values.ravel() - expected))))
    return _result(
        3,
        "cocycle phase closed form",
        worst <= 1e-8,
        f"max grid error {worst:.2e} (tol 1e-8) over 20 random (y, s, j) at 200 steps/unit",
    )


def _rotation_eigenfield_coeffs(basis: TruncatedBasis, k: int, j: int) -> np.ndarray:
    """Coefficients of the exact eigenfield e^{i(ky + jz - j a b sin y)}."""
    pts = 64
    ygrid = np.linspace(0.0, TWO_PI, pts, endpoint=False)
    f = np.exp(1j * (k * ygrid - j * ALPHA * BETA * np.sin(ygrid)))
    spec = np.fft.fft(f) / pts
    kb = basis.cutoffs[0]
    fib = basis.fiber_subbasis()
    coeffs = np.zeros((2 * kb + 1, fib.size), dtype=complex)
    for m in range(-kb, kb + 1):
        coeffs[m + kb, fib.index_of((j,))] = spec[m % pts]
    return coeffs.ravel()


def check_rank_one_spectrum():
    """Pointwise spectral value of an exact eigenfield: imaginary and exact."""
    system = make_rotation(ALPHA, BETA)
    basis = _product_basis(12, 4)
    fib = basis.fiber_subbasis()
    fgrid = default_grid(fib)
    ys = np.linspace(0.0, TWO_PI, 64, endpoint=False)
    worst_re = 0.0
    worst_val = 0.0
    worst_norm = 0.0
    for k, j in ((0, 1), (1, 2)):
        coeffs = _rotation_eigenfield_coeffs(basis, k, j)
        worst_norm = max(worst_norm, norm_constancy(coeffs, basis, ys))
        for y in ys:
            lam = rank_one_spectrum(system, coeffs, basis, float(y), fgrid)
            ref = 1j * j * ALPHA * (1.0 + BETA * np.cos(y))
            worst_re = max(worst_re, abs(lam.real))
            worst_val = max(worst_val, abs(lam - ref))
    passed = worst_re <= 1e-8 and worst_val <= 1e-8 and worst_norm <= 0.02
    return _result(
        4,
        "rank-one spectrum formula",
        passed,
        f"max |Re| {worst_re:.2e}, max closed-form error {worst_val:.2e} (tol 1e-8), "
        f"norm drift {worst_norm:.2e} over 64 y-samples",
    )


def check_shift_invariance():
    """Aggregated compressed spectra are independent of the flow shift."""
    system = make_rotation(ALPHA, BETA)
    basis = _product_basis(4, 4)
    grid = default_grid(basis)
    fib = basis.fiber_subbasis()

    def factory(ystar):
        return _mode_frame_subspace(fib, (1,), ystar)

    distances = shift_invariance_check(system, factory, (0.1, 0.5, 1.0), basis, grid, y_count=64)
    worst = max(distances.values())
    return _result(
        5,
        "shift invariance of aggregated spectra",
        worst <= 1e-6,
        f"max Hausdorff distance {worst:.2e} (tol 1e-6) for s in {{0.1, 0.5, 1.0}}, 64 y-samples",
    )


def _periodic_cases():
    """The two discrete systems, each with its setup at a fixed base point."""
    fib = TruncatedBasis((4,), ("fiber",))
    torus, cyclic = make_torus_translation(4), make_cyclic_group(6, 3)
    return (torus, periodic_setup(torus, 0.3, fib, default_grid(fib))), (cyclic, periodic_setup(cyclic, 0.9))


def check_periodic_oseledets():
    """Equivariance and completeness of the periodic-base construction."""
    worst_eq = 0.0
    worst_sum = 0.0
    for map_, setup in _periodic_cases():
        n = map_.base_period
        for family in setup.families:
            for m in range(n):
                res = equivariance_residual(family[(m + 1) % n], family[m], setup.transfers[m])
                worst_eq = max(worst_eq, res)
        for m in range(n):
            worst_sum = max(worst_sum, completeness_defect([f[m] for f in setup.families]))
    passed = worst_eq <= 1e-10 and worst_sum <= 1e-10
    return _result(
        6,
        "periodic subspace equivariance",
        passed,
        f"max equivariance residual {worst_eq:.2e}, max completeness defect {worst_sum:.2e} (tol 1e-10)",
    )


def check_decomposition_identity():
    """Projected cocycle times multiplier advances the step index."""
    worst = 0.0
    for map_, setup in _periodic_cases():
        n = map_.base_period
        for family in setup.families:
            for i in range(-2, 3):
                w_i = discrete_w(setup.transfers, i)
                w_next = discrete_w(setup.transfers, i + 1)
                hatw_i = w_i @ family[i % n].projection
                hatw_next = w_next @ family[(i + 1) % n].projection
                mult = discrete_multiplier(setup.transfers, family, i)
                worst = max(worst, float(np.max(np.abs(hatw_i @ mult - hatw_next))))
    return _result(
        7,
        "discrete decomposition identity",
        worst <= 1e-8,
        f"max entry error {worst:.2e} (tol 1e-8) over i in -2..2, all bins, both discrete systems",
    )


def check_koopman_correspondence():
    """Product-space composition operator versus the per-fiber route."""
    map_ = make_torus_translation(4)
    basis = _product_basis(4, 4)
    report = koopman_correspondence_check(map_, basis, default_grid(basis))
    worst = report["max_discrepancy"]
    return _result(
        8,
        "composition operator correspondence",
        worst <= 1e-10,
        f"max discrepancy {worst:.2e} (tol 1e-10) over rank-one test functions",
    )


def check_peter_weyl():
    """Block-diagonalization of the S3 translation operator."""
    group = s3_table()
    transposition = (1, 0, 2)
    result = peter_weyl_blockdiag(group, transposition)
    expected = {"trivial": [1.0], "sign": [-1.0], "standard": [-1.0, 1.0]}
    spectra_ok = True
    for (name, _), block in result["blocks"].items():
        vals = np.sort_complex(np.linalg.eigvals(block))
        ref = np.asarray(expected[name], dtype=complex)
        spectra_ok &= len(vals) == len(ref) and bool(np.max(np.abs(vals - ref)) < 1e-12)
    worst = max(result["block_residual"], result["unitarity_residual"])
    passed = worst <= 1e-12 and bool(spectra_ok)
    return _result(
        9,
        "finite-group block diagonalization",
        passed,
        f"block/unitarity residual {worst:.2e} (tol 1e-12); transposition block spectra verified",
    )


def check_smoothing_limit():
    """Damped coefficients converge monotonically to the originals."""
    basis = TruncatedBasis((1,), ("fiber",))
    taus = np.logspace(-1, -6, 26)
    rng = np.random.default_rng(0)
    worst_final = 0.0
    monotone = True
    for _ in range(10):
        c = rng.standard_normal(basis.size) + 1j * rng.standard_normal(basis.size)
        c /= np.linalg.norm(c)
        gaps = []
        for tau in taus:
            w = SmoothingWeights(basis, float(tau), 0.1).values
            gaps.append(float(np.linalg.norm(w * c - c)))
        monotone &= all(a >= b for a, b in zip(gaps[:-1], gaps[1:]))
        worst_final = max(worst_final, gaps[-1])
    passed = monotone and worst_final < 1e-6
    return _result(
        10,
        "smoothing weight limit",
        passed,
        f"monotone={monotone}, final gap {worst_final:.2e} (< 1e-6) at tau=1e-6, 10 random vectors",
    )


def _compare_trees(a: Path, b: Path) -> bool:
    files_a = sorted(p.relative_to(a) for p in a.rglob("*") if p.is_file())
    files_b = sorted(p.relative_to(b) for p in b.rglob("*") if p.is_file())
    if files_a != files_b:
        return False
    return all(filecmp.cmp(a / f, b / f, shallow=False) for f in files_a)


def check_figure_pipelines():
    """End-to-end field pipelines: bounded runtime, byte-identical reruns."""
    from . import cli

    details = []
    passed = True
    for name in ("gaussian_vortex", "stratospheric"):
        config = cli.bundled_config(name)
        start = time.time()
        with tempfile.TemporaryDirectory() as tmp:
            out_a = Path(tmp) / "a"
            out_b = Path(tmp) / "b"
            cli.run_pipeline(config, out_a, stages=cli.ALL_STAGES)
            elapsed = time.time() - start
            cli.run_pipeline(config, out_b, stages=cli.ALL_STAGES)
            identical = _compare_trees(out_a, out_b)
        ok = elapsed < 300.0 and identical
        passed &= ok
        details.append(f"{name}: {elapsed:.0f}s, rerun identical={identical}")
    return _result(11, "figure pipelines", passed, "; ".join(details))


def check_skew_adjointness():
    """Interior-band skew-adjointness of the bundled continuous configs' generators."""
    from . import cli

    residuals = {}
    for name in ("rotation", "gaussian_vortex", "stratospheric"):
        ctx = cli.PipelineContext(cli.bundled_config(name), Path("unused"))
        residuals[name] = skew_symmetry_residual(assemble_generator(ctx.system, ctx.basis, ctx.grid))
    passed = all(res <= 1e-12 for res in residuals.values())
    detail = ", ".join(f"{name} {res:.2e}" for name, res in residuals.items())
    return _result(12, "skew-adjointness", passed, f"{detail} (tol 1e-12) on interior band")


ALL_CHECKS = (
    check_rotation_generator_spectrum,
    check_eigenoperator_formula,
    check_cocycle_closed_form,
    check_rank_one_spectrum,
    check_shift_invariance,
    check_periodic_oseledets,
    check_decomposition_identity,
    check_koopman_correspondence,
    check_peter_weyl,
    check_smoothing_limit,
    check_figure_pipelines,
    check_skew_adjointness,
)


def run_all(printer=print) -> dict:
    results = []
    for fn in ALL_CHECKS:
        start = time.perf_counter()
        res = fn()
        res["seconds"] = time.perf_counter() - start
        results.append(res)
        tag = "PASS" if res["passed"] else "FAIL"
        printer(f"{tag} criterion {res['id']}: {res['name']}: {res['detail']} [{res['seconds']:.2f}s]")
    return {"results": results, "all_passed": all(r["passed"] for r in results)}
