"""Operator-valued eigenvalue data attached to fiber subspace families.

Discrete side: at base point y and step offset i, the multiplier is the
fiber transfer matrix at h^i(y) composed with the subspace projection
there; its frame compression carries the spectrum. The aggregate over
y-samples builds one periodic setup per sample and serves every bin
from it. Continuous side: base advection plus the fiber generator at the
advanced base point h_s(y), in the tensor form
kron(G_b, I) + kron(I, F* G_f F) on subspace sections; for the closed-form
benchmark this reproduces the analytic frequency ladder exactly. A
rank-one closed form, which restricts the eigenvector field with
oseledets.restrict_coefficients, and a flow-shift invariance check round
out the module. Both compressions are returned as plain arrays; callers
solve the continuous one with spectra.eig_matrix under the source tag
CONTINUOUS_N, and CONTINUOUS_N or DISCRETE_M is the kind that
eigenoperator_spectrum.json records.
"""

from __future__ import annotations

import numpy as np

from .basis import Grid, TruncatedBasis, synthesize
from .generator import advection_matrix
from .oseledets import FiberSubspace, restrict_coefficients
from .spectra import eig_matrix, hausdorff_distance
from .systems import ContinuousSkewSystem, DiscreteSkewMap

DISCRETE_M = "discrete_M"
CONTINUOUS_N = "continuous_N"


class MissingSubspaceError(KeyError):
    """Subspace not available at the required base point."""


class DegenerateEigenvectorError(ValueError):
    """Restricted eigenvector has vanishing fiber norm."""


def continuous_eigenoperator(
    system: ContinuousSkewSystem,
    subspace: FiberSubspace,
    y: float,
    s: float,
    basis: TruncatedBasis,
    grid: Grid,
) -> np.ndarray:
    """Eigenoperator at h_s(y), compressed to subspace sections.

    The subspace must live at the advanced base point h_s(y). Sections
    are base modes tensored with the subspace frame columns F, so the
    compression is kron(G_b, I) + kron(I, F* G_f F): G_b advects along
    the base, and G_f is the fiber advection at h_s(y).
    """
    ystar = system.advanced_base_point(s, y)
    ysub = float(np.mod(subspace.y, 2 * np.pi))
    gap = min(abs(ysub - ystar), 2 * np.pi - abs(ysub - ystar))
    if gap > 1e-8:
        raise MissingSubspaceError(
            f"subspace at y={subspace.y:.6f} but operator needs h_s(y)={ystar:.6f}"
        )
    if subspace.dim == 0:
        raise MissingSubspaceError("subspace has no directions to compress onto")

    basis.check_base_then_fibers()
    base, base_grid = TruncatedBasis(basis.cutoffs[:1], basis.roles[:1]), Grid(grid.points[:1])
    fib, fib_grid = basis.fiber_subbasis(), Grid(grid.points[1:])
    G_b = advection_matrix(base, base_grid, system.base_velocity(base_grid.nodes))
    G_f = advection_matrix(fib, fib_grid, system.fiber_velocity(ystar, fib_grid.nodes))
    F = subspace.frame
    return np.kron(G_b, np.eye(subspace.dim)) + np.kron(np.eye(base.size), F.conj().T @ G_f @ F)


def rank_one_spectrum(
    system: ContinuousSkewSystem,
    v_coeffs: np.ndarray,
    basis: TruncatedBasis,
    y: float,
    fiber_grid: Grid,
) -> complex:
    """Single spectral value of a one-dimensional invariant fiber direction.

    Restricts the eigenvector field at y, renormalizes it on the fiber,
    and integrates the fiber-derivative of the field against the fiber
    velocity and the conjugate field. The result is purely imaginary for
    measure-preserving fiber dynamics.
    """
    fib = basis.fiber_subbasis()
    c = restrict_coefficients(v_coeffs, basis, y)
    nrm = float(np.linalg.norm(c))
    if nrm < 1e-8:
        raise DegenerateEigenvectorError(f"fiber norm {nrm:.3e} below 1e-8 at y={y:.6f}")
    c = c / nrm

    nodes = fiber_grid.nodes
    vals = synthesize(c, fib, fiber_grid).values.ravel()
    vel = np.atleast_2d(system.fiber_velocity(float(y), nodes))
    total = np.zeros(fiber_grid.size, dtype=complex)
    for d in range(system.fiber_dim):
        dv = synthesize(c * (1j * fib.modes[:, d].astype(float)), fib, fiber_grid).values.ravel()
        total += dv * vel[:, d]
    return complex(np.sum(total * np.conj(vals)) * fiber_grid.weight)


def norm_constancy(v_coeffs: np.ndarray, basis: TruncatedBasis, y_samples: np.ndarray) -> float:
    """Max relative deviation of the restricted fiber norm across y."""
    norms = np.array(
        [np.linalg.norm(restrict_coefficients(v_coeffs, basis, y)) for y in y_samples]
    )
    mean = norms.mean()
    if mean == 0.0:
        return np.inf
    return float(np.max(np.abs(norms - mean)) / mean)


def aggregated_continuous_spectrum(
    system: ContinuousSkewSystem,
    subspace_factory,
    y_points: np.ndarray,
    s: float,
    basis: TruncatedBasis,
    grid: Grid,
) -> np.ndarray:
    """Union over sampled y of the compressed-operator eigenvalues at shift s.

    subspace_factory(ystar) must return the subspace at the advanced
    base point h_s(y).
    """
    out = []
    for y in np.asarray(y_points, dtype=float):
        matrix = continuous_eigenoperator(system, subspace_factory(system.advanced_base_point(s, y)), y, s, basis, grid)
        out.append(eig_matrix(matrix, source=CONTINUOUS_N).eigenvalues)
    return np.concatenate(out)


def shift_invariance_check(
    system: ContinuousSkewSystem,
    subspace_factory,
    s_values,
    basis: TruncatedBasis,
    grid: Grid,
    y_count: int = 64,
) -> dict:
    """Hausdorff distance between y-aggregated spectra at shift s and at 0.

    A positive-measure union over base points is surrogate-sampled on an
    equispaced y-grid. The shifted aggregation evaluates at the
    backward-flowed grid, so both unions sample the same base set and
    the distances isolate genuine spectral drift.
    """
    ygrid = np.linspace(0.0, 2 * np.pi, y_count, endpoint=False)
    ref = aggregated_continuous_spectrum(system, subspace_factory, ygrid, 0.0, basis, grid)
    distances = {}
    for s in s_values:
        pts = system.base_flow(-float(s), ygrid)
        spec = aggregated_continuous_spectrum(system, subspace_factory, pts, float(s), basis, grid)
        distances[float(s)] = hausdorff_distance(spec, ref)
    return distances


def discrete_multiplier(
    map_: DiscreteSkewMap,
    family: list[FiberSubspace],
    transfer_fn,
    y: float,
    i: int,
) -> np.ndarray:
    """Full fiber-space multiplier matrix U_{g(h^i(y))} p(h^i(y)).

    family[m] must be the subspace at h^m(y) (period-length list);
    transfer_fn(base_point) returns the fiber transfer matrix there.
    """
    n = map_.base_period
    if n is None or len(family) != n:
        raise MissingSubspaceError("need one subspace per orbit point")
    U = np.asarray(transfer_fn(map_.base_iterate(y, i)), dtype=complex)
    return U @ family[i % n].projection


def _tolerance_union(points: list[np.ndarray], tol: float) -> list[dict]:
    """Cluster eigenvalues across samples; deterministic ordering."""
    clusters: list[list[complex]] = []
    for arr in points:
        for lam in sorted(arr, key=lambda z: (z.real, z.imag)):
            for c in clusters:
                if abs(lam - c[0]) <= tol:
                    c.append(lam)
                    break
            else:
                clusters.append([lam])
    clusters.sort(key=lambda c: (c[0].real, c[0].imag))
    return [
        {"value": complex(np.mean(c)), "support": len(c), "spread": float(max(abs(x - np.mean(c)) for x in c))}
        for c in clusters
    ]


def discrete_eigenoperator_spectrum(
    map_: DiscreteSkewMap,
    y_samples,
    i: int,
    setup_fn,
    bin_count: int,
) -> list[dict]:
    """Per-bin aggregated spectra of the frame-compressed multipliers over y samples.

    setup_fn(y) returns the PeriodicSetup at base point y. Each sample
    builds one setup, whose transfers[i mod n] is the transfer at h^i(y),
    then updates every bin's aggregate; bin b takes the setup's family
    min(b, count - 1). The compression maps the subspace at h^{i+1}(y)
    into the one at h^i(y). A bin whose subspace dimension drifts across
    samples gets an {"i", "error"} entry and stops aggregating; sampling
    ends once every bin has one.
    """
    n = map_.base_period
    if n is None:
        raise ValueError("aggregation requires a periodic base")
    per_sample: list[list[np.ndarray]] = [[] for _ in range(bin_count)]
    dims: list = [None] * bin_count
    errors: dict[int, str] = {}
    for y in np.asarray(y_samples, dtype=float):
        if len(errors) == bin_count:
            break
        setup = setup_fn(float(y))
        U = np.asarray(setup.transfers[i % n], dtype=complex)
        fams = setup.families
        for b in range(bin_count):
            if b in errors:
                continue
            family = fams[min(b, len(fams) - 1)]
            sub_w = family[i % n]
            sub_hw = family[(i + 1) % n]
            if dims[b] is None:
                dims[b] = sub_w.dim
            if sub_w.dim != dims[b] or sub_hw.dim != dims[b]:
                errors[b] = f"subspace dimension varies across samples ({sub_w.dim} vs {dims[b]})"
                continue
            C = sub_w.frame.conj().T @ U @ sub_hw.frame
            per_sample[b].append(np.linalg.eigvals(C))
    return [
        {"i": int(i), "error": errors[b]}
        if b in errors
        else {
            "i": int(i),
            "dimension": int(dims[b] or 0),
            "y_samples": [float(y) for y in y_samples],
            "eigenvalues": _tolerance_union(per_sample[b], 1e-8),
        }
        for b in range(bin_count)
    ]
