"""Operator-valued eigenvalue data attached to fiber subspace families.

Discrete side: at base point y and step offset i, the multiplier is the
fiber transfer matrix at h^i(y) composed with the subspace projection
there; its frame compression carries the spectrum. Both read the
transfers and families of a periodic setup, and the aggregate over
y-samples reads one setup per sample and serves every bin from it.
Continuous side: base advection plus the fiber generator at the
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
from .systems import ContinuousSkewSystem

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


def discrete_multiplier(transfers: list[np.ndarray], family: list[FiberSubspace], i: int) -> np.ndarray:
    """Full fiber-space multiplier matrix U_{g(h^i(y))} p(h^i(y)).

    transfers[m] and family[m] are the fiber transfer matrix and the
    subspace at h^m(y) along a period-n orbit: a periodic setup's
    transfers and one of its families.
    """
    n = len(transfers)
    if len(family) != n:
        raise MissingSubspaceError("need one subspace per orbit point")
    return transfers[i % n] @ family[i % n].projection


def _tolerance_union(points: list[np.ndarray], tol: float) -> list[dict]:
    """Cluster eigenvalues across samples; deterministic ordering.

    Each cluster is written as {"value": [re, im], "support", "spread"}:
    its mean, its member count and its members' largest distance from
    the mean.
    """
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
    out = []
    for c in clusters:
        mean = complex(np.mean(c))
        out.append({"value": [mean.real, mean.imag], "support": len(c), "spread": float(max(abs(x - mean) for x in c))})
    return out


def discrete_eigenoperator_spectrum(setups, i: int, bin_count: int) -> list[dict]:
    """Per-bin aggregated spectra of the frame-compressed multipliers over y samples.

    setups yields one PeriodicSetup per y-sample and is read lazily, one
    setup at a time. Of each, only transfers[i mod n], the transfer at
    h^i(y), and the frames at h^i(y) and h^{i+1}(y) are read; bin b takes
    the setup's bin min(b, count - 1), and the compression maps its
    subspace at h^{i+1}(y) into the one at h^i(y). Bins of one dimension
    are compressed and solved as one stack. A bin whose dimension drifts
    across samples gets an {"i", "error"} entry and stops aggregating; no
    further setup is read once every bin has one.
    """
    per_sample: list[list[np.ndarray]] = [[] for _ in range(bin_count)]
    dims: list = [None] * bin_count
    errors: dict[int, str] = {}
    y_samples = []
    for setup in setups:
        y_samples.append(setup.y)
        n = len(setup.transfers)
        U, frames = setup.transfers[i % n], setup.frames((i % n, (i + 1) % n))
        groups: dict[int, list] = {}
        for b in range(bin_count):
            if b in errors:
                continue
            F_w, F_hw = frames[min(b, len(frames) - 1)]
            dims[b] = F_w.shape[1] if dims[b] is None else dims[b]
            if F_w.shape[1] != dims[b] or F_hw.shape[1] != dims[b]:
                errors[b] = f"subspace dimension varies across samples ({F_w.shape[1]} vs {dims[b]})"
                continue
            groups.setdefault(dims[b], []).append((b, F_w, F_hw))
        for group in groups.values():
            members, F_w, F_hw = zip(*group)
            C = np.stack(F_w).conj().transpose(0, 2, 1) @ U @ np.stack(F_hw)
            for b, values in zip(members, np.linalg.eigvals(C)):
                per_sample[b].append(values)
        if len(errors) == bin_count:
            break
    return [
        {"i": int(i), "error": errors[b]}
        if b in errors
        else {
            "i": int(i),
            "dimension": int(dims[b] or 0),
            "y_samples": y_samples,
            "eigenvalues": _tolerance_union(per_sample[b], 1e-8),
        }
        for b in range(bin_count)
    ]
