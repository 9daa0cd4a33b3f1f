"""Operator-valued eigenvalue data attached to fiber subspace families.

Discrete side: at base point y and step offset i, the multiplier is the
fiber transfer matrix at h^i(y) composed with the subspace projection
there; its frame compression carries the spectrum. The aggregate over
y-samples builds one periodic setup per sample and serves every bin
from it. Continuous side: the advection operator with the fiber velocity
frozen at the advanced base point h_s(y), compressed to sections of the
subspace over the base modes; for the closed-form benchmark this
reproduces the analytic frequency ladder exactly. A rank-one closed
form, which restricts the eigenvector field with
oseledets.restrict_coefficients, and a flow-shift invariance check round
out the module.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .basis import Grid, TruncatedBasis, synthesize
from .generator import assemble_generator
from .oseledets import FiberSubspace, restrict_coefficients
from .spectra import SpectrumReport, eig_matrix, hausdorff_distance
from .systems import ContinuousSkewSystem, DiscreteSkewMap

DISCRETE_M = "discrete_M"
CONTINUOUS_N = "continuous_N"


class MissingSubspaceError(KeyError):
    """Subspace not available at the required base point."""


class DegenerateEigenvectorError(ValueError):
    """Restricted eigenvector has vanishing fiber norm."""


@dataclass(frozen=True)
class EigenoperatorSample:
    """Compressed eigenoperator matrix at one base point."""

    base_point: float
    matrix: np.ndarray
    kind: str
    indices: dict
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError("eigenoperator compression must be square")
        m = m.copy()
        m.setflags(write=False)
        object.__setattr__(self, "matrix", m)
        if self.kind not in (DISCRETE_M, CONTINUOUS_N):
            raise ValueError(f"unknown kind '{self.kind}'")

    def spectrum(self, tol: float = 1e-8) -> SpectrumReport:
        return eig_matrix(self.matrix, tol=tol, source=self.kind, meta=dict(self.indices))


def frozen_fiber_system(system: ContinuousSkewSystem, ystar: float) -> ContinuousSkewSystem:
    """Copy of the system with the fiber velocity pinned to base point ystar."""
    return ContinuousSkewSystem(
        name=f"{system.name}@frozen",
        fiber_dim=system.fiber_dim,
        base_velocity=system.base_velocity,
        fiber_velocity=lambda y, z: system.fiber_velocity(ystar, z),
        closed_form_base_flow=system.closed_form_base_flow,
        parameters=dict(system.parameters),
    )


def continuous_eigenoperator(
    system: ContinuousSkewSystem,
    subspace: FiberSubspace,
    y: float,
    s: float,
    basis: TruncatedBasis,
    grid: Grid,
) -> EigenoperatorSample:
    """Advection operator frozen at h_s(y), compressed to subspace sections.

    The subspace must live at the advanced base point h_s(y). Sections
    are base modes tensored with the subspace frame columns; the
    compression acts on those section coefficients.
    """
    ystar = float(np.mod(system.base_flow(s, np.asarray(float(y))), 2 * np.pi))
    ysub = float(np.mod(subspace.y, 2 * np.pi))
    gap = min(abs(ysub - ystar), 2 * np.pi - abs(ysub - ystar))
    if gap > 1e-8:
        raise MissingSubspaceError(
            f"subspace at y={subspace.y:.6f} but operator needs h_s(y)={ystar:.6f}"
        )
    if subspace.dim == 0:
        raise MissingSubspaceError("subspace has no directions to compress onto")

    G = assemble_generator(frozen_fiber_system(system, ystar), basis, grid)
    nbase = 2 * basis.cutoffs[0] + 1
    section = np.kron(np.eye(nbase), subspace.frame)
    matrix = section.conj().T @ G.entries @ section
    return EigenoperatorSample(
        base_point=float(y),
        matrix=matrix,
        kind=CONTINUOUS_N,
        indices={"s": float(s), "subspace_rank": subspace.dim},
        meta={"ystar": ystar, "basis": basis.describe()},
    )


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
        ystar = float(np.mod(system.base_flow(s, np.asarray(y)), 2 * np.pi))
        sample = continuous_eigenoperator(system, subspace_factory(ystar), y, s, basis, grid)
        out.append(sample.spectrum().eigenvalues)
    return np.concatenate(out)


def shift_invariance_check(
    system: ContinuousSkewSystem,
    subspace_factory,
    s_values,
    basis: TruncatedBasis,
    grid: Grid,
    y_count: int = 64,
    pullback: bool = True,
) -> dict:
    """Hausdorff distance between y-aggregated spectra at shift s and at 0.

    A positive-measure union over base points is surrogate-sampled on an
    equispaced y-grid. With pullback enabled the shifted aggregation
    evaluates at the backward-flowed grid, so both unions sample the
    same base set and the distances isolate genuine spectral drift.
    """
    ygrid = np.linspace(0.0, 2 * np.pi, y_count, endpoint=False)
    ref = aggregated_continuous_spectrum(system, subspace_factory, ygrid, 0.0, basis, grid)
    distances = {}
    for s in s_values:
        pts = system.base_flow(-float(s), ygrid) if pullback else ygrid
        spec = aggregated_continuous_spectrum(system, subspace_factory, pts, float(s), basis, grid)
        distances[float(s)] = hausdorff_distance(spec, ref)
    return distances


def discrete_multiplier(
    map_: DiscreteSkewMap,
    family: list[FiberSubspace],
    transfer_fn,
    y: float,
    i: int,
) -> EigenoperatorSample:
    """Full fiber-space multiplier matrix U_{g(h^i(y))} p(h^i(y)).

    family[m] must be the subspace at h^m(y) (period-length list);
    transfer_fn(base_point) returns the fiber transfer matrix there.
    """
    n = map_.base_period
    if n is None or len(family) != n:
        raise MissingSubspaceError("need one subspace per orbit point")
    w = map_.base_iterate(y, i)
    sub = family[i % n]
    U = np.asarray(transfer_fn(w), dtype=complex)
    return EigenoperatorSample(
        base_point=float(y),
        matrix=U @ sub.projection,
        kind=DISCRETE_M,
        indices={"i": int(i)},
        meta={"orbit_point": w},
    )


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
    tol: float = 1e-8,
) -> list[dict]:
    """Per-bin aggregated spectra of the frame-compressed multipliers over y samples.

    setup_fn(y) returns the PeriodicSetup at base point y. Each sample
    builds one setup and one transfer at h^i(y), then updates every
    bin's aggregate; bin b takes the setup's family min(b, count - 1).
    The compression maps the subspace at h^{i+1}(y) into the one at
    h^i(y). A bin whose subspace dimension drifts across samples gets an
    {"i", "error"} entry and stops aggregating; sampling ends once every
    bin has one.
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
        U = np.asarray(setup.transfer(map_.base_iterate(float(y), i)), dtype=complex)
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
            "eigenvalues": _tolerance_union(per_sample[b], tol),
        }
        for b in range(bin_count)
    ]
