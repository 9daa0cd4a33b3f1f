"""Base-point-indexed fiber subspaces and their projections.

Two constructions are provided. For continuous systems, eigenvectors of
the (smoothed) generator over the product basis are restricted at a base
point, which contracts the base frequencies against e^{iky} and leaves a
frame in fiber-coefficient space; restrict_coefficients is the one place
that contraction is done. For discrete maps with a periodic base, the
block-cyclic operator built from the per-step fiber transfer matrices is
diagonalized and its eigenvectors are grouped by eigenvalue phase into
spectral bins; the block components of each group give an equivariant
subspace family along the whole base orbit. periodic_setup
is the one place that builds this decomposition at a base point: orbit,
transfers, isolating bins and families, which depend on that point only.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .basis import Grid, TruncatedBasis
from .generator import assemble_fiber_koopman, cyclic_fiber_koopman
from .systems import DiscreteSkewMap

TWO_PI = 2.0 * np.pi

RESTRICTED_EIGVECS = "restricted_eigvecs"
SPECTRAL_BIN = "spectral_bin"

RANK_THRESHOLD = 1e-8
BOUNDARY_TOL = 1e-10


class BinBoundaryWarning(UserWarning):
    """Eigen-phase within tolerance of a spectral bin boundary."""


def _phase(values):
    """Eigenvalue phases in [0, 2pi).

    np.mod maps angles in about (-4e-16, 0) to exactly 2pi, a phase that
    no half-open bin contains; those fold to 0.
    """
    phases = np.mod(np.angle(values), TWO_PI)
    return np.where(phases == TWO_PI, 0.0, phases)


@dataclass(frozen=True)
class SpectralBin:
    """Union of half-open arcs [lo, hi) of phases in [0, 2pi)."""

    arcs: tuple

    def __post_init__(self):
        arcs = tuple((float(a), float(b)) for a, b in self.arcs)
        if not arcs:
            raise ValueError("bin needs at least one arc")
        for a, b in arcs:
            if not (0.0 <= a < b <= TWO_PI):
                raise ValueError("each arc must satisfy 0 <= lo < hi <= 2pi")
        object.__setattr__(self, "arcs", arcs)

    def contains(self, phase):
        """Membership of one phase, or elementwise for an array of phases."""
        p = np.asarray(phase, dtype=float)[..., None]
        lo, hi = np.array(self.arcs).T
        return np.any((lo <= p) & (p < hi), axis=-1)

    def boundary_distance(self, phase):
        """Circular distance to the nearest edge, elementwise for arrays.

        The 0/2pi seam is an edge only when the bin owns one side of it;
        a bin holding arcs on both sides is continuous across it.
        """
        edges = [e for arc in self.arcs for e in arc]
        if 0.0 in edges and TWO_PI in edges:
            edges = [e for e in edges if e not in (0.0, TWO_PI)]
        d = np.abs(np.asarray(phase, dtype=float)[..., None] - np.array(edges))
        return np.minimum(d, TWO_PI - d).min(axis=-1, initial=np.inf)

    @property
    def width(self) -> float:
        return float(sum(b - a for a, b in self.arcs))

    def describe(self) -> list:
        return [[a, b] for a, b in self.arcs]


def arc_bin(lo: float, hi: float) -> SpectralBin:
    return SpectralBin(((lo, hi),))


def check_bin_family(bins: list[SpectralBin]):
    """Disjointness of all arcs and full coverage of [0, 2pi)."""
    arcs = sorted((a, b) for bin_ in bins for a, b in bin_.arcs)
    if abs(arcs[0][0]) > 1e-12 or abs(arcs[-1][1] - TWO_PI) > 1e-12:
        raise ValueError("bin family must cover [0, 2pi)")
    for (a0, b0), (a1, b1) in zip(arcs[:-1], arcs[1:]):
        if abs(b0 - a1) > 1e-12:
            raise ValueError("bin family must be disjoint and gap-free")


def isolating_bins(eigenvalues: np.ndarray, n: int, cluster_tol: float = 1e-6) -> list[SpectralBin]:
    """Bin family separating the invariant mode groups of a period-n cocycle.

    Eigenvalues of the block-cyclic operator come in n-th-root ladders:
    raising to the n-th power collapses each ladder to one point, and
    ladders whose n-th powers coincide cannot be separated by any phase
    window. Phases are therefore grouped by clustered n-th power, the
    circle is cut midway between neighboring phases of different groups,
    and each bin is the union of its group's arcs. The family is
    disjoint, covers [0, 2pi), and every root of a group falls in that
    group's bin, so summed bin projections resolve the identity.
    """
    lam = np.asarray(eigenvalues, dtype=complex)
    lam = lam[np.abs(lam) > 0.5]
    powers = lam**n
    labels = -np.ones(len(lam), dtype=int)
    reps: list[complex] = []
    for idx in np.lexsort((lam.imag, lam.real)):
        for gi, rep in enumerate(reps):
            if abs(powers[idx] - rep) <= cluster_tol:
                labels[idx] = gi
                break
        else:
            labels[idx] = len(reps)
            reps.append(powers[idx])
    if len(reps) == 1:
        return [arc_bin(0.0, TWO_PI)]

    phases = _phase(lam)
    order = np.argsort(phases, kind="stable")
    ph = phases[order]
    gr = labels[order]
    m = len(ph)
    # Cut between circular neighbors of different groups; a run of equal
    # groups stays inside one arc. Each cut is tagged with the group that
    # owns the arc starting there.
    cuts = []
    for k in range(m):
        nxt = (k + 1) % m
        if gr[k] != gr[nxt]:
            if nxt == 0:
                mid = np.mod((ph[k] + ph[nxt] + TWO_PI) / 2.0, TWO_PI)
            else:
                mid = (ph[k] + ph[nxt]) / 2.0
            cuts.append((float(mid), int(gr[nxt])))
    cuts.sort()
    group_arcs: dict[int, list] = {}
    for k, (start, owner) in enumerate(cuts):
        end = cuts[(k + 1) % len(cuts)][0]
        arcs = group_arcs.setdefault(owner, [])
        if end > start:
            arcs.append((start, end))
        else:
            if start < TWO_PI:
                arcs.append((start, TWO_PI))
            if end > 0.0:
                arcs.append((0.0, end))
    return [SpectralBin(tuple(sorted(arcs))) for _, arcs in sorted(group_arcs.items())]


@dataclass(frozen=True)
class FiberSubspace:
    """Orthonormal frame in fiber-coefficient space at one base point."""

    y: float
    frame: np.ndarray  # (fiber_dim_coeffs, rank) orthonormal columns
    origin: str
    effective_rank: int
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        frame = np.asarray(self.frame, dtype=complex)
        if frame.ndim != 2:
            raise ValueError("frame must be a 2-d column array")
        frame = frame.copy()
        frame.setflags(write=False)
        object.__setattr__(self, "frame", frame)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    @property
    def projection(self) -> np.ndarray:
        return self.frame @ self.frame.conj().T


def orthonormalize(columns: np.ndarray, threshold: float = RANK_THRESHOLD) -> np.ndarray:
    """Modified Gram-Schmidt with one reorthogonalization pass.

    Columns falling below threshold (relative to the largest incoming
    column norm) are dropped; the result has orthonormal columns.
    """
    cols = np.asarray(columns, dtype=complex)
    if cols.ndim != 2 or cols.shape[1] == 0:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    scale = max(np.linalg.norm(cols, axis=0).max(), 1.0)
    kept = []
    for j in range(cols.shape[1]):
        v = cols[:, j].copy()
        for _ in range(2):
            for q in kept:
                v -= q * (q.conj() @ v)
        nv = np.linalg.norm(v)
        if nv > threshold * scale:
            kept.append(v / nv)
    if not kept:
        return np.zeros((cols.shape[0], 0), dtype=complex)
    return np.stack(kept, axis=1)


def restrict_coefficients(coeffs: np.ndarray, basis: TruncatedBasis, y: float) -> np.ndarray:
    """Fiber coefficients of product-basis coefficients at base point y.

    coeffs is one vector or a column array over the product basis. Each
    column's coefficient tensor c_{k, j} contracts against e^{iky},
    leaving the fiber coefficients sum_k c_{k, j} e^{iky}.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape[0] != basis.size:
        raise ValueError("coefficient length does not match the basis")
    basis.check_base_then_fibers()
    kbase = basis.cutoffs[0]
    # Lexicographic order with the base factor most significant means the
    # coefficient vector reshapes to (base_modes, fiber_modes).
    tensors = coeffs.reshape((2 * kbase + 1, basis.fiber_subbasis().size) + coeffs.shape[1:])
    phases = np.exp(1j * np.arange(-kbase, kbase + 1) * y)
    return np.einsum("k,kf...->f...", phases, tensors)


def restrict_at_base(
    eigvecs: np.ndarray,
    basis: TruncatedBasis,
    y: float,
    d: int,
) -> FiberSubspace:
    """Evaluate product-space eigenvector columns at base point y.

    The first d columns, restricted at y, form the frame after
    orthonormalization.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    frame = orthonormalize(restrict_coefficients(np.asarray(eigvecs, dtype=complex)[:, :d], basis, y))
    if frame.shape[1] < d:
        warnings.warn(
            f"restriction at y={y:.6f} is rank deficient: kept {frame.shape[1]} of {d}",
            stacklevel=2,
        )
    return FiberSubspace(
        y=float(y),
        frame=frame,
        origin=RESTRICTED_EIGVECS,
        effective_rank=frame.shape[1],
        meta={"requested": d},
    )


def cyclic_block_matrix(fiber_koopmans: list[np.ndarray]) -> np.ndarray:
    """Block-cyclic operator of a periodic orbit's fiber transfers.

    Row k carries the transfer at h^{k+1}(y) acting on block k+1 mod n,
    so the wrap-around row applies the transfer at y itself.
    """
    n = len(fiber_koopmans)
    N = fiber_koopmans[0].shape[0]
    big = np.zeros((n * N, n * N), dtype=complex)
    for k in range(n):
        blk = np.asarray(fiber_koopmans[(k + 1) % n], dtype=complex)
        big[k * N : (k + 1) * N, ((k + 1) % n) * N : ((k + 1) % n + 1) * N] = blk
    return big


def periodic_subspaces(
    map_: DiscreteSkewMap,
    y: float,
    fiber_koopmans: list[np.ndarray],
    bins: list[SpectralBin],
) -> list[list[FiberSubspace]]:
    """Equivariant subspace families along a periodic base orbit.

    fiber_koopmans[k] must be the fiber transfer matrix at base point
    h^k(y), k = 0..n-1. Returns one family per bin; family[m] lives at
    h^m(y), so family[0] is the subspace at y itself.

    The block matrix has row k mapping block k+1 (mod n): blocks
    1..n-1 carry the transfer matrices at h(y)..h^{n-1}(y) and the
    wrap-around block carries the one at y, so its eigenvectors stack
    the subspaces along the orbit and grouping by eigen-phase yields
    families with transfer-equivariant members.
    """
    n = map_.base_period
    if n is None or len(fiber_koopmans) != n:
        raise ValueError("need one fiber transfer matrix per orbit point")
    check_bin_family(bins)
    N = fiber_koopmans[0].shape[0]
    big = cyclic_block_matrix(fiber_koopmans)
    values, vectors = np.linalg.eig(big)
    phases = _phase(values)
    live = np.abs(values) > 0.5

    orbit = map_.base_orbit(y)
    families: list[list[FiberSubspace]] = []
    for b in bins:
        if np.any((b.boundary_distance(phases) < BOUNDARY_TOL) & live):
            warnings.warn(
                f"eigen-phase within {BOUNDARY_TOL:g} of a boundary of bin {b.describe()}",
                BinBoundaryWarning,
                stacklevel=2,
            )
        group = vectors[:, b.contains(phases)]
        family = []
        # Block j of an eigenvector stacks the subspace at h^{j+1}(y):
        # row j reads (transfer at h^{j+1}(y)) block_{j+1} = lambda block_j.
        for point_index in range(n):
            j = (point_index - 1) % n
            block = group[j * N : (j + 1) * N, :]
            frame = orthonormalize(block)
            family.append(
                FiberSubspace(
                    y=float(orbit[point_index]),
                    frame=frame,
                    origin=SPECTRAL_BIN,
                    effective_rank=frame.shape[1],
                    meta={"bin": b.describe(), "orbit_index": point_index},
                )
            )
        families.append(family)
    return families


@dataclass(frozen=True)
class PeriodicSetup:
    """Discrete decomposition along the periodic base orbit of one base point.

    transfers[m] is the fiber transfer matrix at orbit[m] = h^m(y);
    transfer(w) gives it at any base point w. families[b][m] is bin b's
    subspace at orbit[m].
    """

    y: float
    orbit: list
    transfers: list
    transfer: Callable[[float], np.ndarray]
    bins: list
    families: list


def periodic_setup(
    map_: DiscreteSkewMap,
    y: float,
    fiber_basis: Optional[TruncatedBasis] = None,
    fiber_grid: Optional[Grid] = None,
) -> PeriodicSetup:
    """Transfers, isolating bins and equivariant families at base point y.

    A torus fiber needs fiber_basis and fiber_grid for its transfer
    matrices; a cyclic fiber uses the delta basis and ignores them.
    """
    if map_.fiber_kind == "torus":
        if fiber_basis is None or fiber_grid is None:
            raise ValueError("a torus fiber needs a fiber basis and grid")
        transfer = lambda w: assemble_fiber_koopman(map_, w, 1, fiber_basis, fiber_grid).entries
    elif map_.fiber_kind == "cyclic":
        transfer = lambda w: cyclic_fiber_koopman(map_, w)
    else:
        raise ValueError(f"no periodic decomposition for fiber kind '{map_.fiber_kind}'")
    orbit = map_.base_orbit(y)
    transfers = [transfer(w) for w in orbit]
    values = np.linalg.eigvals(cyclic_block_matrix(transfers))
    bins = isolating_bins(values, map_.base_period)
    families = periodic_subspaces(map_, y, transfers, bins)
    return PeriodicSetup(float(y), orbit, transfers, transfer, bins, families)


def equivariance_residual(
    V_at_hy: FiberSubspace,
    V_at_y: FiberSubspace,
    U: np.ndarray,
) -> float:
    """Spectral norm of (I - p(y)) U p(h(y)): how far U V(h(y)) leaves V(y)."""
    p_hy = V_at_hy.projection
    p_y = V_at_y.projection
    I = np.eye(p_y.shape[0])
    return float(np.linalg.norm((I - p_y) @ U @ p_hy, ord=2))


def completeness_defect(subs_at_y: list[FiberSubspace]) -> float:
    """Spectral norm of sum of projections minus the identity."""
    if not subs_at_y:
        return np.inf
    total = sum(s.projection for s in subs_at_y)
    return float(np.linalg.norm(total - np.eye(total.shape[0]), ord=2))


def principal_angle_distance(a: FiberSubspace, b: FiberSubspace) -> float:
    """Largest principal-angle sine between two frames of equal rank."""
    if a.dim != b.dim:
        return np.inf
    if a.dim == 0:
        return 0.0
    s = np.linalg.svd(a.frame.conj().T @ b.frame, compute_uv=False)
    s = np.clip(s, 0.0, 1.0)
    return float(np.sqrt(max(0.0, 1.0 - s.min() ** 2)))
