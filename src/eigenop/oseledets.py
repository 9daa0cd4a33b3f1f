"""Base-point-indexed fiber subspaces and their projections.

Two constructions are provided. For continuous systems, eigenvectors of
the (smoothed) generator over the product basis are restricted at a base
point, which contracts the base frequencies against e^{iky} and leaves a
frame in fiber-coefficient space; restrict_coefficients is the one place
that contraction is done. For discrete maps with a periodic base, the
block-cyclic operator built from the per-step fiber transfer matrices is
diagonalized once: its eigen-phases give the isolating bins, and the
block components of each bin's eigenvectors give an equivariant
subspace family along the whole base orbit. periodic_setup
is the one place that builds this decomposition at a base point: orbit,
transfers, the one block eigensolve, isolating bins and families, which
depend on that point only. orthonormalize is the one Gram-Schmidt
routine and works on a stack of column arrays: a restriction passes a
stack of one, and a periodic setup passes every (bin, orbit point)
block at once. Either way a FiberSubspace is a base point and an
orthonormal frame, whose column count is its dim; a periodic family's
members also record their bin in meta.
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

RANK_THRESHOLD = 1e-8
BOUNDARY_TOL = 1e-10
CLUSTER_TOL = 1e-6


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


def isolating_bins(eigenvalues: np.ndarray, n: int) -> list[SpectralBin]:
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
    # Python scalars: the same IEEE arithmetic as numpy's, at a fraction of
    # the per-element cost.
    powers = (lam**n).tolist()
    labels = -np.ones(len(lam), dtype=int)
    reps: list[complex] = []
    for idx in np.lexsort((lam.imag, lam.real)).tolist():
        for gi, rep in enumerate(reps):
            if abs(powers[idx] - rep) <= CLUSTER_TOL:
                labels[idx] = gi
                break
        else:
            labels[idx] = len(reps)
            reps.append(powers[idx])
    if len(reps) == 1:
        return [arc_bin(0.0, TWO_PI)]

    phases = _phase(lam)
    order = np.argsort(phases, kind="stable")
    ph = phases[order].tolist()
    gr = labels[order].tolist()
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
            cuts.append((float(mid), gr[nxt]))
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


def orthonormalize(stack: np.ndarray) -> list[np.ndarray]:
    """Gram-Schmidt with one reorthogonalization pass on each array of a stack.

    stack is (batch, m, k); returns one (m, rank) frame with orthonormal
    columns per array. The loop runs over the k columns only, each
    projected twice against the columns kept so far. A column is dropped
    when its residual falls below RANK_THRESHOLD times the larger of 1
    and its own array's largest incoming column norm, so a zero column
    is dropped and changes nothing: arrays of different widths can be
    padded with zeros.
    """
    cols = np.asarray(stack, dtype=complex)
    if cols.ndim != 3:
        raise ValueError("orthonormalize takes a (batch, m, k) stack")
    batch, _, k = cols.shape
    scale = np.maximum(np.linalg.norm(cols, axis=1).max(axis=1, initial=0.0), 1.0)
    # Kept columns are packed to the left; the columns past an array's
    # rank stay zero and project out nothing.
    q = np.zeros_like(cols)
    rank = np.zeros(batch, dtype=int)
    every = np.arange(batch)
    for j in range(k):
        v = cols[:, :, j : j + 1]
        Q = q[:, :, : rank.max(initial=0)]
        if Q.shape[2]:
            Qh = Q.conj().transpose(0, 2, 1)
            for _ in range(2):
                v = v - Q @ (Qh @ v)
        nv = np.linalg.norm(v[:, :, 0], axis=1)
        keep = nv > RANK_THRESHOLD * scale
        q[every[keep], :, rank[keep]] = v[keep, :, 0] / nv[keep, None]
        rank += keep
    return [frame[:, :r] for frame, r in zip(q, rank.tolist())]


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
    (frame,) = orthonormalize(restrict_coefficients(np.asarray(eigvecs, dtype=complex)[:, :d], basis, y)[None])
    if frame.shape[1] < d:
        warnings.warn(
            f"restriction at y={y:.6f} is rank deficient: kept {frame.shape[1]} of {d}",
            stacklevel=2,
        )
    return FiberSubspace(y=float(y), frame=frame)


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
    values: np.ndarray,
    vectors: np.ndarray,
    bins: list[SpectralBin],
) -> list[list[FiberSubspace]]:
    """Equivariant subspace families along a periodic base orbit.

    values and vectors are the eigendecomposition of the block-cyclic
    operator cyclic_block_matrix(transfers), where transfers[k] is the
    fiber transfer matrix at h^k(y), k = 0..n-1. Returns one family per
    bin; family[m] lives at h^m(y), so family[0] is the subspace at y
    itself.

    The block matrix has row k mapping block k+1 (mod n): blocks
    1..n-1 carry the transfer matrices at h(y)..h^{n-1}(y) and the
    wrap-around block carries the one at y, so its eigenvectors stack
    the subspaces along the orbit and grouping by eigen-phase yields
    families with transfer-equivariant members.
    """
    n = map_.base_period
    if n is None or vectors.shape[0] % n != 0:
        raise ValueError("the decomposition must split into one block per orbit point")
    check_bin_family(bins)
    N = vectors.shape[0] // n
    phases = _phase(values)
    live = np.abs(values) > 0.5

    groups = []
    for b in bins:
        if np.any((b.boundary_distance(phases) < BOUNDARY_TOL) & live):
            warnings.warn(
                f"eigen-phase within {BOUNDARY_TOL:g} of a boundary of bin {b.describe()}",
                BinBoundaryWarning,
                stacklevel=2,
            )
        groups.append(vectors[:, b.contains(phases)])
    # One zero-padded stack of every bin's blocks: stack[b, j] is block j
    # of bin b's eigenvectors, so one orthonormalize call serves them all.
    stack = np.zeros((len(bins), n, N, max(g.shape[1] for g in groups)), dtype=complex)
    for slot, group in zip(stack, groups):
        slot[..., : group.shape[1]] = group.reshape(n, N, group.shape[1])
    # Block j of an eigenvector stacks the subspace at h^{j+1}(y):
    # row j reads (transfer at h^{j+1}(y)) block_{j+1} = lambda block_j.
    # Rolling by one puts the block for orbit point p in slot p.
    frames = orthonormalize(np.roll(stack, 1, axis=1).reshape(len(bins) * n, N, -1))
    orbit = map_.base_orbit(y)
    return [
        [FiberSubspace(float(orbit[p]), frames[bi * n + p], {"bin": b.describe()}) for p in range(n)]
        for bi, b in enumerate(bins)
    ]


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
        transfer = lambda w: assemble_fiber_koopman(map_, w, fiber_basis, fiber_grid)
    elif map_.fiber_kind == "cyclic":
        transfer = lambda w: cyclic_fiber_koopman(map_, w)
    else:
        raise ValueError(f"no periodic decomposition for fiber kind '{map_.fiber_kind}'")
    orbit = map_.base_orbit(y)
    transfers = [transfer(w) for w in orbit]
    values, vectors = np.linalg.eig(cyclic_block_matrix(transfers))
    bins = isolating_bins(values, map_.base_period)
    families = periodic_subspaces(map_, y, values, vectors, bins)
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
