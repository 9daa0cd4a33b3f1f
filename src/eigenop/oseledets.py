"""Base-point-indexed fiber subspaces and their projections.

Two constructions are provided. For continuous systems, eigenvectors of
the (smoothed) generator over the product basis are restricted at a base
point, which contracts the base frequencies against e^{iky} and leaves a
frame in fiber-coefficient space; restrict_coefficients is the one place
that contraction is done. For discrete maps with a periodic base, the
monodromy M = T_0 T_1 ... T_{n-1} of the per-step fiber transfers is
diagonalized once: the n-th roots of its eigenvalues give the isolating
bins, and its eigenvectors, carried backward along the orbit, give an
equivariant subspace family along the whole base orbit. periodic_setup
is the one place that builds this decomposition at a base point: orbit,
transfers, the one monodromy eigensolve, isolating bins and each bin's
carried eigenvectors, which depend on that point only. orthonormalize is
the one Gram-Schmidt routine and works on a stack of column arrays: a
restriction passes a stack of one, and a periodic setup passes, in one
call, the (bin, orbit point) blocks that are read: two orbit points per
y-sample for the aggregate, every one for the families that
stage_oseledets and validation read. A FiberSubspace is a base point
and an orthonormal frame, whose column count is its dim. A PeriodicSetup
is what every discrete consumer reads: the cocycle, the multiplier and
the aggregate over y-samples all take their transfers from it.
"""

from __future__ import annotations

import functools
import warnings
from dataclasses import dataclass
from typing import Optional

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


def _fold(angles):
    """Angles as phases in [0, 2pi): the 2pi that np.mod gives for angles in about (-4e-16, 0) becomes 0."""
    phases = np.mod(angles, TWO_PI)
    return np.where(phases == TWO_PI, 0.0, phases)


def _root_phases(mu, n: int) -> np.ndarray:
    """(len(mu), n) phases of the n-th roots of each mu; column 0 is the principal root's.

    The principal root is |mu|^{1/n} e^{i angle(mu)/n}, angle(mu) in (-pi, pi],
    but an angle within CLUSTER_TOL of -pi counts as past +pi, so rounding
    near the negative axis cannot move it from e^{i pi/n} to e^{-i pi/n}.
    """
    angle = np.angle(mu)
    angle = np.where(angle <= CLUSTER_TOL - np.pi, angle + TWO_PI, angle)
    return _fold((angle[:, None] + TWO_PI * np.arange(n)) / n)


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


def _bin_tests(bins: list[SpectralBin], principal: np.ndarray, phases: np.ndarray):
    """SpectralBin.contains and the boundary test of every bin at once.

    members[b, k] is bins[b].contains(principal[k]), and near[b] whether
    bins[b].boundary_distance of some entry of phases is below BOUNDARY_TOL.
    """
    arcs = np.array([arc for b in bins for arc in b.arcs])
    owner = np.repeat(np.eye(len(bins), dtype=bool), [len(b.arcs) for b in bins], axis=0)  # (arcs, bins)
    members = (((arcs[:, 0] <= principal[:, None]) & (principal[:, None] < arcs[:, 1])) @ owner).T
    # The 0/2pi seam is an edge only of a bin that owns one side of it.
    ends = arcs == [0.0, TWO_PI]
    seam = (ends.T @ owner).all(axis=0)
    d = np.abs(phases.reshape(-1, 1) - arcs.ravel())
    close = (np.minimum(d, TWO_PI - d) < BOUNDARY_TOL).any(axis=0).reshape(-1, 2) & ~(ends & (owner @ seam)[:, None])
    return members, close.any(axis=1) @ owner


def isolating_bins(mu: np.ndarray, n: int) -> list[SpectralBin]:
    """Bin family separating the invariant mode groups of a period-n cocycle.

    mu are the eigenvalues of the monodromy, the transfers taken once
    around the orbit; each stands for the ladder of its n n-th roots, the
    per-step eigenvalues. Ladders whose mu coincide cannot be separated
    by any phase window, so the mu are grouped by CLUSTER_TOL, the circle
    is cut midway between neighboring root phases of different groups,
    and each bin is the union of its group's arcs. The family is
    disjoint, covers [0, 2pi), and every root of a group falls in that
    group's bin, so summed bin projections resolve the identity. Bins are
    listed by their first arc, an order rounding cannot change since a cut
    within BOUNDARY_TOL of the 0/2pi seam goes on it. Roots of modulus at
    most 0.5 cut nothing.
    """
    mu = np.asarray(mu, dtype=complex)
    mu = mu[np.abs(mu) > 0.5**n]
    # Python scalars: the same IEEE arithmetic as numpy's, at a fraction of
    # the per-element cost.
    labels = []
    reps: list[complex] = []
    for value in mu.tolist():
        for gi, rep in enumerate(reps):
            if abs(value - rep) <= CLUSTER_TOL:
                labels.append(gi)
                break
        else:
            labels.append(len(reps))
            reps.append(value)
    if len(reps) == 1:
        return [arc_bin(0.0, TWO_PI)]

    phases = _root_phases(mu, n).ravel()
    order = np.argsort(phases, kind="stable")
    ph = phases[order].tolist()
    gr = np.repeat(labels, n)[order].tolist()
    m = len(ph)
    # Cut between circular neighbors of different groups; a run of equal
    # groups stays inside one arc. Each cut is tagged with the group that
    # owns the arc starting there.
    cuts = []
    for k in range(m):
        nxt = (k + 1) % m
        if gr[k] != gr[nxt]:
            if nxt == 0:
                mid = (ph[k] + ph[nxt] + TWO_PI) / 2.0 - TWO_PI
                mid = 0.0 if abs(mid) < BOUNDARY_TOL else mid % TWO_PI
            else:
                mid = (ph[k] + ph[nxt]) / 2.0
            cuts.append((mid, gr[nxt]))
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
    return sorted((SpectralBin(tuple(sorted(arcs))) for arcs in group_arcs.values()), key=lambda b: b.arcs[0])


@dataclass(frozen=True)
class FiberSubspace:
    """Orthonormal frame in fiber-coefficient space at one base point."""

    y: float
    frame: np.ndarray  # (fiber_dim_coeffs, rank) orthonormal columns

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


def periodic_subspaces(
    map_: DiscreteSkewMap, y: float, transfers: list[np.ndarray], mu: np.ndarray, vectors: np.ndarray, bins: list
) -> np.ndarray:
    """Each bin's eigenvectors carried along a periodic base orbit.

    transfers[p] is the fiber transfer matrix T_p at h^p(y), p = 0..n-1,
    and mu, vectors are the eigendecomposition of the monodromy
    M = T_0 T_1 ... T_{n-1}. Returns a zero-padded (bins, n, N, width)
    stack whose block [b, p] spans bin b's subspace at h^p(y); a
    PeriodicSetup orthonormalizes the blocks that are read.

    An eigenvector z_0 of M with principal n-th root lambda of its mu is
    carried backward along the orbit, z_p = T_p z_{p+1} / lambda for
    p = n-1..1 with z_n = z_0, so T_p z_{p+1} = lambda z_p at every step.
    Each bin takes the eigenvectors whose principal root it contains, and
    its members are spanned by their z_p, so they are transfer-equivariant
    and every per-step compression has the principal roots as eigenvalues.
    Eigenvectors whose mu has modulus at most 0.5^n cut no bin and join
    no family, so every lambda divided by exceeds 1/2 in modulus.
    """
    n = map_.base_period
    if len(transfers) != n:
        raise ValueError("the decomposition needs one transfer per orbit point")
    check_bin_family(bins)
    live = np.abs(mu) > 0.5**n
    mu, vectors = mu[live], vectors[:, live]
    phases = _root_phases(mu, n)
    members, near = _bin_tests(bins, phases[:, 0], phases)
    for b in np.flatnonzero(near):
        message = f"eigen-phase within {BOUNDARY_TOL:g} of a boundary of bin {bins[b].describe()}"
        warnings.warn(message, BinBoundaryWarning, stacklevel=2)
    lam = np.abs(mu) ** (1.0 / n) * np.exp(1j * phases[:, 0])
    z = np.empty((n,) + vectors.shape, dtype=complex)
    z[0] = vectors
    for p in range(n - 1, 0, -1):
        z[p] = transfers[p] @ z[(p + 1) % n] / lam
    # Bin b's k-th member goes to column k of stack[b, p], for every p.
    counts = members.sum(axis=1)
    owner, member = np.nonzero(members)
    column = np.arange(len(owner)) - np.repeat(np.cumsum(counts) - counts, counts)
    stack = np.zeros((len(bins), n, len(vectors), counts.max()), dtype=complex)
    stack[owner, :, :, column] = np.moveaxis(z[:, :, member], -1, 0)
    return stack


@dataclass(frozen=True)
class PeriodicSetup:
    """Discrete decomposition along the periodic base orbit of one base point.

    transfers[m] is the fiber transfer matrix at orbit[m] = h^m(y), and
    carried[b, m] spans bins[b]'s subspace at orbit[m]. Frames are built
    when read: frames(points) orthonormalizes every bin's blocks at those
    orbit points in one call, and families[b][m], bins[b]'s subspace at
    orbit[m], is frames of every orbit point, built on first read.
    """

    y: float
    orbit: list
    transfers: list
    bins: list
    carried: np.ndarray

    def frames(self, points) -> list[list[np.ndarray]]:
        """frames(points)[b][k] is an orthonormal frame of bins[b]'s subspace at orbit[points[k]]."""
        blocks = self.carried[:, list(points)]
        flat = orthonormalize(blocks.reshape((-1,) + blocks.shape[2:]))
        return [flat[start : start + len(points)] for start in range(0, len(flat), len(points))]

    @functools.cached_property
    def families(self) -> list[list[FiberSubspace]]:
        return [[FiberSubspace(w, f) for w, f in zip(self.orbit, fs)] for fs in self.frames(range(len(self.orbit)))]


def periodic_setup(
    map_: DiscreteSkewMap, y: float, fiber_basis: Optional[TruncatedBasis] = None, fiber_grid: Optional[Grid] = None
) -> PeriodicSetup:
    """Transfers, isolating bins and carried eigenvectors at base point y; no frame is built yet.

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
    mu, vectors = np.linalg.eig(functools.reduce(np.matmul, transfers))
    bins = isolating_bins(mu, map_.base_period)
    return PeriodicSetup(float(y), orbit, transfers, bins, periodic_subspaces(map_, y, transfers, mu, vectors, bins))


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
