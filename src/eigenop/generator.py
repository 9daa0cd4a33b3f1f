"""Galerkin assembly of advection generators and fiber transfer matrices.

The generator of a skew flow acts on a tensor Fourier mode as
base-frequency times base velocity plus fiber-frequency dot fiber
velocity, all times i. Assembled in skew-symmetric form, the matrix
entries reduce to Fourier coefficients of the velocity components at
mode differences, weighted by the mean of the two modes' frequencies;
one FFT per component delivers the coefficients.

Modes m and m' couple only where the velocity has Fourier content at
m' - m, so the generator is block diagonal after a permutation.
assemble_generator finds the blocks before it assembles anything: it
joins m and m + s for every difference s in the velocity's support,
gathers entries only inside each class so joined, and splits each class
into the components of its coupling graph. The result is a
BlockOperator, which never holds the N x N array; its dropped_bound
bounds the spectral norm of every entry it leaves out. The one
smoothing, diag(w) V with the power-law weights of the RKHS
compactification (Das, Giannakis & Slawinska 2021), acts block by block.
BlockOperator is the one operator type; fiber transfer matrices, like
every other dense matrix, are plain arrays.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import Grid, TruncatedBasis, evaluation_matrix
from .systems import ContinuousSkewSystem, DiscreteSkewMap

GENERATOR = "generator"
SMOOTHED_GENERATOR = "smoothed_generator"

# Rounding level relative to the largest entry: couplings at or below it
# split blocks, and a skew-Hermitian defect below it counts as zero.
COUPLING_RTOL = 1e3 * np.finfo(float).eps


@dataclass(frozen=True)
class BlockOperator:
    """Square operator on one basis, block diagonal after a permutation.

    blocks[k] is an ascending index array and matrices[k] the operator on
    blocks[k] x blocks[k]; the blocks partition the basis and are listed
    by smallest index, and every entry outside them is exactly 0.
    dropped_bound bounds the spectral norm of what the true operator has
    outside the blocks; meta records it as "dropped_coupling_bound".
    op[a:b] is rows a:b of the dense matrix, so op[:] is all of it. A
    non-finite entry is a numerical failure, so it raises FloatingPointError.
    """

    basis: TruncatedBasis
    blocks: tuple
    matrices: tuple
    provenance: str
    meta: dict = field(default_factory=dict)
    dropped_bound: float = 0.0

    def __post_init__(self):
        if self.provenance not in (GENERATOR, SMOOTHED_GENERATOR):
            raise ValueError(f"unknown provenance '{self.provenance}'")
        if not np.array_equal(np.sort(np.concatenate(self.blocks)), np.arange(self.basis.size)):
            raise ValueError("blocks must partition the basis")
        for b, B in zip(self.blocks, self.matrices, strict=True):
            if B.shape != (len(b), len(b)):
                raise ValueError("each block matrix must match its block")
            if not np.all(np.isfinite(B)):
                raise FloatingPointError(f"{self.provenance} has non-finite entries")
            B.setflags(write=False)
        object.__setattr__(self, "blocks", tuple(self.blocks))
        object.__setattr__(self, "matrices", tuple(self.matrices))
        object.__setattr__(self, "meta", {**self.meta, "dropped_coupling_bound": float(self.dropped_bound)})

    @property
    def shape(self) -> tuple[int, int]:
        return (self.basis.size, self.basis.size)

    def __len__(self) -> int:
        return self.basis.size

    def __getitem__(self, rows: slice) -> np.ndarray:
        start, stop, step = rows.indices(len(self))
        if step != 1:
            raise IndexError("a BlockOperator gives contiguous rows only")
        out = np.zeros((max(stop - start, 0), len(self)), dtype=complex)
        for b, B in zip(self.blocks, self.matrices):
            lo, hi = np.searchsorted(b, (start, stop))
            if lo < hi:
                out[(b[lo:hi] - start)[:, None], b] = B[lo:hi]
        return out


def coupling_blocks(M: np.ndarray, level: float | None = None) -> list[np.ndarray]:
    """Connected components of the coupling graph |M_ij| > level.

    level defaults to COUPLING_RTOL * max|M|. Each block is an ascending
    index array; blocks are listed by their smallest index.
    """
    linked = np.abs(M)
    linked = linked > (COUPLING_RTOL * np.max(linked, initial=0.0) if level is None else level)
    linked |= linked.T
    seen = np.zeros(len(M), dtype=bool)
    blocks = []
    for seed in range(len(M)):
        if seen[seed]:
            continue
        frontier = np.zeros(len(M), dtype=bool)
        frontier[seed] = True
        members = frontier.copy()
        while frontier.any():
            frontier = linked[frontier].any(axis=0) & ~members
            members |= frontier
        seen |= members
        blocks.append(np.flatnonzero(members))
    return blocks


def _velocity_coefficients(grid: Grid, velocity: np.ndarray) -> np.ndarray:
    """(ndim, *grid.shape) Fourier coefficients of each velocity component."""
    return np.stack([np.fft.fftn(velocity[:, d].reshape(grid.shape)) / grid.size for d in range(velocity.shape[1])])


def _advection_entries(coeffs: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """advection_matrix entries (m', m) for the modes m' in rows and m in cols."""
    # Flat index of each mode difference m' - m into the grid spectrum.
    idx = np.ravel_multi_index(np.moveaxis(rows[:, None] - cols[None], -1, 0), coeffs.shape[1:], mode="wrap")
    out = np.zeros((len(rows), len(cols)), dtype=complex)
    # Column and row scaling by i*m_d/2 turn the velocity-coefficient
    # gather into the symmetric Galerkin entry for each advection term.
    for d in range(len(coeffs)):
        g = coeffs[d].ravel()[idx]
        out += g * (0.5j * cols[:, d].astype(float))[None, :]
        out += g * (0.5j * rows[:, d].astype(float))[:, None]
    return out


def advection_matrix(basis: TruncatedBasis, grid: Grid, velocity: np.ndarray) -> np.ndarray:
    """Galerkin matrix of (v.grad + div(v .))/2 on a tensor basis.

    velocity holds v at grid.nodes, shape (grid.size, basis.ndim). Entry
    (m', m) is sum_d (i/2)(m_d + m'_d) v_d^(m' - m) (Zang 1991): v.grad
    for a divergence-free v, and skew-Hermitian whatever the quadrature
    error, so aliasing cannot move eigenvalues off the imaginary axis.
    """
    grid.check_no_aliasing(basis)
    return _advection_entries(_velocity_coefficients(grid, velocity), basis.modes, basis.modes)


def _support_classes(cutoffs, support: np.ndarray) -> list[np.ndarray]:
    """Classes of the modes joined by m ~ m + s for every difference s marked in support.

    support is indexed by s + 2K over the box of differences; each class is
    an ascending index array, and classes are listed by smallest index.
    """
    shape = tuple(2 * k + 1 for k in cutoffs)
    pairs = []
    for s in np.argwhere(support) - 2 * np.asarray(cutoffs):
        lo = tuple(slice(max(0, -d), n - max(0, d)) for d, n in zip(s, shape))
        hi = tuple(slice(max(0, d), n - max(0, -d)) for d, n in zip(s, shape))
        pairs.append((lo, hi))
    # Every mode takes the smallest index it reaches; pointer jumping
    # shortcuts chains, so few sweeps settle the labels.
    labels = np.arange(int(np.prod(shape))).reshape(shape)
    while True:
        before = labels.copy()
        for lo, hi in pairs:
            low = np.minimum(labels[lo], labels[hi])
            labels[lo] = low
            labels[hi] = low
        labels = labels.ravel()[labels]
        if np.array_equal(labels, before):
            break
    flat = labels.ravel()
    order = np.argsort(flat, kind="stable")
    return np.split(order, np.flatnonzero(np.diff(flat[order])) + 1)


def assemble_generator(
    system: ContinuousSkewSystem,
    basis: TruncatedBasis,
    grid: Grid,
) -> BlockOperator:
    """Generator of the flow on the product basis, as advection_matrix's blocks.

    The basis must lead with one base factor followed by the fiber
    factors. The matrix is skew-Hermitian for any velocity, so a
    compressible one shows in validate_system's fiber_divergence_free
    check, not here.

    The support S holds the mode differences s whose velocity coefficient
    exceeds COUPLING_RTOL times the largest; modes joined by S form
    classes, and each class splits into the components of its coupling
    graph at COUPLING_RTOL times the largest entry. The blocks' entries are
    advection_matrix's, bit for bit. dropped_bound is the sum over s not in
    S of sum_d |v_d^(s)| K_d, which bounds the row and column sums of the
    entries left out between classes, plus the largest Frobenius norm of
    the entries left out inside one class.
    """
    basis.check_base_then_fibers()
    if basis.ndim != 1 + system.fiber_dim:
        raise ValueError("basis dimensionality does not match the system")
    grid.check_no_aliasing(basis)
    nodes = grid.nodes
    y = nodes[:, 0]
    # A velocity that overflows fails BlockOperator's finiteness guard, one
    # error in place of a warning per operation.
    with np.errstate(all="ignore"):
        velocity = np.column_stack([system.base_velocity(y), system.fiber_velocity(y, nodes[:, 1:])])
    coeffs = _velocity_coefficients(grid, velocity)
    # Coefficients at every mode difference -2K..2K, wrapped as advection_matrix wraps them.
    box = np.abs(coeffs[(slice(None),) + np.ix_(*(np.arange(-2 * k, 2 * k + 1) % p for k, p in zip(basis.cutoffs, grid.points)))])
    peak = box.max(axis=0)
    support = peak > COUPLING_RTOL * peak.max()
    dropped = float(np.sum(box[:, ~support] * np.asarray(basis.cutoffs, dtype=float)[:, None]))
    classes = _support_classes(basis.cutoffs, support)
    parts = [_advection_entries(coeffs, basis.modes[c], basis.modes[c]) for c in classes]
    level = COUPLING_RTOL * max(np.max(np.abs(C)) for C in parts)
    blocks, matrices, inside = [], [], 0.0
    for c, C in zip(classes, parts):
        split = coupling_blocks(C, level)
        kept = np.zeros(C.shape, dtype=bool)
        for b in split:
            kept[np.ix_(b, b)] = True
            blocks.append(c[b])
            matrices.append(C[np.ix_(b, b)])
        inside = max(inside, float(np.linalg.norm(C[~kept])))
    order = np.argsort([b[0] for b in blocks])
    meta = {"system": system.name, "grid": list(grid.points)}
    return BlockOperator(
        basis, [blocks[k] for k in order], [matrices[k] for k in order], GENERATOR, meta, dropped + inside
    )


@dataclass(frozen=True)
class SmoothingWeights:
    """Power-law weights e^{-tau sum_d |m_d|^p}; ValueError if one underflows to 0, as eig needs w > 0."""

    basis: TruncatedBasis
    tau: float
    p: float

    def __post_init__(self):
        if self.tau <= 0 or self.p <= 0:
            raise ValueError("tau and p must be positive")
        if zero := np.sum(self.values == 0.0):
            raise ValueError(
                f"smoothing tau = {self.tau:g}, p = {self.p:g} underflows {zero} of {len(self.values)} weights to 0"
            )

    @cached_property
    def values(self) -> np.ndarray:
        absm = np.abs(self.basis.modes).astype(float)
        w = np.exp(-self.tau * np.sum(absm**self.p, axis=1))
        w.setflags(write=False)
        return w


def smoothed_generator(V: BlockOperator, w: SmoothingWeights) -> BlockOperator:
    """Left-smoothed operator diag(w) V.

    The scaling is diagonal, so it acts block by block, and it raises no
    spectral norm by more than max w.
    """
    if V.basis.size != w.basis.size:
        raise ValueError("weights do not match the operator basis")
    matrices = [w.values[b][:, None] * B for b, B in zip(V.blocks, V.matrices)]
    meta = dict(V.meta)
    meta.update({"tau": w.tau, "p": w.p})
    dropped = V.dropped_bound * float(np.max(w.values, initial=0.0))
    return BlockOperator(V.basis, V.blocks, matrices, SMOOTHED_GENERATOR, meta, dropped)


def assemble_fiber_koopman(
    map_: DiscreteSkewMap, y: float, fiber_basis: TruncatedBasis, fiber_grid: Grid
) -> np.ndarray:
    """Matrix of u -> u(g(y, .)), one step of a torus-fiber map at base point y."""
    if map_.fiber_kind != "torus":
        raise ValueError("grid-based fiber Koopman requires a torus fiber")
    fiber_grid.check_no_aliasing(fiber_basis)
    # Row m': quadrature of conj(mode_m') * e^{i m.targets} over nodes; rows and phases are (nodes, N).
    rows = np.exp(-1j * (fiber_grid.nodes @ fiber_basis.modes.T.astype(float)))
    phases = evaluation_matrix(fiber_basis, np.atleast_2d(map_.fiber_map(y, fiber_grid.nodes)))
    return (rows.T @ phases) * fiber_grid.weight


def cyclic_fiber_koopman(map_: DiscreteSkewMap, y: float) -> np.ndarray:
    """Permutation Koopman matrix on delta functions of the cyclic fiber."""
    if map_.fiber_kind != "cyclic":
        raise ValueError("cyclic fiber required")
    m = map_.fiber_size
    U = np.zeros((m, m), dtype=complex)
    # (U f)(w) = f(g(y, w)) in the delta basis.
    U[np.arange(m), map_.fiber_map(y, np.arange(m))] = 1.0
    return U


def interior_band_slice(basis: TruncatedBasis) -> np.ndarray:
    """Indices of modes within half the cutoff on every factor."""
    halves = [k // 2 for k in basis.cutoffs]
    keep = np.all(np.abs(basis.modes) <= np.asarray(halves)[None, :], axis=1)
    return np.nonzero(keep)[0]


def skew_symmetry_residual(V: BlockOperator) -> float:
    """Spectral norm of V + V* restricted to the interior half band.

    The restriction is block diagonal, so its norm is the largest of its blocks'.
    """
    inner = np.zeros(V.basis.size, dtype=bool)
    inner[interior_band_slice(V.basis)] = True
    subs = [B[np.ix_(inner[b], inner[b])] for b, B in zip(V.blocks, V.matrices)]
    return max((float(np.linalg.norm(S + S.conj().T, ord=2)) for S in subs if S.size), default=0.0)


def unitarity_residual(U: np.ndarray, basis: TruncatedBasis) -> float:
    """Spectral norm of U*U - I restricted to the interior half band of basis."""
    idx = interior_band_slice(basis)
    gram = U.conj().T @ U
    sub = gram[np.ix_(idx, idx)] - np.eye(len(idx))
    return float(np.linalg.norm(sub, ord=2))
