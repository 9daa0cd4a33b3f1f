"""Galerkin assembly of advection generators and fiber transfer matrices.

The generator of a skew flow acts on a tensor Fourier mode as
base-frequency times base velocity plus fiber-frequency dot fiber
velocity, all times i. Assembled in skew-symmetric form, the matrix
entries reduce to Fourier coefficients of the velocity components at
mode differences, weighted by the mean of the two modes' frequencies;
one FFT per component delivers the coefficients.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .basis import Grid, TruncatedBasis, evaluation_matrix
from .systems import ContinuousSkewSystem, DiscreteSkewMap

GENERATOR = "generator"
SMOOTHED_GENERATOR = "smoothed_generator"
FIBER_KOOPMAN = "fiber_koopman"

_PROVENANCE_TAGS = (
    GENERATOR,
    SMOOTHED_GENERATOR,
    FIBER_KOOPMAN,
)


@dataclass(frozen=True)
class OperatorMatrix:
    """Dense complex matrix with declared row and column bases."""

    rows: TruncatedBasis
    cols: TruncatedBasis
    entries: np.ndarray
    provenance: str
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        entries = np.asarray(self.entries, dtype=complex)
        if entries.shape != (self.rows.size, self.cols.size):
            raise ValueError(
                f"entries shape {entries.shape} does not match bases "
                f"({self.rows.size}, {self.cols.size})"
            )
        if not np.all(np.isfinite(entries)):
            raise ValueError("matrix entries must be finite")
        if self.provenance not in _PROVENANCE_TAGS:
            raise ValueError(f"unknown provenance '{self.provenance}'")
        entries = entries.copy()
        entries.setflags(write=False)
        object.__setattr__(self, "entries", entries)

    @property
    def is_square(self) -> bool:
        return self.rows.size == self.cols.size


def advection_matrix(basis: TruncatedBasis, grid: Grid, velocity: np.ndarray) -> np.ndarray:
    """Galerkin matrix of (v.grad + div(v .))/2 on a tensor basis.

    velocity holds v at grid.nodes, shape (grid.size, basis.ndim). Entry
    (m', m) is sum_d (i/2)(m_d + m'_d) v_d^(m' - m) (Zang 1991): v.grad
    for a divergence-free v, and skew-Hermitian whatever the quadrature
    error, so aliasing cannot move eigenvalues off the imaginary axis.
    """
    grid.check_no_aliasing(basis)
    out = np.zeros((basis.size, basis.size), dtype=complex)
    # Flat index of each mode difference m' - m into the grid spectrum.
    idx = np.ravel_multi_index(np.moveaxis(basis.modes[:, None] - basis.modes[None], -1, 0), grid.shape, mode="wrap")
    # Column and row scaling by i*m_d/2 turn the velocity-coefficient
    # gather into the symmetric Galerkin entry for each advection term.
    for d in range(basis.ndim):
        g = (np.fft.fftn(velocity[:, d].reshape(grid.shape)) / grid.size).ravel()[idx]
        half = 0.5j * basis.modes[:, d].astype(float)
        out += g * half[None, :]
        out += g * half[:, None]
    return out


def assemble_generator(
    system: ContinuousSkewSystem,
    basis: TruncatedBasis,
    grid: Grid,
) -> OperatorMatrix:
    """Generator of the flow on the product basis, as an advection_matrix.

    The basis must lead with one base factor followed by the fiber
    factors. The matrix is skew-Hermitian for any velocity, so a
    compressible one shows in validate_system's fiber_divergence_free
    check, not here.
    """
    basis.check_base_then_fibers()
    if basis.ndim != 1 + system.fiber_dim:
        raise ValueError("basis dimensionality does not match the system")
    nodes = grid.nodes
    y = nodes[:, 0]
    velocity = np.column_stack([system.base_velocity(y), system.fiber_velocity(y, nodes[:, 1:])])
    meta = {"system": system.name, "grid": list(grid.points)}
    return OperatorMatrix(basis, basis, advection_matrix(basis, grid, velocity), GENERATOR, meta)


@dataclass(frozen=True)
class SmoothingWeights:
    """Per-mode damping weights for kernel-smoothed operator sections."""

    basis: TruncatedBasis
    tau: float
    p: float
    rule: str = "power_law"

    def __post_init__(self):
        if self.tau <= 0 or self.p <= 0:
            raise ValueError("tau and p must be positive")
        if self.rule not in ("power_law", "heat_kernel"):
            raise ValueError(f"unknown smoothing rule '{self.rule}'")

    @cached_property
    def values(self) -> np.ndarray:
        absm = np.abs(self.basis.modes).astype(float)
        if self.rule == "power_law":
            w = np.exp(-self.tau * np.sum(absm**self.p, axis=1))
        else:
            # Alternate rule: kernel eigenvalues e^{-|i|} per factor give
            # the weight e^{tau*(1 - prod_d e^{|i_d|})}.
            w = np.exp(self.tau * (1.0 - np.exp(np.sum(absm, axis=1))))
        w.setflags(write=False)
        return w


def smoothed_generator(V: OperatorMatrix, w: SmoothingWeights, symmetric: bool = False) -> OperatorMatrix:
    """Left-smoothed matrix diag(w) V; optionally sqrt(w)-symmetrized."""
    if not V.is_square or V.rows.size != w.basis.size:
        raise ValueError("weights do not match the operator basis")
    if symmetric:
        root = np.sqrt(w.values)
        entries = root[:, None] * V.entries * root[None, :]
    else:
        entries = w.values[:, None] * V.entries
    meta = dict(V.meta)
    meta.update({"tau": w.tau, "p": w.p, "rule": w.rule, "symmetric": symmetric})
    return OperatorMatrix(V.rows, V.cols, entries, SMOOTHED_GENERATOR, meta)


def assemble_fiber_koopman(
    map_: DiscreteSkewMap, y: float, fiber_basis: TruncatedBasis, fiber_grid: Grid
) -> OperatorMatrix:
    """Matrix of u -> u(g(y, .)), one step of a torus-fiber map at base point y."""
    if map_.fiber_kind != "torus":
        raise ValueError("grid-based fiber Koopman requires a torus fiber")
    fiber_grid.check_no_aliasing(fiber_basis)
    nodes = fiber_grid.nodes
    targets = np.atleast_2d(map_.fiber_map(y, nodes))
    # Row m': quadrature of conj(mode_m') * e^{i m.targets} over nodes.
    phases = evaluation_matrix(fiber_basis, targets)  # (nodes, N)
    conj_rows = np.exp(-1j * (nodes @ fiber_basis.modes.T.astype(float)))  # (nodes, N)
    entries = (conj_rows.T @ phases) * fiber_grid.weight
    return OperatorMatrix(fiber_basis, fiber_basis, entries, FIBER_KOOPMAN, {"y": float(y)})


def cyclic_fiber_koopman(map_: DiscreteSkewMap, y: float) -> np.ndarray:
    """Permutation Koopman matrix on delta functions of the cyclic fiber."""
    if map_.fiber_kind != "cyclic":
        raise ValueError("cyclic fiber required")
    m = map_.fiber_size
    U = np.zeros((m, m), dtype=complex)
    for w in range(m):
        target = int(map_.fiber_map(y, w))
        # (U f)(w) = f(g(y, w)) in the delta basis.
        U[w, target] = 1.0
    return U


def interior_band_slice(basis: TruncatedBasis) -> np.ndarray:
    """Indices of modes within half the cutoff on every factor."""
    halves = [k // 2 for k in basis.cutoffs]
    keep = np.all(np.abs(basis.modes) <= np.asarray(halves)[None, :], axis=1)
    return np.nonzero(keep)[0]


def skew_symmetry_residual(V: OperatorMatrix) -> float:
    """Spectral norm of V + V* restricted to the interior half band."""
    idx = interior_band_slice(V.rows)
    sub = V.entries[np.ix_(idx, idx)]
    return float(np.linalg.norm(sub + sub.conj().T, ord=2))


def unitarity_residual(U: OperatorMatrix) -> float:
    """Spectral norm of U*U - I restricted to the interior half band."""
    idx = interior_band_slice(U.cols)
    gram = U.entries.conj().T @ U.entries
    sub = gram[np.ix_(idx, idx)] - np.eye(len(idx))
    return float(np.linalg.norm(sub, ord=2))
