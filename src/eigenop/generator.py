"""Galerkin assembly of advection generators and fiber transfer matrices.

The generator of a skew flow acts on a tensor Fourier mode as
base-frequency times base velocity plus fiber-frequency dot fiber
velocity, all times i. Matrix entries reduce to Fourier coefficients of
the velocity components at mode differences, which one FFT per component
delivers exactly within the alias-free band.
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
MULTIPLICATION = "multiplication"

_PROVENANCE_TAGS = (
    GENERATOR,
    SMOOTHED_GENERATOR,
    FIBER_KOOPMAN,
    MULTIPLICATION,
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


def _difference_index(rows: TruncatedBasis, cols: TruncatedBasis, shape) -> np.ndarray:
    """Linear indices of (row mode - col mode) mod shape into a flat spectrum.

    The linear index of a mode difference splits per axis because the
    grid is a tensor product, so it is assembled axis-wise.
    """
    idx = np.zeros((rows.size, cols.size), dtype=np.int64)
    stride = 1
    for d in range(len(shape) - 1, -1, -1):
        diff = np.mod(rows.modes[:, d][:, None] - cols.modes[None, :, d], shape[d])
        idx += diff * stride
        stride *= shape[d]
    return idx


def _mode_difference_gather(rows: TruncatedBasis, cols: TruncatedBasis, spectrum: np.ndarray) -> np.ndarray:
    """Matrix G[m', m] = spectrum[(modes[m'] - modes[m]) mod gridshape].

    spectrum is an FFT-normalized coefficient array over the sampling grid.
    """
    return spectrum.ravel()[_difference_index(rows, cols, spectrum.shape)]


def assemble_generator(
    system: ContinuousSkewSystem,
    basis: TruncatedBasis,
    grid: Grid,
) -> OperatorMatrix:
    """Galerkin matrix of the first-order advection operator of the flow.

    The basis must lead with one base factor followed by the fiber
    factors. Entry (m', m) is the quadrature inner product of mode m'
    with the generator applied to mode m.
    """
    basis.check_base_then_fibers()
    if basis.ndim != 1 + system.fiber_dim:
        raise ValueError("basis dimensionality does not match the system")
    grid.check_no_aliasing(basis)

    nodes = grid.nodes
    y = nodes[:, 0]
    z = nodes[:, 1:]
    base_vel = np.asarray(system.base_velocity(y), dtype=float).reshape(grid.shape)
    fib_vel = np.asarray(system.fiber_velocity(y, z), dtype=float)

    out = np.zeros((basis.size, basis.size), dtype=complex)
    # Column scaling by i*m_d turns the velocity-coefficient gather into
    # the full Galerkin entry for each advection term.
    spectra = [np.fft.fftn(base_vel) / grid.size]
    for d in range(system.fiber_dim):
        spectra.append(np.fft.fftn(fib_vel[:, d].reshape(grid.shape)) / grid.size)
    idx = _difference_index(basis, basis, grid.shape)
    for d, spec in enumerate(spectra):
        out += spec.ravel()[idx] * (1j * basis.modes[:, d].astype(float))[None, :]

    meta = {"system": system.name, "grid": list(grid.points)}
    return OperatorMatrix(basis, basis, out, GENERATOR, meta)


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


def smoothing_weights(basis: TruncatedBasis, tau: float, p: float, rule: str = "power_law") -> SmoothingWeights:
    return SmoothingWeights(basis, tau, p, rule)


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
    system,
    y: float,
    s,
    fiber_basis: TruncatedBasis,
    fiber_grid: Grid,
    steps_per_unit_time: int = 200,
) -> OperatorMatrix:
    """Matrix of u -> u(g_s(y, .)) on the truncated fiber basis.

    For a continuous system, s is a real flow time. For a discrete map
    with a torus fiber, s is an integer iterate count (s=1 is one
    application of the fiber map at base point y).
    """
    fiber_grid.check_no_aliasing(fiber_basis)
    nodes = fiber_grid.nodes

    if isinstance(system, ContinuousSkewSystem):
        s = float(s)
        targets = nodes if s == 0.0 else system.fiber_flow(s, y, nodes, steps_per_unit_time)
    elif isinstance(system, DiscreteSkewMap):
        if system.fiber_kind != "torus":
            raise ValueError("grid-based fiber Koopman requires a torus fiber")
        if int(s) != s:
            raise ValueError("discrete maps take integer step counts")
        targets = nodes
        yc = y
        for _ in range(int(s)):
            targets = np.atleast_2d(system.fiber_map(yc, targets))
            yc = float(system.base_map(yc))
    else:
        raise TypeError("unsupported system type")

    # Row m': quadrature of conj(mode_m') * e^{i m.targets} over nodes.
    phases = evaluation_matrix(fiber_basis, targets)  # (nodes, N)
    conj_rows = np.exp(-1j * (nodes @ fiber_basis.modes.T.astype(float)))  # (nodes, N)
    entries = (conj_rows.T @ phases) * fiber_grid.weight
    meta = {"y": float(y), "s": float(s)}
    return OperatorMatrix(fiber_basis, fiber_basis, entries, FIBER_KOOPMAN, meta)


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


def integer_fiber_koopman(map_: DiscreteSkewMap, y: float, fiber_basis: TruncatedBasis, fiber_grid: Grid) -> OperatorMatrix:
    """Fourier-conjugate matrix of a lattice translation: multiplication by
    e^{i gtilde(y) omega} on the circle of frequencies omega."""
    if map_.fiber_kind != "integer_lattice":
        raise ValueError("integer lattice fiber required")
    shift = int(map_.gtilde(y))
    return assemble_multiplication(
        lambda om: np.exp(1j * shift * om[:, 0]), fiber_basis, fiber_grid
    )


def assemble_multiplication(symbol, fiber_basis: TruncatedBasis, fiber_grid: Grid) -> OperatorMatrix:
    """Matrix of u -> symbol * u; Toeplitz in the mode difference."""
    fiber_grid.check_no_aliasing(fiber_basis)
    vals = np.asarray(symbol(fiber_grid.nodes), dtype=complex).reshape(fiber_grid.shape)
    spec = np.fft.fftn(vals) / fiber_grid.size
    entries = _mode_difference_gather(fiber_basis, fiber_basis, spec)
    return OperatorMatrix(fiber_basis, fiber_basis, entries, MULTIPLICATION)


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
