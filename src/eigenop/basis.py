"""Truncated tensor Fourier bases on products of circles.

Every factor is a copy of [0, 2pi) with the uniform probability measure.
Modes are integer frequency tuples with per-factor cutoffs; the mode order
is lexicographic over components (most-significant factor first, components
ascending from -K to K), which fixes a reproducible matrix layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

TWO_PI = 2.0 * np.pi

BASE = "base"
FIBER = "fiber"


class AliasingError(ValueError):
    """Grid too coarse for the requested cutoffs."""


@dataclass(frozen=True)
class TruncatedBasis:
    """Tensor Fourier mode set with per-factor cutoffs and roles.

    cutoffs[d] = K_d means factor d carries frequencies -K_d..K_d, so the
    total mode count is prod(2*K_d + 1).
    """

    cutoffs: tuple[int, ...]
    roles: tuple[str, ...]

    def __post_init__(self):
        object.__setattr__(self, "cutoffs", tuple(int(k) for k in self.cutoffs))
        object.__setattr__(self, "roles", tuple(self.roles))
        if len(self.cutoffs) != len(self.roles):
            raise ValueError("cutoffs and roles must have equal length")
        if any(k < 1 for k in self.cutoffs):
            raise ValueError("cutoffs must be positive")
        if any(r not in (BASE, FIBER) for r in self.roles):
            raise ValueError(f"roles must be '{BASE}' or '{FIBER}'")

    @property
    def ndim(self) -> int:
        return len(self.cutoffs)

    @property
    def size(self) -> int:
        return int(np.prod([2 * k + 1 for k in self.cutoffs]))

    @cached_property
    def modes(self) -> np.ndarray:
        """(size, ndim) int array; row order is the declared total order."""
        axes = [np.arange(-k, k + 1) for k in self.cutoffs]
        mesh = np.meshgrid(*axes, indexing="ij")
        out = np.stack([m.ravel() for m in mesh], axis=1)
        out.setflags(write=False)
        return out

    def index_of(self, mode) -> int:
        mode = tuple(int(m) for m in mode)
        if len(mode) != self.ndim:
            raise ValueError("mode dimensionality mismatch")
        idx = 0
        for m, k in zip(mode, self.cutoffs):
            if abs(m) > k:
                raise ValueError(f"mode component {m} exceeds cutoff {k}")
            idx = idx * (2 * k + 1) + (m + k)
        return idx

    def base_axes(self) -> tuple[int, ...]:
        return tuple(d for d, r in enumerate(self.roles) if r == BASE)

    def fiber_axes(self) -> tuple[int, ...]:
        return tuple(d for d, r in enumerate(self.roles) if r == FIBER)

    def fiber_subbasis(self) -> "TruncatedBasis":
        axes = self.fiber_axes()
        return TruncatedBasis(tuple(self.cutoffs[d] for d in axes), (FIBER,) * len(axes))

    def base_subbasis(self) -> "TruncatedBasis":
        axes = self.base_axes()
        return TruncatedBasis(tuple(self.cutoffs[d] for d in axes), (BASE,) * len(axes))

    def check_base_then_fibers(self):
        """Raise unless the layout is one base factor followed by fiber factors."""
        if self.roles[0] != BASE or any(r != FIBER for r in self.roles[1:]):
            raise ValueError("basis must be one base factor followed by fiber factors")

    def describe(self) -> dict:
        """JSON-serializable identity of the basis (used in reports)."""
        return {
            "cutoffs": list(self.cutoffs),
            "roles": list(self.roles),
            "ordering": "lex-msf",
            "size": self.size,
        }


@dataclass(frozen=True)
class Grid:
    """Uniform tensor grid on [0, 2pi)^D with product quadrature weights."""

    points: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "points", tuple(int(p) for p in self.points))
        if any(p < 2 for p in self.points):
            raise ValueError("need at least 2 points per factor")

    @property
    def ndim(self) -> int:
        return len(self.points)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.points

    @property
    def size(self) -> int:
        return int(np.prod(self.points))

    @cached_property
    def axes(self) -> tuple[np.ndarray, ...]:
        return tuple(np.linspace(0.0, TWO_PI, p, endpoint=False) for p in self.points)

    @cached_property
    def nodes(self) -> np.ndarray:
        """(size, D) array of node coordinates, row-major over the grid."""
        mesh = np.meshgrid(*self.axes, indexing="ij")
        out = np.stack([m.ravel() for m in mesh], axis=1)
        out.setflags(write=False)
        return out

    @property
    def weight(self) -> float:
        """Uniform weight per node; weights sum to 1."""
        return 1.0 / self.size

    def check_no_aliasing(self, basis: TruncatedBasis):
        if len(self.points) != basis.ndim:
            raise ValueError("grid/basis dimensionality mismatch")
        for p, k in zip(self.points, basis.cutoffs):
            if p < 2 * k + 1:
                raise AliasingError(
                    f"grid of {p} points aliases modes at cutoff {k} (need >= {2 * k + 1})"
                )


def default_grid(basis: TruncatedBasis, multiplier: int = 4) -> Grid:
    """Grid with multiplier*K points per factor (at least 2K+1)."""
    pts = tuple(max(multiplier * k, 2 * k + 1) for k in basis.cutoffs)
    return Grid(pts)


@dataclass(frozen=True)
class FieldSample:
    """Complex field values on a grid, shaped like the grid."""

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        if values.shape != self.grid.shape:
            values = values.reshape(self.grid.shape)
        object.__setattr__(self, "values", values)

    def norm(self) -> float:
        """L2 norm under the probability quadrature."""
        return float(np.sqrt(np.sum(np.abs(self.values) ** 2) * self.grid.weight))


def analyze(sample: FieldSample, basis: TruncatedBasis) -> np.ndarray:
    """Quadrature Fourier coefficients of a grid sample, one per basis mode.

    Exact for trigonometric polynomials within the grid's alias-free band.
    """
    sample.grid.check_no_aliasing(basis)
    spec = np.fft.fftn(sample.values) / sample.grid.size
    idx = tuple(
        np.mod(basis.modes[:, d], sample.grid.points[d]) for d in range(basis.ndim)
    )
    return np.ascontiguousarray(spec[idx])


def synthesize(coeffs: np.ndarray, basis: TruncatedBasis, grid: Grid) -> FieldSample:
    """Pointwise sum of coefficient-weighted modes on the grid."""
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (basis.size,):
        raise ValueError(f"expected {basis.size} coefficients, got {coeffs.shape}")
    grid.check_no_aliasing(basis)
    spec = np.zeros(grid.shape, dtype=complex)
    idx = tuple(np.mod(basis.modes[:, d], grid.points[d]) for d in range(basis.ndim))
    np.add.at(spec, idx, coeffs)
    values = np.fft.ifftn(spec) * grid.size
    return FieldSample(grid, values)


def evaluation_matrix(basis: TruncatedBasis, points: np.ndarray) -> np.ndarray:
    """(npts, N) values of every mode at arbitrary points (npts, D).

    Its product with a coefficient vector evaluates that series there.
    """
    points = np.atleast_2d(np.asarray(points, dtype=float))
    return np.exp(1j * (points @ basis.modes.T.astype(float)))


def sample_function(fn, grid: Grid) -> FieldSample:
    """Sample fn(points) -> values on the grid (fn takes an (n, D) array)."""
    vals = np.asarray(fn(grid.nodes), dtype=complex)
    return FieldSample(grid, vals.reshape(grid.shape))
