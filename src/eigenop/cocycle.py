"""Ordered products of fiber transfer operators along base orbits.

The discrete cocycle at step i is the product of per-step fiber transfer
matrices along the orbit of y (adjoints for negative steps). The
continuous analogue applies the time-s fiber flow by pointwise
composition, which avoids a second truncation: continuous_w flows the
fiber grid once and builds the evaluation matrix at the flowed points
once, so each field it transports costs one matrix-vector product.
Projected cocycle fields drive the coherent-pattern figures, and a
product-space consistency check ties the per-fiber route to the direct
composition operator.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .basis import FieldSample, Grid, TruncatedBasis, evaluation_matrix, synthesize
from .generator import assemble_fiber_koopman
from .oseledets import FiberSubspace, restrict_coefficients
from .systems import ContinuousSkewSystem, DiscreteSkewMap


@dataclass(frozen=True)
class CocycleMatrix:
    """Cocycle product matrix at one base point and time index."""

    y: float
    index: float
    matrix: np.ndarray
    meta: dict = field(default_factory=dict)


@dataclass(frozen=True)
class TestVector:
    """Average of the d leading eigenvector fields, as fiber coefficients."""

    y: float
    d: int
    coeffs: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=complex)
        if not np.all(np.isfinite(c)):
            raise ValueError("test-vector coefficients must be finite")
        c = c.copy()
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)


def build_test_vector(sorted_eigvecs: np.ndarray, basis: TruncatedBasis, y: float, d: int) -> TestVector:
    """Mean of the first d eigenvector fields restricted at base point y."""
    if d < 1 or d > sorted_eigvecs.shape[1]:
        raise ValueError("d out of range for the supplied eigenvectors")
    restricted = restrict_coefficients(sorted_eigvecs[:, :d], basis, y)
    return TestVector(y=float(y), d=int(d), coeffs=restricted.mean(axis=1))


def discrete_w(
    map_: DiscreteSkewMap,
    y: float,
    i: int,
    transfer_fn,
    dim: int,
) -> CocycleMatrix:
    """Cocycle product at integer step i; i=0 gives the identity.

    transfer_fn(base_point) returns the fiber transfer matrix there.
    Positive i multiplies transfers at y, h(y), ..., h^{i-1}(y) left to
    right; negative i multiplies adjoints at h^{-1}(y), h^{-2}(y), ...
    """
    out = np.eye(dim, dtype=complex)
    if i >= 0:
        for k in range(i):
            out = out @ np.asarray(transfer_fn(map_.base_iterate(y, k)), dtype=complex)
    else:
        for k in range(-1, i - 1, -1):
            out = out @ np.asarray(transfer_fn(map_.base_iterate(y, k)), dtype=complex).conj().T
    return CocycleMatrix(y=float(y), index=float(i), matrix=out)


def continuous_w(
    system: ContinuousSkewSystem,
    y: float,
    s: float,
    fiber_basis: TruncatedBasis,
    fiber_grid: Grid,
    steps_per_unit_time: int = 200,
) -> Callable[[np.ndarray], FieldSample]:
    """The map u -> (w_s u)(y, .) on the fiber grid: u evaluated at the flowed points.

    The flow and the evaluation matrix are built once, here. At s = 0 the
    map is synthesis on the grid.
    """
    if s == 0.0:
        return lambda u_coeffs: synthesize(u_coeffs, fiber_basis, fiber_grid)
    targets = system.fiber_flow(s, y, fiber_grid.nodes, steps_per_unit_time)
    evaluation = evaluation_matrix(fiber_basis, targets)

    def apply(u_coeffs: np.ndarray) -> FieldSample:
        values = evaluation @ np.asarray(u_coeffs, dtype=complex)
        return FieldSample(fiber_grid, values.reshape(fiber_grid.shape))

    return apply


def hatw_field(
    subspace: FiberSubspace,
    u_coeffs: np.ndarray,
    w: Callable[[np.ndarray], FieldSample],
) -> FieldSample:
    """Projected cocycle field: project u onto the subspace at h_s(y),
    then transport with w = continuous_w(system, y, s, ...)."""
    return w(subspace.projection @ np.asarray(u_coeffs, dtype=complex))


def koopman_correspondence_check(
    map_: DiscreteSkewMap,
    basis: TruncatedBasis,
    grid: Grid,
    test_count: int = 5,
    seed: int = 0,
) -> dict:
    """Compare the product-space composition operator with the fiber route.

    Route A applies the composition operator assembled directly on the
    product basis. Route B evaluates, at every base node, the base-shifted
    function transported by the per-point fiber transfer matrix. Both
    routes act on random rank-one coefficient fields and the maximum grid
    discrepancy is reported.
    """
    if map_.fiber_kind != "torus":
        raise ValueError("product-space check requires a torus fiber")
    basis.check_base_then_fibers()
    grid.check_no_aliasing(basis)

    # Route A: full composition matrix via quadrature on the product grid.
    nodes = grid.nodes
    ynodes = nodes[:, 0]
    znodes = nodes[:, 1:]
    hy = np.mod(np.asarray(map_.base_map(ynodes), dtype=float), 2 * np.pi)
    gz = np.empty_like(znodes)
    for r in range(nodes.shape[0]):
        gz[r] = map_.fiber_map(float(ynodes[r]), znodes[r])
    targets = np.concatenate([hy[:, None], gz], axis=1)
    phases = evaluation_matrix(basis, targets)
    conj_rows = np.exp(-1j * (nodes @ basis.modes.T.astype(float)))
    UT = (conj_rows.T @ phases) * grid.weight

    # Route B ingredients: per-base-node fiber transfer matrices.
    fib = basis.fiber_subbasis()
    fib_grid = Grid(tuple(grid.points[1:]))
    base_axis = grid.axes[0]
    fiber_mats = [
        assemble_fiber_koopman(map_, float(yv), 1, fib, fib_grid).entries for yv in base_axis
    ]

    rng = np.random.default_rng(seed)
    kbase = basis.cutoffs[0]
    worst = 0.0
    for _ in range(test_count):
        vb = rng.standard_normal(2 * kbase + 1) + 1j * rng.standard_normal(2 * kbase + 1)
        uf = rng.standard_normal(fib.size) + 1j * rng.standard_normal(fib.size)
        prod = np.kron(vb, uf)

        via_matrix = synthesize(UT @ prod, basis, grid).values

        base_modes = np.arange(-kbase, kbase + 1)
        via_module = np.empty(grid.shape, dtype=complex)
        for bi, yv in enumerate(base_axis):
            vb_at_hy = np.exp(1j * base_modes * float(map_.base_map(yv))) @ vb
            fib_vals = synthesize(fiber_mats[bi] @ uf, fib, fib_grid).values
            via_module[bi, ...] = vb_at_hy * fib_vals

        worst = max(worst, float(np.max(np.abs(via_matrix - via_module))))
    return {"max_discrepancy": worst, "tests": test_count, "grid": list(grid.points)}
