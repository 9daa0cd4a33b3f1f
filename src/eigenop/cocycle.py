"""Ordered products of fiber transfer operators along base orbits.

The discrete cocycle at step i is the product of the per-step fiber
transfers that a periodic setup holds along the orbit of y (adjoints for
negative steps), so it assembles no transfer of its own. The
continuous analogue applies the time-s fiber flow by pointwise
composition, which avoids a second truncation: continuous_w flows the
fiber grid once and builds the per-axis mode factors at the flowed
points once, so each field it transports costs one contraction per
fiber axis.
Projected cocycle fields drive the coherent-pattern figures, and a
product-space consistency check ties the per-fiber route to the direct
composition operator.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from .basis import FieldSample, Grid, TruncatedBasis, evaluation_matrix, synthesize
from .generator import assemble_fiber_koopman
from .oseledets import FiberSubspace, restrict_coefficients
from .systems import ContinuousSkewSystem, DiscreteSkewMap


def build_test_vector(sorted_eigvecs: np.ndarray, basis: TruncatedBasis, y: float, d: int) -> np.ndarray:
    """Mean of the first d eigenvector fields restricted at base point y, as fiber coefficients."""
    if d < 1 or d > sorted_eigvecs.shape[1]:
        raise ValueError("d out of range for the supplied eigenvectors")
    return restrict_coefficients(sorted_eigvecs[:, :d], basis, y).mean(axis=1)


def discrete_w(transfers: list[np.ndarray], i: int) -> np.ndarray:
    """Cocycle product at integer step i; i=0 gives the identity.

    transfers[m] is the fiber transfer matrix at h^m(y) along a period-n
    orbit, as PeriodicSetup.transfers holds it. Positive i multiplies
    transfers[0], ..., transfers[(i - 1) mod n] left to right; negative i
    multiplies the adjoints of transfers[-1 mod n], transfers[-2 mod n], ...
    """
    n = len(transfers)
    out = np.eye(len(transfers[0]), dtype=complex)
    if i >= 0:
        for k in range(i):
            out = out @ transfers[k % n]
    else:
        for k in range(-1, i - 1, -1):
            out = out @ transfers[k % n].conj().T
    return out


def continuous_w(
    system: ContinuousSkewSystem,
    y: float,
    s: float,
    fiber_basis: TruncatedBasis,
    fiber_grid: Grid,
) -> Callable[[np.ndarray], FieldSample]:
    """The map u -> (w_s u)(y, .) on the fiber grid: u evaluated at the flowed points.

    The flow is computed once, here, by system.fiber_flow (closed form, or
    RK4 at the step rate systems declares). A tensor mode is the product of its
    per-axis factors e^{i k z_d}, so the points-by-modes evaluation matrix
    is never formed: the per-axis factors are built once, and each field
    contracts the coefficients one axis at a time. Every s takes this
    path: fiber_flow at s = 0 returns the nodes exactly, and the grid
    need not resolve the modes, as no transform is taken.
    """
    targets = system.fiber_flow(s, y, fiber_grid.nodes)
    # factors[d][k + K_d, p] = e^{i k z_d} at flowed point p.
    factors = [np.exp(1j * np.outer(np.arange(-k, k + 1), targets[:, d])) for d, k in enumerate(fiber_basis.cutoffs)]
    shape = tuple(2 * k + 1 for k in fiber_basis.cutoffs)

    def apply(u_coeffs: np.ndarray) -> FieldSample:
        # Lexicographic mode order, most significant axis first: the last
        # axis is contracted first.
        t = np.asarray(u_coeffs, dtype=complex).reshape(shape) @ factors[-1]
        for f in reversed(factors[:-1]):
            t = np.einsum("...ap,ap->...p", t, f)
        return FieldSample(fiber_grid, t.reshape(fiber_grid.shape))

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
    fiber_mats = [assemble_fiber_koopman(map_, float(yv), fib, fib_grid) for yv in base_axis]

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
