"""Skew-product system registry: continuous flows and discrete maps.

The base coordinate y lives on a single circle and drives the fiber z,
which is either a torus (one or two circles) or a finite cyclic group.
Continuous systems carry analytic velocity fields; discrete maps carry a
base rotation of finite period and a fiber translation.
"""

from __future__ import annotations

import numbers
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

TWO_PI = 2.0 * np.pi

# RK4 steps per unit of flow time, for a fiber flow with no closed form.
RK4_STEPS_PER_UNIT_TIME = 200


class IntegrationError(RuntimeError):
    """Non-finite state encountered during flow integration."""


@dataclass(frozen=True)
class ContinuousSkewSystem:
    """Skew flow dy/dt = base_velocity(y), dz/dt = fiber_velocity(y, z)."""

    name: str
    fiber_dim: int
    base_velocity: Callable[[np.ndarray], np.ndarray]
    fiber_velocity: Callable[[np.ndarray, np.ndarray], np.ndarray]
    closed_form_base_flow: Callable[[float, np.ndarray], np.ndarray]
    closed_form_fiber_flow: Optional[Callable[[float, np.ndarray, np.ndarray], np.ndarray]] = None
    parameters: dict = field(default_factory=dict)

    def base_flow(self, s: float, y):
        """Time-s base flow, in closed form."""
        return self.closed_form_base_flow(s, y)

    def advanced_base_point(self, s: float, y: float) -> float:
        """h_s(y), the time-s base flow of one point, wrapped to [0, 2pi)."""
        return float(np.mod(self.base_flow(s, np.asarray(float(y))), TWO_PI))

    def fiber_flow(self, s: float, y: float, z) -> np.ndarray:
        """Fiber points z, shape (n, fiber_dim), moved by the time-s flow from base point y.

        Closed form when available, else RK4 with
        round(|s| * RK4_STEPS_PER_UNIT_TIME) steps, at least one.
        """
        if self.closed_form_fiber_flow is not None:
            return np.atleast_2d(self.closed_form_fiber_flow(float(s), float(y), z))
        steps = max(1, int(round(abs(s) * RK4_STEPS_PER_UNIT_TIME)))
        return np.atleast_2d(flow_fiber(self, float(y), z, float(s), steps=steps))


@dataclass(frozen=True)
class DiscreteSkewMap:
    """Skew map T(y, z) = (h(y), g(y, z)) with periodic base rotation."""

    name: str
    fiber_kind: str  # "torus" | "cyclic"
    base_map: Callable[[np.ndarray], np.ndarray]
    fiber_map: Callable[[float, np.ndarray], np.ndarray]
    base_period: int
    fiber_size: Optional[int] = None  # cyclic only
    parameters: dict = field(default_factory=dict)

    def base_orbit(self, y: float) -> list[float]:
        """y, h(y), ..., h^{n-1}(y) for the base period n."""
        orbit = [float(y)]
        for _ in range(self.base_period - 1):
            orbit.append(float(self.base_map(orbit[-1])))
        return orbit


def fiber_velocity_from_stream(partials):
    """Velocity (-dz2 ζ, dz1 ζ) from analytic stream-function partials.

    partials takes (y, z) with z of shape (..., 2) and returns the pair
    (dz1 ζ, dz2 ζ), each of shape (...), so that factors the two share
    are evaluated once per call.
    """

    def velocity(y, z):
        dz1, dz2 = partials(y, np.asarray(z, dtype=float))
        return np.stack([-dz2, dz1], axis=-1)

    return velocity


def flow_fiber(system: ContinuousSkewSystem, y: float, z, s: float, steps: int):
    """Fiber component of the time-s flow by fixed-step RK4 on coupled (y, z).

    z may be a single point (fiber_dim,) or a batch (n, fiber_dim) sharing
    the same base point.
    """
    if steps < 1:
        raise ValueError("steps must be >= 1")
    z = np.asarray(z, dtype=float)
    single = z.ndim == 1
    zb = np.atleast_2d(z).copy()
    yv = float(y)
    h = s / steps

    def rhs(yc, zc):
        return float(system.base_velocity(np.asarray(yc))), system.fiber_velocity(yc, zc)

    # An overflowing state fails the finiteness check: one error, not a warning per operation.
    with np.errstate(all="ignore"):
        for _ in range(steps):
            ky1, kz1 = rhs(yv, zb)
            ky2, kz2 = rhs(yv + 0.5 * h * ky1, zb + 0.5 * h * kz1)
            ky3, kz3 = rhs(yv + 0.5 * h * ky2, zb + 0.5 * h * kz2)
            ky4, kz4 = rhs(yv + h * ky3, zb + h * kz3)
            yv = yv + (h / 6.0) * (ky1 + 2 * ky2 + 2 * ky3 + ky4)
            zb = zb + (h / 6.0) * (kz1 + 2 * kz2 + 2 * kz3 + kz4)
            if not np.all(np.isfinite(zb)):
                raise IntegrationError(f"non-finite fiber state in {system.name} flow")
    return zb[0] if single else zb


# ---------------------------------------------------------------------------
# continuous built-ins


def _check_real(**values):
    # A comparison, not a float conversion, so that an int beyond the float range fails too.
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real) or not abs(value) <= sys.float_info.max:
            raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _unit_base_velocity(y):
    return np.ones_like(np.asarray(y, dtype=float))


def _unit_base_flow(s, y):
    return np.asarray(y, dtype=float) + s


def make_rotation(alpha: float = 0.7, beta: float = 0.5) -> ContinuousSkewSystem:
    """dy/dt = 1, dz/dt = alpha*(1 + beta*cos y) on T x T, with closed flows."""
    _check_real(alpha=alpha, beta=beta)

    def fiber_velocity(y, z):
        z = np.asarray(z, dtype=float)
        v = alpha * (1.0 + beta * np.cos(y))
        return np.broadcast_to(np.asarray(v)[..., None], z.shape).copy()

    def fiber_flow(s, y, z):
        shift = alpha * (s + beta * (np.sin(y + s) - np.sin(y)))
        return np.asarray(z, dtype=float) + shift

    return ContinuousSkewSystem(
        name="rotation",
        fiber_dim=1,
        base_velocity=_unit_base_velocity,
        fiber_velocity=fiber_velocity,
        closed_form_base_flow=_unit_base_flow,
        closed_form_fiber_flow=fiber_flow,
        parameters={"alpha": alpha, "beta": beta},
    )


def make_gaussian_vortex(kappa: float = 0.5) -> ContinuousSkewSystem:
    """Moving vortex on T x T^2 with stream function exp(kappa*(cos(z1-y)+cos z2))."""
    _check_real(kappa=kappa)

    def partials(y, z):
        stream = np.exp(kappa * (np.cos(z[..., 0] - y) + np.cos(z[..., 1])))
        return -kappa * np.sin(z[..., 0] - y) * stream, -kappa * np.sin(z[..., 1]) * stream

    return ContinuousSkewSystem(
        name="gaussian_vortex",
        fiber_dim=2,
        base_velocity=_unit_base_velocity,
        fiber_velocity=fiber_velocity_from_stream(partials),
        closed_form_base_flow=_unit_base_flow,
        parameters={"kappa": kappa},
    )


STRATOSPHERIC_DEFAULTS = {
    "L": 0.1,
    "A": (0.075, 0.4, 0.2),
    "k": (1.0, 2.0, 3.0),
    "U0": 62.66,
    "c3": 0.7 * 62.66,
    # The wave speeds sigma are configurable; sigma2 = -1 is fixed by the
    # reference setup, sigma1 defaults to 2*sigma2 and sigma3 to 0.
    "sigma": (-2.0, -1.0, 0.0),
}


def make_stratospheric(**overrides) -> ContinuousSkewSystem:
    """Traveling-wave jet on T x (T x [-pi, pi]); the strip is treated as a
    2pi-periodic circle (the sech^2 profile is negligible at +-pi)."""
    unknown = sorted(set(overrides) - set(STRATOSPHERIC_DEFAULTS))
    if unknown:
        raise ValueError(f"unknown stratospheric parameters: {', '.join(unknown)}")
    params = dict(STRATOSPHERIC_DEFAULTS)
    params.update(overrides)
    _check_real(L=params["L"], U0=params["U0"], c3=params["c3"])
    for name in ("A", "k", "sigma"):
        if np.shape(params[name]) != (3,):
            raise ValueError(f"stratospheric parameter {name} needs 3 values, one per wave, got {params[name]!r}")
        _check_real(**{f"{name}[{i}]": value for i, value in enumerate(params[name])})
    L = params["L"]
    A = tuple(params["A"])
    kk = tuple(params["k"])
    U0 = params["U0"]
    c3 = params["c3"]
    sigma = tuple(params["sigma"])

    def partials(y, z):
        z1, z2 = z[..., 0], z[..., 1]
        jet = z2 / L
        sech2 = 1.0 / np.cosh(jet) ** 2
        tanh = np.tanh(jet)
        dz1 = np.zeros_like(z1)
        dz2 = c3 - U0 * sech2
        for Ai, ki, si in zip(A, kk, sigma):
            phase = ki * z1 - si * y
            dz1 = dz1 - Ai * U0 * L * sech2 * ki * np.sin(phase)
            dz2 = dz2 - 2.0 * Ai * U0 * sech2 * tanh * np.cos(phase)
        return dz1, dz2

    return ContinuousSkewSystem(
        name="stratospheric",
        fiber_dim=2,
        base_velocity=_unit_base_velocity,
        fiber_velocity=fiber_velocity_from_stream(partials),
        closed_form_base_flow=_unit_base_flow,
        parameters=params,
    )


# ---------------------------------------------------------------------------
# discrete built-ins


def _check_positive_int(name: str, value):
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _step_gtilde(values, breaks):
    """Piecewise-constant function of y on [0, 2pi): values[i] on
    [breaks[i], breaks[i+1])."""
    values = list(values)
    breaks = list(breaks)

    def gtilde(y):
        y = float(np.mod(y, TWO_PI))
        for i in range(len(values) - 1, -1, -1):
            if y >= breaks[i]:
                return values[i]
        return values[0]

    return gtilde


def make_torus_translation(n: int = 4, gtilde=0.7) -> DiscreteSkewMap:
    """h(y) = y + 2pi/n, g(y, z) = z + gtilde(y) on the circle fiber.

    gtilde is a function of y or a constant real shift.
    """
    _check_positive_int("n", n)
    if np.isscalar(gtilde):
        shift = float(gtilde)
        gtilde = lambda y: shift
    elif not callable(gtilde):
        raise TypeError(f"gtilde must be a number or a function of y, got {gtilde!r}")

    def h(y):
        return np.mod(np.asarray(y, dtype=float) + TWO_PI / n, TWO_PI)

    def g(y, z):
        return np.mod(np.asarray(z, dtype=float) + gtilde(y), TWO_PI)

    return DiscreteSkewMap(
        name="torus_translation",
        fiber_kind="torus",
        base_map=h,
        fiber_map=g,
        base_period=n,
        parameters={"n": n},
    )


def make_cyclic_group(m: int = 6, n: int = 3, gtilde=None) -> DiscreteSkewMap:
    """Fiber Z_m, g(y, z) = z + gtilde(y) mod m, periodic base of period n.

    gtilde defaults to an integer-valued two-step function of y.
    """
    _check_positive_int("m", m)
    _check_positive_int("n", n)
    if gtilde is None:
        gtilde = _step_gtilde([1, 2], [0.0, np.pi])
    elif np.isscalar(gtilde):
        val = int(gtilde)
        gtilde = lambda y: val
    elif not callable(gtilde):
        raise TypeError(f"gtilde must be a number or a function of y, got {gtilde!r}")

    def h(y):
        return np.mod(np.asarray(y, dtype=float) + TWO_PI / n, TWO_PI)

    def g(y, z):
        return np.mod(np.asarray(z) + int(gtilde(y)), m)

    return DiscreteSkewMap(
        name="cyclic_group",
        fiber_kind="cyclic",
        base_map=h,
        fiber_map=g,
        base_period=n,
        fiber_size=m,
        parameters={"m": m, "n": n},
    )


CONTINUOUS_BUILTINS = {
    "rotation": make_rotation,
    "gaussian_vortex": make_gaussian_vortex,
    "stratospheric": make_stratospheric,
}

DISCRETE_BUILTINS = {
    "torus_translation": make_torus_translation,
    "cyclic_group": make_cyclic_group,
}


def make_system(name: str, **params):
    if name in CONTINUOUS_BUILTINS:
        return CONTINUOUS_BUILTINS[name](**params)
    if name in DISCRETE_BUILTINS:
        return DISCRETE_BUILTINS[name](**params)
    raise KeyError(f"unknown system '{name}'")


# ---------------------------------------------------------------------------
# diagnostics


def _divergence_residual(system: ContinuousSkewSystem, y, z, eps=1e-5) -> float:
    z = np.asarray(z, dtype=float)
    div = 0.0
    for d in range(system.fiber_dim):
        zp = z.copy()
        zm = z.copy()
        zp[d] += eps
        zm[d] -= eps
        vp = system.fiber_velocity(y, zp[None, :])[0, d]
        vm = system.fiber_velocity(y, zm[None, :])[0, d]
        div += (vp - vm) / (2 * eps)
    return abs(float(div))


def validate_system(system) -> dict:
    """Report-only consistency checks; never raises on failure."""
    rng = np.random.default_rng(0)
    checks = []

    def record(name, residual, tol):
        checks.append(
            {"name": name, "residual": float(residual), "tolerance": tol, "passed": bool(residual <= tol)}
        )

    if isinstance(system, ContinuousSkewSystem):
        worst = 0.0
        for _ in range(10):
            y = rng.uniform(0, TWO_PI)
            z = rng.uniform(0, TWO_PI, size=system.fiber_dim)
            worst = max(worst, _divergence_residual(system, y, z))
        record("fiber_divergence_free", worst, 1e-6)

        if system.closed_form_fiber_flow is not None:
            worst = 0.0
            for _ in range(5):
                y = rng.uniform(0, TWO_PI)
                z = rng.uniform(0, TWO_PI, size=system.fiber_dim)
                s = 0.3
                numeric = flow_fiber(system, y, z, s, steps=400)
                exact = system.closed_form_fiber_flow(s, y, np.asarray(z))
                worst = max(worst, float(np.max(np.abs(numeric - exact))))
            record("closed_form_flow_agreement", worst, 1e-9)
    elif isinstance(system, DiscreteSkewMap):
        y0 = rng.uniform(0, TWO_PI)
        y = y0
        for _ in range(system.base_period):
            y = float(system.base_map(y))
        res = min(abs(y - y0), TWO_PI - abs(y - y0))
        record("base_period", res, 1e-12)
    report = {"system": system.name, "checks": checks, "all_passed": all(c["passed"] for c in checks)}
    return report
