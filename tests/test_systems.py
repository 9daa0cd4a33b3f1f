"""Tests for the built-in skew systems and flow integration."""

import numpy as np
import pytest
from dataclasses import replace

from eigenop.basis import TruncatedBasis, default_grid
from eigenop.cocycle import discrete_w
from eigenop.generator import assemble_fiber_koopman
from eigenop.systems import (
    ContinuousSkewSystem,
    DiscreteSkewMap,
    IntegrationError,
    fiber_velocity_from_stream,
    flow_fiber,
    make_cyclic_group,
    make_gaussian_vortex,
    make_rotation,
    make_stratospheric,
    make_system,
    make_torus_translation,
)

TWO_PI = 2.0 * np.pi


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


def test_rotation_closed_form_flows():
    sys_ = make_rotation(0.7, 0.5)
    y, z, s = 1.1, np.array([0.4]), 0.9
    assert sys_.base_flow(s, np.asarray(y)) == pytest.approx(y + s)
    expected = z + 0.7 * (s + 0.5 * (np.sin(y + s) - np.sin(y)))
    got = sys_.closed_form_fiber_flow(s, y, z)
    assert np.allclose(got, expected)


def test_rotation_numeric_flow_matches_closed_form():
    sys_ = make_rotation(0.7, 0.5)
    y, z, s = 0.3, np.array([1.2]), 0.7
    numeric = flow_fiber(sys_, y, z, s, steps=400)
    exact = sys_.closed_form_fiber_flow(s, y, z)
    assert np.max(np.abs(numeric - exact)) < 1e-11


def test_flow_fiber_fourth_order_convergence():
    # Halving the step should shrink the error by roughly 2^4.
    sys_ = replace(make_rotation(0.7, 0.5), closed_form_fiber_flow=None)
    exact = make_rotation(0.7, 0.5).closed_form_fiber_flow(1.0, 0.2, np.array([0.5]))
    e_coarse = np.max(np.abs(flow_fiber(sys_, 0.2, np.array([0.5]), 1.0, steps=4) - exact))
    e_fine = np.max(np.abs(flow_fiber(sys_, 0.2, np.array([0.5]), 1.0, steps=8) - exact))
    assert e_fine < e_coarse / 10.0


def test_stream_function_velocities_are_divergence_free():
    rng = np.random.default_rng(0)
    for sys_ in (make_gaussian_vortex(), make_stratospheric()):
        report = validate_system(sys_)
        names = {c["name"]: c for c in report["checks"]}
        assert names["fiber_divergence_free"]["passed"], report


def test_validate_system_flags_broken_stream_pair():
    # A sign error in one partial destroys incompressibility.
    good = make_gaussian_vortex()

    def bad_partials(y, z):
        return np.cos(z[..., 0] - y), np.cos(z[..., 0] - y) * z[..., 1]

    broken = replace(good, fiber_velocity=fiber_velocity_from_stream(bad_partials))
    report = validate_system(broken)
    names = {c["name"]: c for c in report["checks"]}
    assert not names["fiber_divergence_free"]["passed"]


def test_validate_rotation_closed_form_agreement():
    report = validate_system(make_rotation())
    assert report["all_passed"], report


def test_flow_fiber_raises_on_divergent_state():
    blow_up = ContinuousSkewSystem(
        name="blowup",
        fiber_dim=1,
        base_velocity=lambda y: np.ones_like(np.asarray(y, dtype=float)),
        fiber_velocity=lambda y, z: np.asarray(z, dtype=float) ** 3,
        closed_form_base_flow=lambda s, y: np.asarray(y, dtype=float) + s,
    )
    with pytest.raises(IntegrationError):
        flow_fiber(blow_up, 0.0, np.array([50.0]), 10.0, steps=50)


def test_flow_fiber_batched_matches_single():
    sys_ = make_gaussian_vortex()
    zs = np.array([[0.1, 0.2], [1.0, 2.0]])
    batch = flow_fiber(sys_, 0.5, zs, 0.3, steps=60)
    for row in range(2):
        single = flow_fiber(sys_, 0.5, zs[row], 0.3, steps=60)
        assert np.allclose(batch[row], single, atol=1e-12)


def test_stratospheric_parameters():
    sys_ = make_stratospheric()
    p = sys_.parameters
    assert p["L"] == pytest.approx(0.1)
    assert p["A"] == (0.075, 0.4, 0.2)
    assert p["c3"] == pytest.approx(0.7 * 62.66)
    assert p["sigma"] == (-2.0, -1.0, 0.0)


@pytest.mark.parametrize(
    "make, name",
    [
        (make_rotation, "alpha"),
        (make_rotation, "beta"),
        (make_gaussian_vortex, "kappa"),
        (make_stratospheric, "L"),
        (make_stratospheric, "U0"),
        (make_stratospheric, "c3"),
    ],
    ids=["alpha", "beta", "kappa", "L", "U0", "c3"],
)
@pytest.mark.parametrize("value", ["x", True, None, float("nan"), 10**400], ids=["str", "bool", "none", "nan", "huge"])
def test_continuous_parameters_must_be_finite_real_numbers(make, name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a finite real number"):
        make(**{name: value})


@pytest.mark.parametrize("key", ["A", "k", "sigma"])
def test_stratospheric_wave_entries_must_be_finite_real_numbers(key):
    values = list(make_stratospheric().parameters[key])
    values[1] = "x"
    with pytest.raises(ValueError, match=rf"^{key}\[1\] must be a finite real number, got 'x'"):
        make_stratospheric(**{key: values})


def test_torus_translation_orbit_and_period():
    map_ = make_torus_translation(4)
    orbit = map_.base_orbit(0.3)
    assert len(orbit) == 4
    assert orbit[1] == pytest.approx(0.3 + TWO_PI / 4)
    back = orbit[0]
    for _ in range(4):
        back = float(map_.base_map(back))
    assert back == pytest.approx(0.3, abs=1e-12)


def test_negative_iterate_uses_period():
    # One step back from y is the last step of the period-n orbit: w_{-1}(y) = T_{n-1}^H.
    map_ = make_torus_translation(4, gtilde=lambda y: 0.7 + 0.3 * np.sin(y))
    fib = TruncatedBasis((2,), ("fiber",))
    fgrid = default_grid(fib)
    transfers = [assemble_fiber_koopman(map_, w, fib, fgrid) for w in map_.base_orbit(0.3)]
    assert np.array_equal(discrete_w(transfers, -1), transfers[3].conj().T)


def test_cyclic_group_fiber_map_is_mod_m():
    map_ = make_cyclic_group(6, 3)
    # Default step function: shift 1 below pi, shift 2 at and above pi.
    assert int(map_.fiber_map(0.5, 5)) == 0
    assert int(map_.fiber_map(4.0, 5)) == 1


def test_make_system_registry():
    assert isinstance(make_system("rotation"), ContinuousSkewSystem)
    assert isinstance(make_system("cyclic_group"), DiscreteSkewMap)
    with pytest.raises(KeyError):
        make_system("unknown")


def test_validate_discrete_base_period():
    report = validate_system(make_cyclic_group(6, 3))
    assert report["all_passed"], report
