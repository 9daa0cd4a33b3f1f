"""End-to-end acceptance gate: every closed-form criterion must pass.

Runs the full check suite once and prints one line per criterion with
capture disabled, so the pass/fail status of each is always visible in
the test output.
"""

import pytest

from eigenop import cocycle, generator, oseledets, validation
from eigenop.systems import make_torus_translation


@pytest.fixture(scope="module")
def summary(request):
    capmanager = request.config.pluginmanager.getplugin("capturemanager")
    if capmanager is not None:
        with capmanager.global_and_fixture_disabled():
            print()
            return validation.run_all()
    return validation.run_all()


@pytest.mark.parametrize("cid", range(1, 13))
def test_criterion(summary, cid):
    res = next(r for r in summary["results"] if r["id"] == cid)
    assert res["passed"], f"criterion {cid} ({res['name']}): {res['detail']}"


def test_all_criteria_pass(summary):
    assert summary["all_passed"]


def test_every_check_reports_seconds(summary):
    for res in summary["results"]:
        assert isinstance(res["seconds"], float) and res["seconds"] >= 0.0, res["id"]


def test_decomposition_identity_assembles_each_orbit_transfer_once(monkeypatch):
    # The cocycle and the multiplier read the torus setup's transfers, so
    # the only assemblies are the setup's own, one per orbit point.
    calls = []
    original = generator.assemble_fiber_koopman

    def counting(map_, y, *args):
        calls.append(y)
        return original(map_, y, *args)

    for module in (generator, oseledets, cocycle):
        monkeypatch.setattr(module, "assemble_fiber_koopman", counting)
    assert validation.check_decomposition_identity()["passed"]
    assert calls == make_torus_translation(4).base_orbit(0.3)
