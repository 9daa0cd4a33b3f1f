"""The benchmark's span tracer installs against the package's current names.

perfbench/tracing.py hooks package functions by name. A rename of one of
them would otherwise show only in a traced benchmark run.
"""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from eigenop import cli, oseledets

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"

# Names the tracer reads that no package function carries any more
# (ROADMAP item 4), and the sum of the writers' spans.
NOT_FUNCTIONS = {"basis.evaluate_at", "spectra.dense_eig", "ioformats.write_frame", "ioformats.write"}


@pytest.fixture
def tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _named_functions(tracing) -> set[str]:
    """Every package function the tracer names: its writers, its stages, the
    span it counts eigenpairs under, and each function its summary reads."""
    names = {f"ioformats.{w}" for w in tracing.WRITERS} | {f"cli.stage_{s}" for s in tracing.STAGES} | {"spectra.eig"}
    for key in tracing.Tracer().summary():
        layer, *rest = key.split(".")
        if layer in tracing.LAYERS and len(rest) == 2:
            names.add(f"{layer}.{rest[0]}")
    return names - NOT_FUNCTIONS


def _resolve(name: str):
    layer, attr = name.split(".")
    return getattr(importlib.import_module(f"eigenop.{layer}"), attr)


def test_the_tracer_installs_and_uninstalls_against_the_package(tracing):
    names = _named_functions(tracing)
    assert {"spectra.eig", "spectra.eig_matrix", "cli.stage_eig", "ioformats.read_matrix"} <= names
    originals = {name: _resolve(name) for name in names}
    stage_funcs = dict(cli.STAGE_FUNCS)
    load_cached = cli.PipelineContext.__dict__["_load_cached"]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        for name, original in originals.items():
            assert _resolve(name).__wrapped__ is original, name
        for stage, func in cli.STAGE_FUNCS.items():
            assert func.__wrapped__ is stage_funcs[stage], stage
        assert cli.PipelineContext.__dict__["_load_cached"].__wrapped__ is load_cached
    finally:
        tracer.uninstall()
    assert {name: _resolve(name) for name in names} == originals
    assert cli.STAGE_FUNCS == stage_funcs
    assert cli.PipelineContext.__dict__["_load_cached"] is load_cached


def test_the_traced_discrete_run_sees_one_periodic_subspaces_call_per_decomposition(tracing, tmp_path, monkeypatch):
    # The tracer hooks periodic_subspaces by name and reads float(args["y"]),
    # and it rewraps PipelineContext._load_cached.
    assert "y" in inspect.signature(oseledets.periodic_subspaces).parameters
    assert callable(cli.PipelineContext.__dict__["_load_cached"])
    built = []
    original = cli.periodic_setup

    def recording(*args):
        setup = original(*args)
        built.append((tracer.invocation, setup.key, setup.y))
        return setup

    monkeypatch.setattr(cli, "periodic_setup", recording)
    configs = [
        {"system": {"name": "torus_translation", "params": {"n": 4, "gtilde": 0.7}}, "truncation": {"cutoffs": [3, 3]}},
        {"system": {"name": "cyclic_group", "params": {"m": 6, "n": 3}}, "truncation": {"cutoffs": [4, 4]}},
    ]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for k, raw in enumerate(configs):
            tracer.invocation = k
            raw["evaluation"] = {"y": 0.5, "i": 1, "y_sample_count": 16}
            cli.run_pipeline(cli.resolve_config(raw), tmp_path / str(k), cli.ALL_STAGES)
    finally:
        tracer.uninstall()
    first: dict = {}
    for k, key, y in built:
        first.setdefault((k, key), (k, y))
    # One call per distinct decomposition of each run, with the y it was first built at.
    assert tracer.summary()["oseledets.periodic_subspaces.calls"] == len(first)
    assert tracer.distinct["base_points"] == set(first.values())
    assert all(isinstance(y, float) for _, y in first.values())
    assert len(built) > len(first) > 2
