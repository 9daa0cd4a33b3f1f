"""Tests for the configuration schema, pipeline stages, and CLI entry."""

import json
from pathlib import Path

import numpy as np
import pytest
from jsonschema.validators import validator_for

from eigenop import cli, oseledets, systems
from eigenop.basis import Grid, TruncatedBasis, evaluation_matrix
from eigenop.cocycle import build_test_vector
from eigenop.ioformats import read_matrix, sha256_of


def _small_rotation_config():
    return {
        "system": {"name": "rotation"},
        "truncation": {"cutoffs": [3, 3]},
        "decomposition": {"d_values": [1], "n_leading": 3},
        "evaluation": {"y": 0.0, "s": 0.1},
    }


def _small_discrete_config():
    return {
        "system": {"name": "torus_translation", "params": {"n": 4, "gtilde": 0.7}},
        "truncation": {"cutoffs": [3, 3]},
        "evaluation": {"y": 0.3, "i": 1, "y_sample_count": 4},
    }


def test_resolve_config_fills_defaults():
    cfg = cli.resolve_config(_small_rotation_config())
    assert cfg["grid"]["multiplier"] == 4
    assert cfg["spectra"]["tol"] == 1e-6
    assert cfg["evaluation"]["steps_per_unit_time"] == 200
    assert cfg["smoothing"] is None
    assert cfg["decomposition"]["n_leading"] == 3


def test_resolve_config_n_leading_defaults_to_max_rank():
    raw = _small_rotation_config()
    raw["decomposition"] = {"d_values": [1, 5], "subspace_rank": 2}
    cfg = cli.resolve_config(raw)
    assert cfg["decomposition"]["n_leading"] == 5


def test_schema_is_a_valid_schema():
    validator_for(cli.SCHEMA).check_schema(cli.SCHEMA)


def test_schema_rejects_unknown_keys():
    raw = _small_rotation_config()
    raw["extra_section"] = {}
    with pytest.raises(cli.ConfigError):
        cli.resolve_config(raw)


def test_schema_rejects_missing_required():
    with pytest.raises(cli.ConfigError):
        cli.resolve_config({"system": {"name": "rotation"}})


def test_schema_rejects_bad_types():
    raw = _small_rotation_config()
    raw["truncation"] = {"cutoffs": ["three"]}
    with pytest.raises(cli.ConfigError):
        cli.resolve_config(raw)


def test_bundled_configs_resolve():
    for name in ("rotation", "gaussian_vortex", "stratospheric", "torus_translation"):
        cfg = cli.bundled_config(name)
        assert cfg["system"]["name"] == name
    with pytest.raises(cli.ConfigError):
        cli.bundled_config("no_such_config")


def test_main_exit_code_on_schema_violation(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"system": {"name": "rotation"}, "truncation": {}, "unknown": 1}))
    code = cli.main(["assemble", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SCHEMA
    assert "config error" in capsys.readouterr().err


def test_main_exit_code_on_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["all", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SCHEMA


def test_main_exit_code_on_wrong_cutoff_count(tmp_path):
    raw = _small_rotation_config()
    raw["truncation"] = {"cutoffs": [3, 3, 3]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = cli.main(["assemble", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SCHEMA


def test_full_continuous_pipeline(tmp_path):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    manifest = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert manifest["config_sha256"] == sha256_of(cfg)
    assert (out / "manifest.json").exists()
    assert (out / "generator.matrix.json").exists()
    assert (out / "spectrum.json").exists()
    assert (out / "subspace_d1.matrix.json").exists()
    assert (out / "eigenoperator_spectrum.json").exists()
    # One-dimensional fiber: the field stage notes the skip.
    assert any("cocycle-field skipped" in note for note in manifest["notes"])
    doc = json.loads((out / "eigenoperator_spectrum.json").read_text())
    assert doc["max_abs_real_part"] < 1e-8


def test_pipeline_reruns_are_byte_identical(tmp_path):
    cfg = cli.resolve_config(_small_rotation_config())
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cli.run_pipeline(cfg, out_a, cli.ALL_STAGES)
    cli.run_pipeline(cfg, out_b, cli.ALL_STAGES)
    for path_a in sorted(out_a.iterdir()):
        path_b = out_b / path_a.name
        assert path_a.read_bytes() == path_b.read_bytes(), path_a.name


def test_manifest_has_no_timestamps(tmp_path):
    cfg = cli.resolve_config(_small_rotation_config())
    manifest = cli.run_pipeline(cfg, tmp_path / "run", ("assemble",))
    text = json.dumps(manifest)
    assert "timestamp" not in text and "created" not in text and "date" not in text


def _count_assembly(monkeypatch) -> list:
    calls = []
    original = cli.assemble_generator

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(cli, "assemble_generator", counting)
    return calls


def test_cached_generator_is_reused(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, ("assemble",))
    first = read_matrix(out / "generator.matrix.json")
    # A second context over the same directory must load the matrix, and
    # its meta, from disk instead of reassembling it.
    calls = _count_assembly(monkeypatch)
    ctx = cli.PipelineContext(cfg, out)
    assert ctx.generator_matrix.meta == first["meta"]
    assert np.array_equal(ctx.generator_matrix.entries, first["entries"])
    assert calls == []


def test_cache_ignored_when_config_changes(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, ("assemble",))
    other = cli.resolve_config(_small_rotation_config())
    other["evaluation"]["y"] = 1.0
    calls = _count_assembly(monkeypatch)
    ctx = cli.PipelineContext(other, out)
    assert ctx.generator_matrix.meta.get("cached") is None
    assert len(calls) == 1


def test_rerun_into_same_directory_reproduces_every_artifact(tmp_path):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    first = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    second = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert "generator.matrix.json" in first["outputs"]
    assert second["outputs"] == first["outputs"]


def _small_vortex_config():
    return {
        "system": {"name": "gaussian_vortex", "params": {"kappa": 0.5}},
        "truncation": {"cutoffs": [2, 2, 2]},
        "smoothing": {"tau": 0.1, "p": 0.1},
        "decomposition": {"d_values": [1, 2], "subspace_rank": 1, "n_leading": 4},
        "evaluation": {"y": 0.4, "s": 0.1, "field_grid": [16, 16], "steps_per_unit_time": 200},
    }


def _count_flows(monkeypatch) -> list:
    calls = []
    original = systems.flow_fiber

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(systems, "flow_fiber", counting)
    return calls


def test_cocycle_fields_match_a_flow_per_d(tmp_path):
    cfg = cli.resolve_config(_small_vortex_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    # Reference: flow the grid and evaluate the projected test vector
    # separately for each d.
    system = systems.make_system("gaussian_vortex", kappa=0.5)
    basis = TruncatedBasis((2, 2, 2), ("base", "fiber", "fiber"))
    fib = basis.fiber_subbasis()
    vecs = read_matrix(out / "leading_vectors.matrix.json")["entries"]
    y, s = 0.4, 0.1
    ystar = float(np.mod(system.base_flow(s, np.asarray(y)), 2 * np.pi))
    nodes = Grid((16, 16)).nodes
    for d in (1, 2):
        q = build_test_vector(vecs, basis, y, d).coeffs
        sub = oseledets.restrict_at_base(vecs, basis, ystar, d)
        targets = systems.flow_fiber(system, y, nodes, s, steps=20)  # round(s * steps_per_unit_time)
        expected = evaluation_matrix(fib, targets) @ (sub.projection @ q)
        table = np.loadtxt(out / f"field_d{d}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, :2], nodes)
        assert np.max(np.abs(table[:, 2] + 1j * table[:, 3] - expected)) <= 1e-13 * np.max(np.abs(expected))


def test_cocycle_field_stage_flows_once(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_vortex_config())
    out = tmp_path / "run"
    calls = _count_flows(monkeypatch)
    cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert len(calls) == 1
    cli.run_pipeline(cfg, out, ("cocycle-field",))
    assert len(calls) == 2


def test_discrete_pipeline_stages(tmp_path):
    cfg = cli.resolve_config(_small_discrete_config())
    out = tmp_path / "run"
    manifest = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert (out / "bins.json").exists()
    bins = json.loads((out / "bins.json").read_text())
    assert len(bins["orbit"]) == 4
    assert max(bins["equivariance_residuals"]) < 1e-10
    assert (out / "eigenoperator_spectrum.json").exists()
    assert any("assemble skipped" in note for note in manifest["notes"])


def test_discrete_pipeline_sets_up_once_per_base_point(tmp_path, monkeypatch):
    calls = []
    original = oseledets.periodic_subspaces

    def counting(map_, y, fiber_koopmans, bins):
        calls.append(y)
        return original(map_, y, fiber_koopmans, bins)

    monkeypatch.setattr(oseledets, "periodic_subspaces", counting)
    raw = _small_discrete_config()
    raw["evaluation"]["y_sample_count"] = 8
    cli.run_pipeline(cli.resolve_config(raw), tmp_path / "run", cli.ALL_STAGES)
    # The evaluation point once, shared by two stages, plus one per sample.
    assert 0 < len(calls) <= 9


def test_main_runs_single_stage(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_rotation_config()))
    out = tmp_path / "out"
    code = cli.main(["assemble", "--config", str(path), "--out", str(out)])
    assert code == 0
    assert (out / "generator.matrix.json").exists()
    assert "wrote" in capsys.readouterr().out


def test_main_rejects_removed_threads_flag(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_rotation_config()))
    with pytest.raises(SystemExit) as info:
        cli.main(["all", "--config", str(path), "--out", str(tmp_path / "out"), "--threads", "2"])
    assert info.value.code == 2


def test_eigenop_stage_surfaces_numerical_failures(tmp_path, monkeypatch):
    def fail(*args, **kwargs):
        raise np.linalg.LinAlgError("singular")

    monkeypatch.setattr(cli, "discrete_eigenoperator_spectrum", fail)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_discrete_config()))
    code = cli.main(["all", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_NUMERICAL
