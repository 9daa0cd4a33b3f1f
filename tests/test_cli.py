"""Tests for the configuration schema, pipeline stages, and CLI entry."""

import argparse
import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from eigenop import cli, eigenoperator, ioformats, oseledets, systems
from eigenop.basis import FieldSample, Grid, TruncatedBasis, evaluation_matrix
from eigenop.cocycle import build_test_vector
from eigenop.ioformats import read_matrix, sha256_of, write_matrix
from eigenop.spectra import COUPLING_RTOL, eig_matrix


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
    assert cfg["smoothing"] is None
    assert cfg["decomposition"]["n_leading"] == 3


def test_resolve_config_n_leading_defaults_to_max_rank():
    raw = _small_rotation_config()
    raw["decomposition"] = {"d_values": [1, 5], "subspace_rank": 2}
    cfg = cli.resolve_config(raw)
    assert cfg["decomposition"]["n_leading"] == 5


def test_resolved_key_tree_is_the_schema_property_tree():
    minimal = {"system": {"name": "rotation"}, "truncation": {"cutoffs": [3, 3]}}
    smoothed = {**minimal, "smoothing": {"tau": 0.1, "p": 0.1}}
    for raw in (minimal, smoothed):
        cfg = cli.resolve_config(raw)
        assert list(cfg) == list(cli.SCHEMA)
        for section, keys in cli.SCHEMA.items():
            if cfg[section] is not None:
                assert list(cfg[section]) == list(keys), section
    cfg = cli.resolve_config(minimal)
    assert cfg["smoothing"] is None and cfg["grid"]["points"] is None
    assert cfg["evaluation"]["field_grid"] == [128, 128]
    # Every absent key resolves to its declared default, n_leading to its rule.
    for section, keys in cli.SCHEMA.items():
        for key, (_, _, default) in keys.items():
            if default is not cli.REQUIRED and (section, key) != ("decomposition", "n_leading"):
                assert cfg[section][key] == default and type(cfg[section][key]) is type(default), (section, key)
    assert cfg["decomposition"]["n_leading"] == 1
    # Defaults are copied, never shared with the table.
    cfg["evaluation"]["field_grid"].append(4)
    cfg["system"]["params"]["alpha"] = 0.5
    again = cli.resolve_config(minimal)
    assert again["evaluation"]["field_grid"] == [128, 128] and again["system"]["params"] == {}
    # The raw config is copied too.
    raw = {**minimal, "evaluation": {"y": 0.1, "s": 0.2}}
    resolved = cli.resolve_config(raw)
    resolved["truncation"]["cutoffs"].append(3)
    assert raw["truncation"]["cutoffs"] == [3, 3]


# Small evaluation settings of the keys each registered system reads.
SMALL_EVALUATION = {
    "cyclic_group": {"y_sample_count": 4},
    "torus_translation": {"y_sample_count": 4},
    "rotation": {},
    "gaussian_vortex": {"field_grid": [8, 8]},
    "stratospheric": {"field_grid": [8, 8]},
}


def _minimal_config(name):
    """A small config of the named system that sets only keys the system reads."""
    fiber_dim = getattr(systems.make_system(name), "fiber_dim", 1)
    return {
        "system": {"name": name},
        "truncation": {"cutoffs": [2] * (1 + fiber_dim)},
        "evaluation": dict(SMALL_EVALUATION[name]),
    }


# Keys that are no longer settable; each exits 2 for every system. Their
# values are the ones they once defaulted to.
REMOVED_KEYS = {
    "output": ("output", {"formats": ["csv", "ppm"]}, "'output'"),
    "steps": ("evaluation", {"steps_per_unit_time": 200}, "at evaluation: 'steps_per_unit_time'"),
}


@pytest.mark.parametrize(
    "name, section, entry, named",
    [
        ("rotation", "decomposition", {"bin_count": 2}, "'bin_count'"),
        ("torus_translation", "smoothing", {"tau": 0.1, "p": 0.1}, "'smoothing'"),
        ("torus_translation", "spectra", {"tol": 1e-3}, "'spectra'"),
        ("torus_translation", "grid", {"points": [9, 9]}, "at grid: 'points'"),
        ("torus_translation", "evaluation", {"s": 0.1}, "at evaluation: 's'"),
        ("cyclic_group", "grid", {"multiplier": 9}, "'grid'"),
        ("cyclic_group", "decomposition", {"d_values": [1]}, "'decomposition'"),
        ("rotation", "evaluation", {"field_grid": [8, 8]}, "at evaluation: 'field_grid'"),
        ("gaussian_vortex", "evaluation", {"i": 1}, "at evaluation: 'i'"),
        ("stratospheric", "evaluation", {"y_sample_count": 4}, "at evaluation: 'y_sample_count'"),
        ("gaussian_vortex", "smoothing", {"tau": 0.1, "p": 0.1, "rule": "power_law"}, "'rule'"),
        ("stratospheric", "smoothing", {"tau": 0.1, "p": 0.1, "symmetric": False}, "'symmetric'"),
        ("rotation", "spectra", {"sort_target": [1e-10, 0.0]}, "'sort_target'"),
        *[(name, *removed) for name in SMALL_EVALUATION for removed in REMOVED_KEYS.values()],
    ],
    ids=[
        "bin_count",
        "torus-smoothing",
        "torus-spectra",
        "torus-grid-points",
        "torus-s",
        "cyclic-grid",
        "cyclic-decomposition",
        "rotation-field_grid",
        "vortex-i",
        "stratospheric-y_sample_count",
        "smoothing-rule",
        "smoothing-symmetric",
        "spectra-sort_target",
        *[f"{name}-{key}" for name in SMALL_EVALUATION for key in REMOVED_KEYS],
    ],
)
def test_main_exit_code_on_keys_nothing_reads(name, section, entry, named, tmp_path, capsys):
    raw = _minimal_config(name)
    cli.resolve_config(raw)  # valid without the entry
    raw.setdefault(section, {}).update(entry)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert named in err and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


def test_every_registered_system_is_matched_by_exactly_one_key_rule():
    # No system is registered but unreachable, and no rule names a system that is not registered.
    assert set(cli.READS) == set(systems.CONTINUOUS_BUILTINS) | set(systems.DISCRETE_BUILTINS)
    for name, reads in cli.READS.items():
        assert set(reads) <= set(cli.SCHEMA), name
        for section, keys in reads.items():
            assert keys and set(keys) <= set(cli.SCHEMA[section]), (name, section)
        # Every system reads its name and cutoffs, and a minimal config of it resolves.
        assert {"name", "params"} <= set(reads["system"]) and "cutoffs" in reads["truncation"], name
        assert cli.resolve_config(_minimal_config(name))["system"]["name"] == name


def test_an_unregistered_system_name_names_the_key_and_the_registered_systems(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"system": {"name": "nope"}, "truncation": {"cutoffs": [2, 2]}}))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert "at system.name: 'nope' is not a registered system" in err and err.count("\n") == 1
    assert all(name in err for name in (*systems.CONTINUOUS_BUILTINS, *systems.DISCRETE_BUILTINS))
    assert not out.exists()


# Each integer key with an integral float, set in a small config of a system that reads it.
INTEGRAL_FLOATS = {
    "cutoffs": ("rotation", "truncation", {"cutoffs": [3.0, 3]}, "truncation.cutoffs.0"),
    "multiplier": ("rotation", "grid", {"multiplier": 4.0}, "grid.multiplier"),
    "points": ("rotation", "grid", {"points": [9, 9.0]}, "grid.points.1"),
    "d_values": ("rotation", "decomposition", {"d_values": [1.0]}, "decomposition.d_values.0"),
    "subspace_rank": ("rotation", "decomposition", {"subspace_rank": 1.0}, "decomposition.subspace_rank"),
    "n_leading": ("rotation", "decomposition", {"n_leading": 3.0}, "decomposition.n_leading"),
    "i": ("torus_translation", "evaluation", {"i": 1.0}, "evaluation.i"),
    "y_sample_count": ("torus_translation", "evaluation", {"y_sample_count": 4.0}, "evaluation.y_sample_count"),
    "field_grid": ("gaussian_vortex", "evaluation", {"field_grid": [8, 8.0]}, "evaluation.field_grid.1"),
}


def test_integral_floats_cover_every_integer_key():
    def integer(kind):
        return kind is int or (isinstance(kind, tuple) and kind[1] is int)

    declared = {key for keys in cli.SCHEMA.values() for key, (kind, _, _) in keys.items() if integer(kind)}
    assert declared == set(INTEGRAL_FLOATS)


@pytest.mark.parametrize("key", INTEGRAL_FLOATS)
def test_main_exit_code_on_an_integral_float_for_an_integer_key(key, tmp_path, capsys):
    name, section, entry, at = INTEGRAL_FLOATS[key]
    raw = _minimal_config(name)
    raw.setdefault(section, {}).update(entry)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert f"at {at}: " in err and "is not of type 'integer'" in err and err.count("\n") == 1
    assert not out.exists()


def test_main_exit_code_on_n_leading_below_the_largest_d(tmp_path, capsys):
    raw = _small_rotation_config()
    raw["decomposition"] = {"d_values": [1, 5], "n_leading": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_SCHEMA
    assert "n_leading" in capsys.readouterr().err


def test_schema_rejects_unknown_keys():
    raw = _small_rotation_config()
    raw["extra_section"] = {}
    with pytest.raises(cli.ConfigError):
        cli.resolve_config(raw)


def test_schema_rejects_missing_required():
    with pytest.raises(cli.ConfigError):
        cli.resolve_config({"system": {"name": "rotation"}})
    # No per-system rule applies without a system name, so the error names the missing key.
    with pytest.raises(cli.ConfigError, match="at system: 'name' is a required property"):
        cli.resolve_config({"system": {}, "truncation": {"cutoffs": [2, 2]}, "grid": {"points": [5, 5]}})


def test_schema_rejects_bad_types():
    raw = _small_rotation_config()
    raw["truncation"] = {"cutoffs": ["three"]}
    with pytest.raises(cli.ConfigError, match="violation at truncation.cutoffs.0: 'three' is not of type"):
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


@pytest.mark.parametrize(
    "system, section, key, literal",
    [
        ({"name": "rotation"}, "spectra", "tol", "NaN"),
        ({"name": "rotation"}, "spectra", "tol", "1e400"),
        ({"name": "rotation"}, "evaluation", "y", "NaN"),
        ({"name": "rotation"}, "evaluation", "s", "-Infinity"),
        ({"name": "rotation"}, "evaluation", "y", "1" + "0" * 400),
        ({"name": "rotation"}, "system", "params", '{"alpha": NaN}'),
        ({"name": "gaussian_vortex"}, "system", "params", '{"kappa": NaN}'),
        ({"name": "torus_translation"}, "system", "params", '{"n": 4, "gtilde": NaN}'),
    ],
    ids=[
        "tol-nan", "tol-overflow", "y-nan", "s-minus-infinity", "y-int-overflow", "alpha-nan", "kappa-nan", "gtilde-nan"
    ],
)
def test_main_exit_code_on_non_finite_numbers(system, section, key, literal, tmp_path, capsys):
    # json reads these literals as numbers that no schema bound rejects.
    cutoffs = [3, 3, 3] if system["name"] == "gaussian_vortex" else [3, 3]
    raw = {"system": system, "truncation": {"cutoffs": cutoffs}}
    raw.setdefault(section, {})[key] = "@"
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw).replace('"@"', literal))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    assert "is not a finite float" in capsys.readouterr().err
    assert not (out / "manifest.json").exists()


def test_main_exits_3_when_the_velocity_overflows(tmp_path, capsys):
    raw = {"system": {"name": "gaussian_vortex", "params": {"kappa": 400}}, "truncation": {"cutoffs": [2, 2, 2]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure") and err.count("\n") == 1
    assert not (out / "manifest.json").exists()


def test_main_exit_code_on_invalid_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = cli.main(["all", "--config", str(bad), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SCHEMA


def test_main_exit_code_on_a_config_that_is_not_utf8(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_bytes(b"\xff")
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(bad), "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err.startswith("config error") and err.count("\n") == 1
    assert not out.exists()


@pytest.mark.parametrize(
    "system",
    [
        {"name": "torus_translation", "params": {"gtilde": None}},
        {"name": "torus_translation", "params": {"gtilde": [0.1, 0.2]}},
        {"name": "cyclic_group", "params": {"gtilde": [1, 2]}},
    ],
    ids=["torus-null", "torus-list", "cyclic-list"],
)
def test_main_exit_code_on_a_gtilde_that_is_no_number(system, tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_small_discrete_config(), "system": system}))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    assert "gtilde must be a number or a function of y" in capsys.readouterr().err
    assert not out.exists()


def test_main_exit_code_on_wrong_cutoff_count(tmp_path):
    raw = _small_rotation_config()
    raw["truncation"] = {"cutoffs": [3, 3, 3]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = cli.main(["assemble", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SCHEMA


def test_a_wrong_cutoff_count_with_grid_points_names_both_keys(tmp_path, capsys):
    # The grid.points length is checked when the config is read, before the
    # system's cutoff count is, so the message names both keys.
    raw = {**_small_vortex_config(), "truncation": {"cutoffs": [2, 2]}, "grid": {"points": [5, 5, 5]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    assert cli.main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err == "config error: grid.points has 3 entries, truncation.cutoffs has 2\n"


def test_main_exit_code_on_torus_translation_cutoff_count(tmp_path, capsys):
    # The torus translation's fiber is one circle: base plus one fiber cutoff.
    raw = _small_discrete_config()
    raw["truncation"] = {"cutoffs": [2, 2, 2]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    code = cli.main(["all", "--config", str(path), "--out", str(tmp_path / "out")])
    assert code == cli.EXIT_SCHEMA
    assert "needs 2 cutoffs" in capsys.readouterr().err


def test_main_exit_code_on_d_larger_than_the_basis(tmp_path, capsys):
    raw = {
        "system": {"name": "gaussian_vortex"},
        "truncation": {"cutoffs": [1, 1, 1]},
        "decomposition": {"d_values": [30]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    assert "exceeds the basis size 27" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", ["all", "cocycle-field"])
def test_main_exit_code_on_grid_points_below_the_band(command, tmp_path, capsys):
    raw = {**_small_vortex_config(), "grid": {"points": [5, 4, 5]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == "config error: grid.points: grid of 4 points aliases modes at cutoff 2 (need >= 5)\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "points, message",
    [
        ([4, 4], "grid.points: grid of 4 points aliases modes at cutoff 3 (need >= 7)"),
        ([40], "grid.points has 1 entries, truncation.cutoffs has 2"),
    ],
    ids=["aliasing", "length"],
)
@pytest.mark.parametrize("command", cli.ALL_STAGES + ("all",))
def test_every_command_rejects_grid_points_that_do_not_fit_the_cutoffs(command, points, message, tmp_path, capsys):
    # cocycle-field never builds rotation's grid: its 1-d fiber writes no field.
    raw = {**_small_rotation_config(), "grid": {"points": points}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "change, message",
    [
        ({"truncation": {"cutoffs": [3, 3, 3]}}, "system 'rotation' needs 2 cutoffs, got 3"),
        (
            {"truncation": {"cutoffs": [1, 1]}, "decomposition": {"d_values": [20]}},
            "max(d_values + [subspace_rank]) = 20 exceeds the basis size 9",
        ),
        ({"smoothing": {"tau": 1000, "p": 1}}, "smoothing tau = 1000, p = 1 underflows 48 of 49 weights to 0"),
        (
            {"system": {"name": "rotation", "params": {"alpha": "x"}}},
            "cannot instantiate system 'rotation': alpha must be a finite real number, got 'x'",
        ),
    ],
    ids=["cutoff-count", "d-above-the-basis", "weights-underflow", "alpha-not-a-number"],
)
@pytest.mark.parametrize("command", cli.ALL_STAGES + ("all",))
def test_every_command_rejects_a_config_before_it_makes_the_directory(command, change, message, tmp_path, capsys):
    # No stage reads rotation's basis or weights under cocycle-field: its 1-d fiber writes no field.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_small_rotation_config(), **change}))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not out.exists()


def test_fields_at_zero_time_on_a_field_grid_coarser_than_the_band(tmp_path):
    raw = _small_vortex_config()
    raw["evaluation"] = {**raw["evaluation"], "s": 0, "field_grid": [4, 4]}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == 0
    # At s = 0 the field is the projected test vector evaluated at the nodes.
    basis = TruncatedBasis((2, 2, 2), ("base", "fiber", "fiber"))
    vecs = read_matrix(out / "leading_vectors.matrix.json")["entries"]
    nodes = Grid((4, 4)).nodes
    for d in (1, 2):
        q = build_test_vector(vecs, basis, 0.4, d)
        sub = oseledets.restrict_at_base(vecs, basis, 0.4, d)
        expected = evaluation_matrix(basis.fiber_subbasis(), nodes) @ (sub.projection @ q)
        table = np.loadtxt(out / f"field_d{d}.csv", delimiter=",", skiprows=1)
        assert np.array_equal(table[:, :2], nodes)
        assert np.max(np.abs(table[:, 2] + 1j * table[:, 3] - expected)) <= 1e-13 * np.max(np.abs(expected))


@pytest.mark.parametrize(
    "system",
    [
        {"name": "torus_translation", "params": {"n": 0}},
        {"name": "torus_translation", "params": {"n": -3}},
        {"name": "torus_translation", "params": {"n": 2.5}},
        {"name": "cyclic_group", "params": {"m": 0}},
        {"name": "cyclic_group", "params": {"n": 0}},
    ],
    ids=["torus-n-0", "torus-n-negative", "torus-n-fractional", "cyclic-m-0", "cyclic-n-0"],
)
def test_main_exit_code_on_discrete_params_that_are_not_positive_integers(system, tmp_path, capsys):
    raw = {**_small_discrete_config(), "system": system}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    assert "must be a positive integer" in capsys.readouterr().err
    assert not out.exists()


def test_main_exit_code_on_unknown_stratospheric_params(tmp_path, capsys):
    raw = {
        "system": {"name": "stratospheric", "params": {"bogus": 1, "sigmaa": [0, 0, 0]}},
        "truncation": {"cutoffs": [1, 1, 1]},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    assert "unknown stratospheric parameters: bogus, sigmaa" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key, value", [("A", [0.075]), ("k", [1.0, 2.0, 3.0, 4.0]), ("sigma", [-2.0, -1.0])], ids=["A-1", "k-4", "sigma-2"]
)
def test_main_exit_code_on_stratospheric_wave_lists_of_the_wrong_length(key, value, tmp_path, capsys):
    raw = {"system": {"name": "stratospheric", "params": {key: value}}, "truncation": {"cutoffs": [1, 1, 1]}}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    assert f"stratospheric parameter {key} needs 3 values" in capsys.readouterr().err
    assert not out.exists()


def test_importing_the_cli_does_not_import_scipy():
    code = "import sys, eigenop.cli; print([name for name in ('scipy', 'jsonschema') if name in sys.modules])"
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "[]"


def test_importing_the_cli_builds_no_parser():
    code = (
        "import argparse; built = []; init = argparse.ArgumentParser.__init__; "
        "argparse.ArgumentParser.__init__ = lambda self, *a, **k: (built.append(1), init(self, *a, **k))[1]; "
        "import eigenop.cli; print(len(built))"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert result.stdout.strip() == "0"


def test_main_builds_the_parser_once_per_process(tmp_path, monkeypatch):
    built = []
    init = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        init(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    cli._parser.cache_clear()
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_rotation_config()))
    for _ in range(2):
        assert cli.main(["assemble", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
    # One top-level parser, and no subcommand's parser built twice.
    assert built.count("eigenop") == 1
    assert len(built) == len(set(built)) > 1


def test_spectrum_keeps_every_value_and_the_leading_vectors():
    cfg = cli.resolve_config(_small_rotation_config())
    ctx = cli.PipelineContext(cfg, Path("unused"))
    spec = ctx.sorted_spectrum
    assert spec.size == len(spec.residuals) == ctx.basis.size
    assert spec.eigenvectors.shape == (ctx.basis.size, cfg["decomposition"]["n_leading"])
    assert spec.sort_rule == "target:(1e-10+0j)"


@pytest.mark.parametrize(
    "name, cutoff, blocks, largest",
    [
        # rotation conserves the fiber mode j, and j = 0 splits into singletons.
        ("rotation", None, 33, 17),
        # The vortex couples only modes in one class of k + j1.
        ("gaussian_vortex", None, 38, 168),
        # The three waves span an index-3 lattice: the classes of (k + j1) mod 3.
        ("stratospheric", None, 3, 741),
        # stage_rerun's coarse-grid vortex configs.
        ("gaussian_vortex", 3, 13, 49),
        ("gaussian_vortex", 4, 26, 80),
    ],
    ids=["rotation", "gaussian_vortex", "stratospheric", "vortex-cutoff-3", "vortex-cutoff-4"],
)
def test_bundled_generators_solve_hermitian_blocks(name, cutoff, blocks, largest):
    cfg = cli.bundled_config(name)
    if cutoff is not None:
        cfg["truncation"]["cutoffs"] = [cutoff] * 3
    spec = cli.PipelineContext(cfg, Path("unused")).sorted_spectrum
    assert (spec.meta["blocks"], spec.meta["largest_block"]) == (blocks, largest)
    assert np.all(spec.eigenvalues.real == 0.0)
    assert np.all(spec.residuals <= spec.tolerance)


def test_full_continuous_pipeline(tmp_path):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    manifest, _ = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
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


def test_subspace_documents_record_their_rank(tmp_path):
    raw = _small_rotation_config()
    raw["decomposition"] = {"d_values": [1, 3]}
    cli.run_pipeline(cli.resolve_config(raw), tmp_path, cli.ALL_STAGES)
    docs = [read_matrix(path) for path in sorted(tmp_path.glob("subspace_d*.matrix.json"))]
    assert len(docs) == 2
    for doc in docs:
        assert doc["meta"]["effective_rank"] == doc["shape"][1]


def test_eigenoperator_listing_survives_a_roundoff_perturbation(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_rotation_config())
    cli.run_pipeline(cfg, tmp_path / "plain", cli.ALL_STAGES)
    matrices = []
    original = cli.continuous_eigenoperator

    def perturbed(*args):
        plain = original(*args)
        # The rank-1 rotation eigenoperator is diagonal, so each mode is a
        # block of its own. Reversing the modes is a permutation similarity:
        # it keeps the matrix skew and its eigenvalues exact, but the solver
        # lists the blocks, and so the eigenvalues, in reverse.
        bumped = plain[::-1, ::-1]
        matrices.append((plain, bumped))
        return bumped

    monkeypatch.setattr(cli, "continuous_eigenoperator", perturbed)
    cli.run_pipeline(cfg, tmp_path / "perturbed", cli.ALL_STAGES)
    (plain, bumped), = matrices
    before, after = eig_matrix(plain).eigenvalues, eig_matrix(bumped).eigenvalues
    assert np.array_equal(np.sort_complex(before), np.sort_complex(after))
    assert not np.array_equal(before, after)
    name = "eigenoperator_spectrum.json"
    assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "perturbed" / name).read_bytes()


@pytest.mark.parametrize("command", ["all", "eig"])
def test_main_exit_code_on_smoothing_weights_that_underflow(command, tmp_path, monkeypatch, capsys):
    def never(*args):
        raise AssertionError("the generator was assembled")

    monkeypatch.setattr(cli, "assemble_generator", never)
    raw = json.loads((Path(cli.__file__).parent / "configs" / "gaussian_vortex.json").read_text())
    raw["smoothing"] = {"tau": 2, "p": 3}
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(raw))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(path), "--out", str(out)]) == cli.EXIT_SCHEMA
    err = capsys.readouterr().err
    assert err == "config error: smoothing tau = 2, p = 3 underflows 220 of 2197 weights to 0\n"
    assert not (out / "manifest.json").exists()


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
    manifest, _ = cli.run_pipeline(cfg, tmp_path / "run", ("assemble",))
    text = json.dumps(manifest)
    assert "timestamp" not in text and "created" not in text and "date" not in text


def _count_assembly(monkeypatch) -> list:
    """Count assemble_generator calls made through the cli or eigenoperator module."""
    calls = []
    original = cli.assemble_generator

    def counting(*args):
        calls.append(args)
        return original(*args)

    for module in (cli, eigenoperator):
        if hasattr(module, "assemble_generator"):
            monkeypatch.setattr(module, "assemble_generator", counting)
    return calls


def _count_eigensolves(monkeypatch) -> list:
    """Count eig calls made through the cli."""
    calls = []
    original = cli.eig

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(cli, "eig", counting)
    return calls


def test_cached_leading_vectors_are_reused(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, ("eig",))
    solved = cli.PipelineContext(cfg, tmp_path / "empty").leading_vectors
    # A second context over the same directory must read the leading
    # vectors back from leading_vectors.matrix.json, bit for bit.
    calls = _count_eigensolves(monkeypatch)
    cached = cli.PipelineContext(cfg, out).leading_vectors
    assert calls == []
    assert cached.shape == solved.shape
    assert cached.tobytes() == solved.tobytes()


def test_a_dropped_eig_record_is_not_read_back(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    del manifest["stage_outputs"]["eig"]
    path.write_text(json.dumps(manifest))
    # outputs still lists both files of the eig stage with their current sha256.
    for name in ("spectrum.json", "leading_vectors.matrix.json"):
        assert manifest["outputs"][name] == hashlib.sha256((out / name).read_bytes()).hexdigest()
    calls = _count_eigensolves(monkeypatch)
    ctx = cli.PipelineContext(cfg, out)
    assert ctx.leading_vectors.shape == (ctx.basis.size, 3)
    assert len(calls) == 1


def test_all_assembles_the_product_space_generator_once(tmp_path, monkeypatch):
    calls = _count_assembly(monkeypatch)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_vortex_config()))
    assert cli.main(["all", "--config", str(path), "--out", str(tmp_path / "fresh")]) == 0
    assert len(calls) == 1


def test_cache_ignored_when_config_changes(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, ("eig",))
    other = cli.resolve_config(_small_rotation_config())
    other["evaluation"]["y"] = 1.0
    calls = _count_eigensolves(monkeypatch)
    assert cli.PipelineContext(other, out).leading_vectors is not None
    assert len(calls) == 1


@pytest.mark.parametrize(
    "change",
    [{"system": {"name": "rotation", "params": {"alpha": 0.55}}}, {"truncation": {"cutoffs": [4, 4]}}],
    ids=["alpha", "cutoffs"],
)
def test_single_stage_reruns_never_read_another_configs_generator(change, tmp_path):
    # `all` with A, then `eig` with B twice: the second `eig` finds B's
    # manifest next to A's generator, which that manifest does not list.
    config_a = {**_small_rotation_config(), "system": {"name": "rotation", "params": {"alpha": 0.7}}}
    config_b = {**config_a, **change}
    paths = {}
    for name, raw in (("a", config_a), ("b", config_b)):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(raw))
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    for name, stage, directory in (("a", "all", out), ("b", "eig", out), ("b", "eig", out), ("b", "eig", fresh)):
        assert cli.main([stage, "--config", str(paths[name]), "--out", str(directory)]) == 0
    assert (out / "spectrum.json").read_bytes() == (fresh / "spectrum.json").read_bytes()


@pytest.mark.parametrize("filename", ["spectrum.json", "leading_vectors.matrix.json"])
def test_cache_ignores_a_spectrum_whose_bytes_changed(filename, tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, ("eig",))
    path = out / filename
    # Same content, other bytes: the cache must not trust an unlisted hash.
    path.write_text(path.read_text().replace("{", "{ ", 1))
    calls = _count_eigensolves(monkeypatch)
    assert cli.PipelineContext(cfg, out).leading_vectors is not None
    assert len(calls) == 1


def test_cache_ignores_a_spectrum_of_the_wrong_shape(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, ("eig",))
    # Fewer vectors than n_leading, recorded in the manifest with their hash.
    path = out / "leading_vectors.matrix.json"
    doc = read_matrix(path)
    write_matrix(path, doc["entries"][:, :2], doc["rows"], {"columns": 2}, doc["provenance"], doc["meta"])
    manifest = json.loads((out / "manifest.json").read_text())
    manifest["outputs"][path.name] = hashlib.sha256(path.read_bytes()).hexdigest()
    (out / "manifest.json").write_text(json.dumps(manifest))
    calls = _count_eigensolves(monkeypatch)
    ctx = cli.PipelineContext(cfg, out)
    assert ctx.leading_vectors.shape == (ctx.basis.size, 3)
    assert len(calls) == 1


def test_cache_ignores_a_spectrum_another_package_version_wrote(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, ("eig",))
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["versions"]["package"] = "0.0.0"
    path.write_text(json.dumps(manifest))
    calls = _count_eigensolves(monkeypatch)
    assert cli.PipelineContext(cfg, out).leading_vectors is not None
    assert len(calls) == 1


def test_stage_by_stage_reruns_solve_once_and_list_every_file(tmp_path, monkeypatch):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_vortex_config()))
    out, fresh = tmp_path / "out", tmp_path / "fresh"
    calls = _count_eigensolves(monkeypatch)
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == 0
    every = set(json.loads((out / "manifest.json").read_text())["outputs"])
    for stage in cli.ALL_STAGES:
        assert cli.main([stage, "--config", str(path), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["stages"] == [stage]
        assert set(manifest["outputs"]) == every, stage
        for name, recorded in manifest["outputs"].items():
            assert hashlib.sha256((out / name).read_bytes()).hexdigest() == recorded, (stage, name)
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == 0
    assert len(calls) == 1
    assert cli.main(["all", "--config", str(path), "--out", str(fresh)]) == 0
    assert sorted(p.name for p in out.iterdir()) == sorted(p.name for p in fresh.iterdir())
    for path_out in out.iterdir():
        assert path_out.read_bytes() == (fresh / path_out.name).read_bytes(), path_out.name


def test_manifest_drops_the_whole_record_of_a_file_whose_bytes_changed(tmp_path):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    (out / "spectrum.json").write_text("{}")
    (out / "generator.matrix.json").unlink()
    manifest, reused = cli.run_pipeline(cfg, out, ("eigenop",))
    assert reused == ["eigenop"]
    # leading_vectors.matrix.json is unchanged, but it goes with the eig record.
    assert manifest["stage_outputs"] == {
        "oseledets": ["subspace_d1.matrix.json"],
        "eigenop": ["eigenoperator_spectrum.json"],
        "cocycle-field": [],
    }
    assert set(manifest["outputs"]) == {"eigenoperator_spectrum.json", "subspace_d1.matrix.json"}


def test_single_stage_runs_on_a_corrupted_directory_keep_stage_outputs_a_partition_of_outputs(tmp_path):
    cfg = cli.resolve_config(_small_vortex_config())
    out = tmp_path / "run"
    first, _ = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    for corrupted in sorted(first["outputs"]):
        (out / corrupted).write_text("{}")
        for stage in cli.ALL_STAGES:
            manifest, _ = cli.run_pipeline(cfg, out, (stage,))
            names = [name for files in manifest["stage_outputs"].values() for name in files]
            assert sorted(names) == sorted(manifest["outputs"]), (corrupted, stage)
            for name, recorded in manifest["outputs"].items():
                assert hashlib.sha256((out / name).read_bytes()).hexdigest() == recorded, (corrupted, stage, name)
    assert (manifest["outputs"], manifest["stage_outputs"]) == (first["outputs"], first["stage_outputs"])


def test_rerun_into_same_directory_reproduces_every_artifact(tmp_path):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    first, _ = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    second, _ = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert "generator.matrix.json" in first["outputs"]
    assert second["outputs"] == first["outputs"]


def _small_vortex_config():
    return {
        "system": {"name": "gaussian_vortex", "params": {"kappa": 0.5}},
        "truncation": {"cutoffs": [2, 2, 2]},
        "smoothing": {"tau": 0.1, "p": 0.1},
        "decomposition": {"d_values": [1, 2], "subspace_rank": 1, "n_leading": 4},
        "evaluation": {"y": 0.4, "s": 0.1, "field_grid": [16, 16]},
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
        q = build_test_vector(vecs, basis, y, d)
        sub = oseledets.restrict_at_base(vecs, basis, ystar, d)
        targets = systems.flow_fiber(system, y, nodes, s, steps=20)  # round(s * RK4_STEPS_PER_UNIT_TIME)
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
    # A missing field makes the stage run again, for every d.
    (out / "field_d2.csv").unlink()
    cli.run_pipeline(cfg, out, ("cocycle-field",))
    assert len(calls) == 2


def _count_stage_calls(monkeypatch) -> list:
    """Record the name of every stage function the pipeline calls."""
    calls = []
    for stage, func in cli.STAGE_FUNCS.items():

        def counting(ctx, stage=stage, func=func):
            calls.append(stage)
            return func(ctx)

        monkeypatch.setitem(cli.STAGE_FUNCS, stage, counting)
    return calls


def _record_writes(monkeypatch) -> list:
    """Record the name of every file the package writes."""
    written = []
    original = ioformats._write

    def recording(path, chunks):
        written.append(Path(path).name)
        return original(path, chunks)

    monkeypatch.setattr(ioformats, "_write", recording)
    return written


def test_reruns_after_all_call_no_stage_function(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_vortex_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    first = (out / "manifest.json").read_bytes()
    artifacts = {path.name: path.read_bytes() for path in out.iterdir() if path.name != "manifest.json"}
    calls, written = _count_stage_calls(monkeypatch), _record_writes(monkeypatch)
    flows, assembled, solved = _count_flows(monkeypatch), _count_assembly(monkeypatch), _count_eigensolves(monkeypatch)
    for stage in cli.ALL_STAGES:
        manifest, reused = cli.run_pipeline(cfg, out, (stage,))
        assert reused == [stage]
        assert manifest["stages"] == [stage]
    manifest, reused = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert reused == list(cli.ALL_STAGES)
    assert (calls, flows, assembled, solved) == ([], [], [], [])
    assert written == ["manifest.json"] * (len(cli.ALL_STAGES) + 1)
    assert (out / "manifest.json").read_bytes() == first
    assert {path.name: path.read_bytes() for path in out.iterdir() if path.name != "manifest.json"} == artifacts


def test_a_rewritten_subspace_reruns_oseledets_only(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_vortex_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    first = (out / "manifest.json").read_bytes()
    path = out / "subspace_d2.matrix.json"
    original = path.read_bytes()
    path.write_text(path.read_text().replace("{", "{ ", 1))
    calls = _count_stage_calls(monkeypatch)
    _, reused = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert calls == ["oseledets"]
    assert reused == [stage for stage in cli.ALL_STAGES if stage != "oseledets"]
    assert path.read_bytes() == original
    assert (out / "manifest.json").read_bytes() == first



def test_a_spectrum_the_run_solved_is_not_read_back(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_vortex_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    for name in ("spectrum.json", "subspace_d2.matrix.json"):
        path = out / name
        path.write_text(path.read_text().replace("{", "{ ", 1))
    reads, solved = [], _count_eigensolves(monkeypatch)
    original = cli.read_matrix
    monkeypatch.setattr(cli, "read_matrix", lambda path: reads.append(path) or original(path))
    # eig writes back the bytes its kept record lists, and oseledets then
    # takes the leading vectors from that solve, not from the file.
    _, reused = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert reused == ["assemble", "eigenop", "cocycle-field"]
    assert (len(solved), reads) == (1, [])

@pytest.mark.parametrize("key", ["numpy", "source_sha256"])
def test_no_reuse_when_the_manifest_versions_differ(key, tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_vortex_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["versions"][key] = "0" * len(manifest["versions"][key])
    path.write_text(json.dumps(manifest))
    calls, solved = _count_stage_calls(monkeypatch), _count_eigensolves(monkeypatch)
    _, reused = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert (reused, calls, len(solved)) == ([], list(cli.ALL_STAGES), 1)


def test_versions_record_the_package_source():
    versions = cli.versions()
    assert set(versions) == {"package", "numpy", "python", "source_sha256", "blas_threads"}
    digest = hashlib.sha256()
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    assert versions["source_sha256"] == digest.hexdigest()


def test_versions_record_the_blas_thread_variables(monkeypatch):
    monkeypatch.delenv("OMP_NUM_THREADS", raising=False)
    monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
    monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
    expected = {"OPENBLAS_NUM_THREADS": "3", "OMP_NUM_THREADS": None, "MKL_NUM_THREADS": None}
    assert cli.versions()["blas_threads"] == expected


def test_no_reuse_at_another_blas_thread_count(tmp_path):
    # Dense eigensolves differ across BLAS thread counts, so a directory
    # written at one count must not be reused at another.
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_vortex_config()))
    out = tmp_path / "out"
    pythonpath = str(Path(cli.__file__).parents[1])

    def last_line(threads):
        env = {**os.environ, "PYTHONPATH": pythonpath, "OPENBLAS_NUM_THREADS": threads}
        cmd = [sys.executable, "-m", "eigenop.cli", "all", "--config", str(path), "--out", str(out)]
        result = subprocess.run(cmd, capture_output=True, text=True, env=env, check=True, timeout=120)
        return result.stdout.splitlines()[-1]

    assert "reused" not in last_line("1")
    assert "reused" not in last_line("2")
    assert last_line("2").endswith("reused: assemble, eig, oseledets, eigenop, cocycle-field")


@pytest.mark.parametrize(
    "stage_outputs",
    [
        ["spectrum.json", "leading_vectors.matrix.json"],
        {"eig": "spectrum.json"},
        {"eig": [["spectrum.json"]]},
        {"eig": [1, "spectrum.json"]},
        {"eig": ["spectrum.json", "leading_vectors.matrix.json", "missing.json"]},
        {"eig": []},
    ],
    ids=["list", "string", "nested", "number", "unlisted-file", "empty"],
)
def test_a_malformed_stage_record_runs_the_stage(stage_outputs, tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_rotation_config())
    out = tmp_path / "run"
    cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    first = (out / "manifest.json").read_bytes()
    path = out / "manifest.json"
    manifest = json.loads(path.read_text())
    manifest["stage_outputs"] = stage_outputs
    path.write_text(json.dumps(manifest))
    calls = _count_stage_calls(monkeypatch)
    manifest, reused = cli.run_pipeline(cfg, out, ("eig",))
    assert (calls, reused) == (["eig"], [])
    assert manifest["stage_outputs"]["eig"] == ["leading_vectors.matrix.json", "spectrum.json"]
    # The one eig rerun restores the record: a second all rewrites the first manifest.
    cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert (out / "manifest.json").read_bytes() == first


@pytest.mark.parametrize("config", [_small_vortex_config, _small_discrete_config], ids=["vortex", "discrete"])
def test_stage_outputs_partition_outputs(config, tmp_path):
    manifest, _ = cli.run_pipeline(cli.resolve_config(config()), tmp_path / "run", cli.ALL_STAGES)
    record = manifest["stage_outputs"]
    assert list(record) == list(cli.ALL_STAGES)
    names = [name for files in record.values() for name in files]
    assert sorted(names) == sorted(manifest["outputs"])
    assert all(files == sorted(files) for files in record.values())


def test_discrete_reruns_run_only_the_stages_that_write_nothing(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_discrete_config())
    out = tmp_path / "run"
    first, _ = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    calls = _count_stage_calls(monkeypatch)
    second, reused = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert reused == ["oseledets", "eigenop"]
    assert calls == ["assemble", "eig", "cocycle-field"]
    assert second == first


def test_main_names_the_reused_stages(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_rotation_config()))
    out = tmp_path / "out"
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == f"wrote {out}/manifest.json, which lists 5 artifacts"
    (out / "subspace_d1.matrix.json").unlink()
    assert cli.main(["all", "--config", str(path), "--out", str(out)]) == 0
    line = capsys.readouterr().out.splitlines()[-1]
    assert line == f"wrote {out}/manifest.json, which lists 5 artifacts; reused: assemble, eig, eigenop"
    assert "reused" not in (out / "manifest.json").read_text()


def test_discrete_pipeline_stages(tmp_path):
    cfg = cli.resolve_config(_small_discrete_config())
    out = tmp_path / "run"
    manifest, _ = cli.run_pipeline(cfg, out, cli.ALL_STAGES)
    assert (out / "bins.json").exists()
    bins = json.loads((out / "bins.json").read_text())
    assert len(bins["orbit"]) == 4
    assert max(bins["equivariance_residuals"]) < 1e-10
    assert (out / "eigenoperator_spectrum.json").exists()
    assert any("assemble skipped" in note for note in manifest["notes"])


def _floats_apart(doc):
    """The document with each float replaced by None, and its floats in order."""
    floats = []

    def skeleton(value):
        if isinstance(value, float):
            floats.append(value)
            return None
        if isinstance(value, dict):
            return {k: skeleton(v) for k, v in value.items()}
        if isinstance(value, list):
            return [skeleton(v) for v in value]
        return value

    return skeleton(doc), floats


def test_discrete_bin_order_survives_a_roundoff_perturbation(tmp_path, monkeypatch):
    cfg = cli.resolve_config(_small_discrete_config())
    cli.run_pipeline(cfg, tmp_path / "plain", cli.ALL_STAGES)
    make_system, assemble, assembled = cli.make_system, oseledets.assemble_fiber_koopman, []

    def perturbed(name, **params):
        map_ = make_system(name, **params)

        def fiber_map(y, z):
            # Each base point moves its images by its own random ulps, so the
            # transfers at any two base points differ by roundoff.
            image = map_.fiber_map(y, z)
            ulps = np.random.default_rng(abs(hash(float(y)))).integers(-1, 2, image.shape)
            return image + ulps * np.spacing(image)

        return replace(map_, fiber_map=fiber_map)

    def counting(map_, y, *args):
        assembled.append(y)
        return assemble(map_, y, *args)

    monkeypatch.setattr(cli, "make_system", perturbed)
    monkeypatch.setattr(oseledets, "assemble_fiber_koopman", counting)
    cli.run_pipeline(cfg, tmp_path / "perturbed", cli.ALL_STAGES)
    # One transfer per distinct base point: 4 on the evaluation orbit and
    # 4 on the orbit that the 4 samples, at multiples of pi/2, share.
    assert len(set(assembled)) == len(assembled) == 8
    for name in ("bins.json", "eigenoperator_spectrum.json"):
        plain, bumped = (_floats_apart(json.loads((tmp_path / run / name).read_text())) for run in ("plain", "perturbed"))
        # Rounding moves last digits only: the same bins in the same order,
        # and the same supports, dimensions and values within 1e-14.
        assert plain[0] == bumped[0]
        assert np.max(np.abs(np.subtract(plain[1], bumped[1]))) <= 1e-14


def test_discrete_pipeline_sets_up_once_per_base_point(tmp_path, monkeypatch):
    calls = []
    original = oseledets.periodic_subspaces

    def counting(map_, y, transfers, mu, vectors, bins):
        calls.append(y)
        return original(map_, y, transfers, mu, vectors, bins)

    monkeypatch.setattr(oseledets, "periodic_subspaces", counting)
    raw = _small_discrete_config()
    raw["evaluation"]["y_sample_count"] = 8
    cli.run_pipeline(cli.resolve_config(raw), tmp_path / "run", cli.ALL_STAGES)
    # A constant shift gives every base point the same transfers, so the
    # evaluation point's decomposition is the only one: both stages and
    # all 8 samples share it, and the aggregate still lists every sample.
    assert calls == [0.3]
    doc = json.loads((tmp_path / "run" / "eigenoperator_spectrum.json").read_text())
    ys = np.linspace(0.0, 2 * np.pi, 8, endpoint=False).tolist()
    assert all(entry["y_samples"] == ys for entry in doc["aggregated"])


def test_a_torus_run_builds_the_conjugate_mode_rows_once(tmp_path, monkeypatch):
    transfers, solves = [], []
    original, eig = oseledets.assemble_fiber_koopman, np.linalg.eig

    def counting(map_, y, *args):
        transfers.append(y)
        return original(map_, y, *args)

    def counting_eig(a):
        solves.append(np.shape(a))
        return eig(a)

    monkeypatch.setattr(oseledets, "assemble_fiber_koopman", counting)
    monkeypatch.setattr(np.linalg, "eig", counting_eig)
    raw = _small_discrete_config()
    raw["evaluation"]["y_sample_count"] = 64
    cli.run_pipeline(cli.resolve_config(raw), tmp_path / "run", cli.ALL_STAGES)
    # The evaluation point and 64 samples share one transfer, which builds
    # the conjugate mode rows, and one monodromy solve of the 7-mode fiber.
    assert transfers == [0.3]
    assert solves == [(7, 7)]


@pytest.mark.parametrize("name", sorted({**systems.CONTINUOUS_BUILTINS, **systems.DISCRETE_BUILTINS}))
def test_every_registered_system_runs_the_pipeline(name, tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_minimal_config(name)))
    assert cli.main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == 0


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


def test_a_non_finite_field_exits_3_and_no_manifest_lists_a_field(tmp_path, monkeypatch, capsys):
    original = cli.hatw_field

    def nan_field(*args):
        field = original(*args)
        return FieldSample(field.grid, np.full(field.grid.shape, np.nan))

    monkeypatch.setattr(cli, "hatw_field", nan_field)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(_small_vortex_config()))
    out = tmp_path / "out"
    assert cli.main(["cocycle-field", "--config", str(path), "--out", str(out)]) == cli.EXIT_NUMERICAL
    assert "non-finite" in capsys.readouterr().err
    assert not list(out.glob("field_*"))
    manifest = out / "manifest.json"
    assert not manifest.exists() or not any(name.startswith("field_") for name in json.loads(manifest.read_text())["outputs"])


def test_main_exits_3_when_the_dropped_coupling_bound_breaks_the_contract(tmp_path, monkeypatch, capsys):
    # A fiber-velocity wave whose coefficients sit just below the support
    # threshold adds about 2.3e-13 * ||A|| to the dropped-coupling bound,
    # while every per-block residual stays near 1e-15.
    rotation = systems.make_rotation(0.7, 0.5)
    amplitude = 1.8 * COUPLING_RTOL
    waved = replace(
        rotation,
        fiber_velocity=lambda y, z: rotation.fiber_velocity(y, z) + amplitude * np.cos(3 * np.asarray(y))[..., None],
    )
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_small_rotation_config(), "truncation": {"cutoffs": [8, 8]}, "spectra": {"tol": 1e-13}}))
    assert cli.main(["eig", "--config", str(path), "--out", str(tmp_path / "plain")]) == 0
    monkeypatch.setattr(cli, "make_system", lambda name, **params: waved)
    assert cli.main(["eig", "--config", str(path), "--out", str(tmp_path / "waved")]) == cli.EXIT_NUMERICAL
    assert "dropped coupling" in capsys.readouterr().err
