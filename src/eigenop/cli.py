"""Configuration-driven command line front end.

Subcommands run individual pipeline stages (assemble, eig, oseledets,
eigenop, cocycle-field), the whole pipeline (all), or the acceptance
suite (validate). Configs are JSON, schema-checked with unknown keys
rejected, and with them every key the named system never reads; every
omitted default is resolved before anything runs and recorded in the
output manifest; smoothing weights that underflow to 0 are a config
error, found before the generator is assembled. Reruns of the same
config produce byte-identical artifacts. The stage is the only unit of
reuse: a rerun into the same directory, for the same config, versions,
package source and BLAS thread settings, keeps each stage record whose
files are unchanged. Its stage is not run, and a stage that does run
reads the leading vectors back from a kept eig record instead of solving.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from copy import deepcopy
from dataclasses import replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import __version__
from .basis import Grid, TruncatedBasis, default_grid
from .cocycle import build_test_vector, continuous_w, hatw_field
from .eigenoperator import CONTINUOUS_N, DISCRETE_M, continuous_eigenoperator, discrete_eigenoperator_spectrum
from .generator import SmoothingWeights, assemble_generator, smoothed_generator
from .ioformats import (
    complex_list,
    file_sha256,
    read_matrix,
    sha256_of,
    write_field_csv,
    write_heatmap_ppm,
    write_json,
    write_matrix,
)
from .oseledets import PeriodicSetup, equivariance_residual, periodic_setup, restrict_at_base
from .spectra import EigensolveError, eig, eig_matrix, sort_by_target
from .systems import ContinuousSkewSystem, IntegrationError, make_system

EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

ALL_STAGES = ("assemble", "eig", "oseledets", "eigenop", "cocycle-field")


def _reads(names: list[str], sections: list[str], **keys: list[str]) -> dict:
    """The rule that a config naming a system in names sets only the given sections and keys.

    keys maps a section to the only keys it may hold. A config without a
    system name matches no rule, so its error names the missing key.
    """
    return {
        "if": {
            "required": ["system"],
            "properties": {"system": {"required": ["name"], "properties": {"name": {"enum": names}}}},
        },
        "then": {
            "propertyNames": {"enum": sections},
            "properties": {section: {"propertyNames": {"enum": listed}} for section, listed in keys.items()},
        },
    }


SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["system", "truncation"],
    "properties": {
        "system": {
            "type": "object",
            "additionalProperties": False,
            "required": ["name"],
            "properties": {
                "name": {"type": "string"},
                "params": {"type": "object", "default": {}},
            },
        },
        "truncation": {
            "type": "object",
            "additionalProperties": False,
            "required": ["cutoffs"],
            "properties": {
                "cutoffs": {"type": "array", "items": {"type": "integer", "minimum": 1}, "minItems": 1},
            },
        },
        "grid": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "multiplier": {"type": "integer", "minimum": 1, "default": 4},
                "points": {"type": "array", "items": {"type": "integer", "minimum": 3}, "default": None},
            },
        },
        "smoothing": {
            "type": "object",
            "additionalProperties": False,
            "required": ["tau", "p"],
            "default": None,
            "properties": {
                "tau": {"type": "number", "exclusiveMinimum": 0},
                "p": {"type": "number", "exclusiveMinimum": 0},
            },
        },
        "spectra": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0, "default": 1e-6},
            },
        },
        "decomposition": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "d_values": {"type": "array", "items": {"type": "integer", "minimum": 1}, "default": [1]},
                "subspace_rank": {"type": "integer", "minimum": 1, "default": 1},
                "n_leading": {
                    "type": "integer",
                    "minimum": 1,
                    "description": "default and minimum: max(d_values + [subspace_rank])",
                },
            },
        },
        "evaluation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "y": {"type": "number", "default": 0.0},
                "s": {"type": "number", "default": 0.0},
                "i": {"type": "integer", "default": 1},
                "y_sample_count": {"type": "integer", "minimum": 1, "default": 64},
                "steps_per_unit_time": {"type": "integer", "minimum": 1, "default": 200},
                "field_grid": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 4},
                    "minItems": 2,
                    "maxItems": 2,
                    "default": [128, 128],
                },
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "formats": {"type": "array", "items": {"enum": ["csv", "ppm"]}, "default": ["csv", "ppm"]},
            },
        },
    },
    # The keys each registered system reads: a config naming it may set no
    # other. A torus map builds its fiber grid from the multiplier alone, and
    # rotation's 1-d fiber writes no field. cyclic_group reads no
    # truncation.cutoffs, which stay accepted while the benchmark's cyclic
    # config passes them.
    "allOf": [
        _reads(["cyclic_group"], ["system", "truncation", "evaluation"], evaluation=["y", "i", "y_sample_count"]),
        _reads(
            ["torus_translation"],
            ["system", "truncation", "grid", "evaluation"],
            grid=["multiplier"],
            evaluation=["y", "i", "y_sample_count"],
        ),
        _reads(
            ["rotation"],
            ["system", "truncation", "grid", "smoothing", "spectra", "decomposition", "evaluation"],
            evaluation=["y", "s"],
        ),
        _reads(
            ["gaussian_vortex", "stratospheric"],
            ["system", "truncation", "grid", "smoothing", "spectra", "decomposition", "evaluation", "output"],
            evaluation=["y", "s", "steps_per_unit_time", "field_grid"],
        ),
    ],
}


# SCHEMA is a constant, so it is checked against its metaschema by the
# tests rather than on every resolve.
SCHEMA_VALIDATOR = validator_for(SCHEMA)(SCHEMA)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _fill_defaults(schema: dict, value):
    """A deep copy of value with every absent property set to its schema default.

    An absent key without a "default" resolves to None, except a section,
    which is filled from {}.
    """
    if "properties" not in schema:
        return deepcopy(value)
    filled = {}
    for key, sub in schema["properties"].items():
        if key in value or ("properties" in sub and "default" not in sub):
            filled[key] = _fill_defaults(sub, value.get(key, {}))
        else:
            filled[key] = deepcopy(sub.get("default"))
    return filled


def _non_finite_path(value, path: str = "config") -> str | None:
    """Dotted path of the first number in value that is no finite float, or None.

    json parses NaN, Infinity and overflowing literals such as 1e400 to
    floats that no schema bound rejects, and an integer above the largest
    float, about 1.8e308, to an int that no float holds.
    """
    if isinstance(value, (int, float)) and (value != value or abs(value) > sys.float_info.max):
        return path
    children = value.items() if isinstance(value, dict) else enumerate(value) if isinstance(value, list) else ()
    return next((found for key, item in children if (found := _non_finite_path(item, f"{path}.{key}"))), None)


def resolve_config(raw: dict) -> dict:
    """Validate against the schema and fill in every default."""
    where = _non_finite_path(raw)
    if where is not None:
        raise ConfigError(f"{where} is not a finite float")
    error = best_match(SCHEMA_VALIDATOR.iter_errors(raw))
    if error is not None:
        at = f" at {'.'.join(map(str, error.absolute_path))}" if error.absolute_path else ""
        raise ConfigError(f"config schema violation{at}: {error.message}")
    cfg = _fill_defaults(SCHEMA, raw)
    dec = cfg["decomposition"]
    needed = max(dec["d_values"] + [dec["subspace_rank"]])
    if dec["n_leading"] is None:
        dec["n_leading"] = needed
    elif dec["n_leading"] < needed:
        raise ConfigError(f"decomposition.n_leading must be at least max(d_values + [subspace_rank]) = {needed}")
    # Checked here rather than where the grid is built, so that a command
    # which never builds it rejects the config too.
    points, cutoffs = cfg["grid"]["points"], cfg["truncation"]["cutoffs"]
    if points is not None:
        if len(points) != len(cutoffs):
            raise ConfigError(f"grid.points has {len(points)} entries, truncation.cutoffs has {len(cutoffs)}")
        for p, k in zip(points, cutoffs):
            if p < 2 * k + 1:
                raise ConfigError(f"grid.points: grid of {p} points aliases modes at cutoff {k} (need >= {2 * k + 1})")
    return cfg


def bundled_config(name: str) -> dict:
    path = Path(__file__).parent / "configs" / f"{name}.json"
    if not path.exists():
        raise ConfigError(f"no bundled config named '{name}'")
    return resolve_config(json.loads(path.read_text()))


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except ValueError as exc:  # invalid JSON, or bytes that are not UTF-8
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return resolve_config(raw)


@cache
def source_sha256() -> str:
    """sha256 of the package's own .py files, each name and then its bytes, in sorted name order."""
    digest = hashlib.sha256()
    for path in sorted(Path(__file__).parent.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


# Artifacts of the dense eigensolves depend on the BLAS thread count.
THREAD_VARIABLES = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def versions() -> dict:
    """What a manifest records of the code that wrote it; reuse needs all of it to match.

    blas_threads holds each thread-count variable's value, None when unset.
    """
    return {
        "package": __version__,
        "numpy": np.__version__,
        "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        "source_sha256": source_sha256(),
        "blas_threads": {name: os.environ.get(name) for name in THREAD_VARIABLES},
    }


class PipelineContext:
    """Lazy shared state for one pipeline run."""

    def __init__(self, config: dict, out: Path):
        self.config = config
        self.out = Path(out)
        self.stage_notes: list[str] = []
        # sha256 of each file of the directory as this run last saw it; None if unreadable.
        self.current_sha256: dict[str, str | None] = {}

    @cached_property
    def system(self):
        sc = self.config["system"]
        try:
            return make_system(sc["name"], **sc["params"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"cannot instantiate system '{sc['name']}': {exc}") from exc

    @property
    def is_continuous(self) -> bool:
        return isinstance(self.system, ContinuousSkewSystem)

    @cached_property
    def basis(self) -> TruncatedBasis:
        cutoffs = tuple(self.config["truncation"]["cutoffs"])
        # A discrete torus map acts on one circle; a cyclic fiber is finite,
        # and its delta basis reads no cutoff.
        if self.is_continuous or self.system.fiber_kind == "torus":
            fiber_dim = self.system.fiber_dim if self.is_continuous else 1
            if len(cutoffs) != 1 + fiber_dim:
                raise ConfigError(f"system '{self.system.name}' needs {1 + fiber_dim} cutoffs, got {len(cutoffs)}")
        roles = ("base",) + ("fiber",) * (len(cutoffs) - 1)
        basis = TruncatedBasis(cutoffs, roles)
        dec = self.config["decomposition"]
        needed = max(dec["d_values"] + [dec["subspace_rank"]])
        if self.is_continuous and needed > basis.size:
            raise ConfigError(f"max(d_values + [subspace_rank]) = {needed} exceeds the basis size {basis.size}")
        return basis

    @cached_property
    def grid(self) -> Grid:
        points = self.config["grid"]["points"]
        if points is not None:  # resolve_config checked them against the cutoffs
            return Grid(tuple(points))
        return default_grid(self.basis, self.config["grid"]["multiplier"])

    @cached_property
    def generator_matrix(self):
        return assemble_generator(self.system, self.basis, self.grid)

    @cached_property
    def weights(self) -> SmoothingWeights | None:
        sm = self.config["smoothing"]
        if sm is None:
            return None
        try:
            return SmoothingWeights(self.basis, sm["tau"], sm["p"])
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc

    @cached_property
    def operator_for_spectra(self):
        """diag(w) V, or V unsmoothed; the weights are built, and checked, before V is assembled."""
        if self.weights is None:
            return self.generator_matrix
        return smoothed_generator(self.generator_matrix, self.weights)

    @cached_property
    def sorted_spectrum(self):
        """Every eigenvalue, target-sorted, with only the n_leading eigenvector columns any stage reads."""
        # diag(w) V is similar to a skew-adjoint matrix by diag(sqrt(w)).
        weights = None if self.weights is None else self.weights.values
        report = sort_by_target(eig(self.operator_for_spectra, tol=self.config["spectra"]["tol"], weights=weights))
        n = min(self.config["decomposition"]["n_leading"], report.size)
        return replace(report, eigenvectors=np.asarray(report.eigenvectors[:, :n]))

    @cached_property
    def leading_vectors(self) -> np.ndarray:
        """The n_leading sorted eigenvectors: those this run solved, else read back from a kept eig record."""
        cached = None if "sorted_spectrum" in vars(self) else self._load_cached()
        return self.sorted_spectrum.eigenvectors if cached is None else cached

    def periodic_setup_at(self, y: float) -> PeriodicSetup:
        fib = self.basis.fiber_subbasis()
        return periodic_setup(self.system, y, fib, default_grid(fib, self.config["grid"]["multiplier"]))

    @cached_property
    def periodic_setup(self) -> PeriodicSetup:
        """Discrete decomposition at the evaluation base point."""
        return self.periodic_setup_at(float(self.config["evaluation"]["y"]))

    @cached_property
    def previous_manifest(self) -> dict:
        """The directory's manifest if this config and these versions() wrote it, else {}."""
        try:
            manifest = json.loads((self.out / "manifest.json").read_text())
            if manifest["config_sha256"] == sha256_of(self.config) and manifest["versions"] == versions():
                return manifest if isinstance(manifest["outputs"], dict) else {}
        except (ValueError, KeyError, OSError, TypeError):
            pass
        return {}

    @property
    def previous_outputs(self) -> dict:
        return self.previous_manifest.get("outputs", {})

    def is_listed(self, filename: str) -> bool:
        """Whether the previous manifest lists the file with its current sha256; each file is hashed once."""
        recorded = self.previous_outputs.get(filename)
        if recorded is None:
            return False
        if filename not in self.current_sha256:
            try:
                self.current_sha256[filename] = file_sha256(self.out / filename)
            except OSError:
                self.current_sha256[filename] = None
        return recorded == self.current_sha256[filename]

    def listed_stage_outputs(self, stage: str) -> list[str] | None:
        """The file names the previous manifest records for stage, if each is still listed, else None."""
        recorded = self.previous_manifest.get("stage_outputs")
        files = recorded.get(stage) if isinstance(recorded, dict) else None
        if isinstance(files, list) and all(isinstance(name, str) and self.is_listed(name) for name in files):
            return files
        return None

    def _load_cached(self) -> np.ndarray | None:
        """The leading vectors stage_eig wrote, if the kept eig record lists them, else None.

        eig_matrix certified every pair when it was computed, and the base64
        float64 payload round-trips every entry bit for bit, signed zeros
        included, so a hit rewrites the leading vectors byte for byte.
        """
        name = "leading_vectors.matrix.json"
        if name not in (self.listed_stage_outputs("eig") or ()):
            return None
        try:
            vectors = read_matrix(self.out / name)["entries"]
        except (ValueError, KeyError, OSError, TypeError):
            return None
        n = self.basis.size
        return vectors if vectors.shape == (n, min(self.config["decomposition"]["n_leading"], n)) else None


def stage_assemble(ctx: PipelineContext) -> dict[str, str]:
    if not ctx.is_continuous:
        ctx.stage_notes.append("assemble skipped: discrete map has no flow generator")
        return {}
    # The weights come first, so weights that underflow stop the run before assembly.
    operators = {} if ctx.weights is None else {"smoothed_generator.matrix.json": ctx.operator_for_spectra}
    operators["generator.matrix.json"] = ctx.generator_matrix
    return {
        fname: write_matrix(ctx.out / fname, op, op.basis.describe(), op.basis.describe(), op.provenance, op.meta)
        for fname, op in operators.items()
    }


def stage_eig(ctx: PipelineContext) -> dict[str, str]:
    if not ctx.is_continuous:
        ctx.stage_notes.append("eig skipped: discrete map has no flow generator")
        return {}
    report = ctx.sorted_spectrum
    written = {"spectrum.json": write_json(ctx.out / "spectrum.json", report.to_json_dict())}
    count = int(report.eigenvectors.shape[1])
    written["leading_vectors.matrix.json"] = write_matrix(
        ctx.out / "leading_vectors.matrix.json",
        report.eigenvectors,
        ctx.basis.describe(),
        {"columns": count},
        "projection",
        {"count": count, "sort_rule": report.sort_rule},
    )
    return written


def stage_oseledets(ctx: PipelineContext) -> dict[str, str]:
    written = {}
    if ctx.is_continuous:
        y = float(ctx.config["evaluation"]["y"])
        for d in ctx.config["decomposition"]["d_values"]:
            sub = restrict_at_base(ctx.leading_vectors, ctx.basis, y, d)
            fname = f"subspace_d{d}.matrix.json"
            written[fname] = write_matrix(
                ctx.out / fname,
                sub.frame,
                ctx.basis.fiber_subbasis().describe(),
                {"columns": sub.dim},
                "projection",
                {"y": y, "effective_rank": sub.dim, "requested": d},
            )
        return written
    setup = ctx.periodic_setup
    n = ctx.system.base_period
    report = {
        "y": setup.y,
        "orbit": [float(w) for w in setup.orbit],
        "bins": [b.describe() for b in setup.bins],
        "equivariance_residuals": [],
    }
    for bi, family in enumerate(setup.families):
        worst = 0.0
        for m in range(n):
            worst = max(worst, equivariance_residual(family[(m + 1) % n], family[m], setup.transfers[m]))
        report["equivariance_residuals"].append(worst)
        for m, sub in enumerate(family):
            fname = f"subspace_bin{bi}_orbit{m}.matrix.json"
            if ctx.system.fiber_kind == "torus":
                desc = ctx.basis.fiber_subbasis().describe()
            else:
                desc = {"kind": "cyclic-delta", "size": int(sub.frame.shape[0])}
            written[fname] = write_matrix(
                ctx.out / fname,
                sub.frame,
                desc,
                {"columns": sub.dim},
                "projection",
                {"y": sub.y, "bin": setup.bins[bi].describe(), "orbit_index": m},
            )
    written["bins.json"] = write_json(ctx.out / "bins.json", report)
    return written


def stage_eigenop(ctx: PipelineContext) -> dict[str, str]:
    ev = ctx.config["evaluation"]
    if ctx.is_continuous:
        y, s = float(ev["y"]), float(ev["s"])
        ystar = ctx.system.advanced_base_point(s, y)
        rank = ctx.config["decomposition"]["subspace_rank"]
        sub = restrict_at_base(ctx.leading_vectors, ctx.basis, ystar, rank)
        matrix = continuous_eigenoperator(ctx.system, sub, y, s, ctx.basis, ctx.grid)
        spec = eig_matrix(matrix, tol=ctx.config["spectra"]["tol"], source=CONTINUOUS_N)
        # Listed by (Im, Re). Every value is on the imaginary axis, so Re is 0.0 throughout.
        values = spec.eigenvalues[np.lexsort((spec.eigenvalues.real, spec.eigenvalues.imag))]
        doc = {
            "kind": CONTINUOUS_N,
            "y": y,
            "s": s,
            "subspace_rank": sub.dim,
            "eigenvalues": complex_list(values),
            "max_abs_real_part": float(np.max(np.abs(values.real))),
            "residual_tolerance": spec.tolerance,
        }
    else:
        bins = ctx.periodic_setup.bins
        ys = np.linspace(0.0, 2 * np.pi, int(ev["y_sample_count"]), endpoint=False)
        setups = (ctx.periodic_setup_at(float(y)) for y in ys)
        # Dimension drift across samples comes back as a per-bin error entry.
        aggregated = discrete_eigenoperator_spectrum(setups, int(ev["i"]), len(bins))
        doc = {"kind": DISCRETE_M, "bins": [b.describe() for b in bins], "aggregated": aggregated}
    return {"eigenoperator_spectrum.json": write_json(ctx.out / "eigenoperator_spectrum.json", doc)}


def stage_cocycle_field(ctx: PipelineContext) -> dict[str, str]:
    if not ctx.is_continuous:
        ctx.stage_notes.append("cocycle-field skipped: discrete map")
        return {}
    if ctx.system.fiber_dim != 2:
        ctx.stage_notes.append("cocycle-field skipped: field export needs a 2-d fiber")
        return {}
    ev = ctx.config["evaluation"]
    y, s = float(ev["y"]), float(ev["s"])
    ystar = ctx.system.advanced_base_point(s, y)
    fib = ctx.basis.fiber_subbasis()
    fgrid = Grid(tuple(ev["field_grid"]))
    formats = ctx.config["output"]["formats"]
    written = {}
    # The time-s flow from y is the same for every d.
    w = continuous_w(ctx.system, y, s, fib, fgrid, ev["steps_per_unit_time"])
    for d in ctx.config["decomposition"]["d_values"]:
        q = build_test_vector(ctx.leading_vectors, ctx.basis, y, d)
        sub = restrict_at_base(ctx.leading_vectors, ctx.basis, ystar, d)
        field = hatw_field(sub, q, w)
        if "csv" in formats:
            written[f"field_d{d}.csv"] = write_field_csv(ctx.out / f"field_d{d}.csv", field)
        if "ppm" in formats:
            image, sidecar = write_heatmap_ppm(ctx.out / f"field_d{d}.ppm", field)
            written[f"field_d{d}.ppm"], written[f"field_d{d}.ppm.json"] = image, sidecar
    return written


# Each stage writes its artifacts and returns {file name: sha256 of the bytes written}.
STAGE_FUNCS = {
    "assemble": stage_assemble,
    "eig": stage_eig,
    "oseledets": stage_oseledets,
    "eigenop": stage_eigenop,
    "cocycle-field": stage_cocycle_field,
}


def run_pipeline(config: dict, out, stages) -> tuple[dict, list[str]]:
    """Run the stages into out; return the manifest written and the stages whose files were reused.

    listed_stage_outputs decides everything: a requested stage with a
    non-empty kept record is not called, and every kept record is carried
    over with its files, so outputs is the union of stage_outputs. A
    stage that writes nothing, and so only leaves a note, runs.
    """
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    ctx = PipelineContext(config, out)
    hashes: dict[str, str] = {}
    stage_outputs: dict[str, list[str]] = {}
    reused = []
    for stage in ALL_STAGES:
        files = ctx.listed_stage_outputs(stage)
        if stage in stages and not files:
            written = STAGE_FUNCS[stage](ctx)
            ctx.current_sha256.update(written)
        elif files is not None:
            written = {name: ctx.previous_outputs[name] for name in files}
            if stage in stages:
                reused.append(stage)
        else:
            continue
        hashes.update(written)
        stage_outputs[stage] = sorted(written)
    manifest = {
        "config": config,
        "config_sha256": sha256_of(config),
        "versions": versions(),
        "stages": list(stages),
        "notes": ctx.stage_notes,
        "outputs": hashes,
        "stage_outputs": stage_outputs,
    }
    write_json(out / "manifest.json", manifest)
    return manifest, reused


def cmd_validate(args) -> int:
    from . import validation

    summary = validation.run_all()
    if args.out:
        Path(args.out).mkdir(parents=True, exist_ok=True)
        write_json(Path(args.out) / "validation_summary.json", summary)
    return 0 if summary["all_passed"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="eigenop",
        description="Spectral decomposition of skew-product dynamical systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ALL_STAGES + ("all",):
        p = sub.add_parser(name, help=f"run the {name} stage" if name != "all" else "run every stage")
        p.add_argument("--config", required=True, help="path to a JSON run configuration")
        p.add_argument("--out", default="out", help="output directory")
    pv = sub.add_parser("validate", help="run the full closed-form acceptance suite")
    pv.add_argument("--out", default=None, help="directory for the JSON summary")
    args = parser.parse_args(argv)

    if args.command == "validate":
        return cmd_validate(args)

    try:
        config = load_config(args.config)
        stages = ALL_STAGES if args.command == "all" else (args.command,)
        manifest, reused = run_pipeline(config, args.out, stages)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (EigensolveError, IntegrationError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure in stage pipeline: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    note = f"; reused: {', '.join(reused)}" if reused else ""
    print(f"wrote {args.out}/manifest.json, which lists {len(manifest['outputs'])} artifacts{note}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
