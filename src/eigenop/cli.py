"""Configuration-driven command line front end.

Subcommands run individual pipeline stages (assemble, eig, oseledets,
eigenop, cocycle-field), the whole pipeline (all), or the acceptance
suite (validate). Configs are JSON, schema-checked with unknown keys
rejected; every omitted default is resolved before anything runs and
recorded in the output manifest. Reruns of the same config produce
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

if os.environ.get("EIGENOP_THREADS") and "OMP_NUM_THREADS" not in os.environ:
    os.environ["OMP_NUM_THREADS"] = os.environ["EIGENOP_THREADS"]
from functools import cached_property
from pathlib import Path

import numpy as np
from jsonschema.exceptions import best_match
from jsonschema.validators import validator_for

from . import __version__
from .basis import Grid, TruncatedBasis, default_grid
from .cocycle import build_test_vector, continuous_w, hatw_field
from .eigenoperator import continuous_eigenoperator, discrete_eigenoperator_spectrum
from .generator import GENERATOR, OperatorMatrix, assemble_generator, smoothed_generator, smoothing_weights
from .ioformats import (
    complex_list,
    read_matrix,
    sha256_of,
    write_field_csv,
    write_heatmap_ppm,
    write_json,
    write_matrix,
)
from .oseledets import PeriodicSetup, equivariance_residual, periodic_setup, restrict_at_base
from .spectra import EigensolveError, eig, sort_by_target
from .systems import ContinuousSkewSystem, IntegrationError, make_system

EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

ALL_STAGES = ("assemble", "eig", "oseledets", "eigenop", "cocycle-field")

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
                "params": {"type": "object"},
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
                "multiplier": {"type": "integer", "minimum": 1},
                "points": {"type": "array", "items": {"type": "integer", "minimum": 3}},
            },
        },
        "smoothing": {
            "type": "object",
            "additionalProperties": False,
            "required": ["tau", "p"],
            "properties": {
                "tau": {"type": "number", "exclusiveMinimum": 0},
                "p": {"type": "number", "exclusiveMinimum": 0},
                "rule": {"enum": ["power_law", "heat_kernel"]},
                "symmetric": {"type": "boolean"},
            },
        },
        "spectra": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "tol": {"type": "number", "exclusiveMinimum": 0},
                "sort_target": {"type": "array", "items": {"type": "number"}, "minItems": 2, "maxItems": 2},
            },
        },
        "decomposition": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "d_values": {"type": "array", "items": {"type": "integer", "minimum": 1}},
                "subspace_rank": {"type": "integer", "minimum": 1},
                "n_leading": {"type": "integer", "minimum": 1},
                "bin_count": {"type": "integer", "minimum": 1},
            },
        },
        "evaluation": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "y": {"type": "number"},
                "s": {"type": "number"},
                "i": {"type": "integer"},
                "y_sample_count": {"type": "integer", "minimum": 1},
                "steps_per_unit_time": {"type": "integer", "minimum": 1},
                "field_grid": {"type": "array", "items": {"type": "integer", "minimum": 4}, "minItems": 2, "maxItems": 2},
            },
        },
        "output": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "formats": {
                    "type": "array",
                    "items": {"enum": ["csv", "ppm", "json", "matrix"]},
                },
            },
        },
    },
}


# SCHEMA is a constant, so it is checked against its metaschema by the
# tests rather than on every resolve.
SCHEMA_VALIDATOR = validator_for(SCHEMA)(SCHEMA)


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def resolve_config(raw: dict) -> dict:
    """Validate against the schema and fill in every default."""
    error = best_match(SCHEMA_VALIDATOR.iter_errors(raw))
    if error is not None:
        raise ConfigError(f"config schema violation: {error.message}")
    cfg = {
        "system": {"name": raw["system"]["name"], "params": dict(raw["system"].get("params", {}))},
        "truncation": {"cutoffs": list(raw["truncation"]["cutoffs"])},
        "grid": {
            "multiplier": raw.get("grid", {}).get("multiplier", 4),
            "points": raw.get("grid", {}).get("points"),
        },
        "smoothing": None,
        "spectra": {
            "tol": raw.get("spectra", {}).get("tol", 1e-6),
            "sort_target": list(raw.get("spectra", {}).get("sort_target", [1e-10, 0.0])),
        },
        "decomposition": {
            "d_values": list(raw.get("decomposition", {}).get("d_values", [1])),
            "subspace_rank": raw.get("decomposition", {}).get("subspace_rank", 1),
            "n_leading": raw.get("decomposition", {}).get("n_leading"),
            "bin_count": raw.get("decomposition", {}).get("bin_count"),
        },
        "evaluation": {
            "y": raw.get("evaluation", {}).get("y", 0.0),
            "s": raw.get("evaluation", {}).get("s", 0.0),
            "i": raw.get("evaluation", {}).get("i", 1),
            "y_sample_count": raw.get("evaluation", {}).get("y_sample_count", 64),
            "steps_per_unit_time": raw.get("evaluation", {}).get("steps_per_unit_time", 200),
            "field_grid": list(raw.get("evaluation", {}).get("field_grid", [128, 128])),
        },
        "output": {"formats": list(raw.get("output", {}).get("formats", ["json", "matrix", "csv", "ppm"]))},
    }
    if "smoothing" in raw and raw["smoothing"] is not None:
        sm = raw["smoothing"]
        cfg["smoothing"] = {
            "tau": sm["tau"],
            "p": sm["p"],
            "rule": sm.get("rule", "power_law"),
            "symmetric": sm.get("symmetric", False),
        }
    if cfg["decomposition"]["n_leading"] is None:
        cfg["decomposition"]["n_leading"] = max(
            cfg["decomposition"]["d_values"] + [cfg["decomposition"]["subspace_rank"]]
        )
    return cfg


def bundled_config(name: str) -> dict:
    path = Path(__file__).parent / "configs" / f"{name}.json"
    if not path.exists():
        raise ConfigError(f"no bundled config named '{name}'")
    return resolve_config(json.loads(path.read_text()))


def load_config(path) -> dict:
    try:
        raw = json.loads(Path(path).read_text())
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config must be a JSON object")
    return resolve_config(raw)


class PipelineContext:
    """Lazy shared state for one pipeline run."""

    def __init__(self, config: dict, out: Path):
        self.config = config
        self.out = Path(out)
        self.stage_notes: list[str] = []

    @cached_property
    def system(self):
        sc = self.config["system"]
        try:
            return make_system(sc["name"], **sc["params"])
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"cannot instantiate system '{sc['name']}': {exc}") from exc

    @property
    def is_continuous(self) -> bool:
        return isinstance(self.system, ContinuousSkewSystem)

    @cached_property
    def basis(self) -> TruncatedBasis:
        cutoffs = tuple(self.config["truncation"]["cutoffs"])
        if self.is_continuous:
            if len(cutoffs) != 1 + self.system.fiber_dim:
                raise ConfigError(
                    f"system '{self.system.name}' needs {1 + self.system.fiber_dim} cutoffs, got {len(cutoffs)}"
                )
        roles = ("base",) + ("fiber",) * (len(cutoffs) - 1)
        return TruncatedBasis(cutoffs, roles)

    @cached_property
    def grid(self) -> Grid:
        points = self.config["grid"]["points"]
        if points is not None:
            if len(points) != self.basis.ndim:
                raise ConfigError("grid points length must match the cutoffs")
            g = Grid(tuple(points))
            g.check_no_aliasing(self.basis)
            return g
        return default_grid(self.basis, self.config["grid"]["multiplier"])

    @cached_property
    def generator_matrix(self):
        cached = self._load_cached("generator.matrix.json", GENERATOR)
        if cached is not None:
            return OperatorMatrix(self.basis, self.basis, cached["entries"], GENERATOR, cached["meta"])
        return assemble_generator(self.system, self.basis, self.grid)

    @cached_property
    def operator_for_spectra(self):
        sm = self.config["smoothing"]
        if sm is None:
            return self.generator_matrix
        w = smoothing_weights(self.basis, sm["tau"], sm["p"], sm["rule"])
        return smoothed_generator(self.generator_matrix, w, sm["symmetric"])

    @cached_property
    def sorted_spectrum(self):
        target = complex(*self.config["spectra"]["sort_target"])
        report = eig(self.operator_for_spectra, tol=self.config["spectra"]["tol"])
        return sort_by_target(report, target)

    @cached_property
    def leading_vectors(self) -> np.ndarray:
        n = min(self.config["decomposition"]["n_leading"], self.sorted_spectrum.size)
        return self.sorted_spectrum.eigenvectors[:, :n]

    def periodic_setup_at(self, y: float) -> PeriodicSetup:
        map_ = self.system
        if map_.base_period is None:
            raise ConfigError("periodic decomposition needs a declared base period")
        if map_.fiber_kind not in ("torus", "cyclic"):
            raise ConfigError(f"pipeline does not decompose fiber kind '{map_.fiber_kind}'")
        fib = self.basis.fiber_subbasis()
        return periodic_setup(map_, y, fib, default_grid(fib, self.config["grid"]["multiplier"]))

    @cached_property
    def periodic_setup(self) -> PeriodicSetup:
        """Discrete decomposition at the evaluation base point."""
        return self.periodic_setup_at(float(self.config["evaluation"]["y"]))

    def _load_cached(self, filename: str, provenance: str):
        """The on-disk matrix document, if its manifest hash matches this config."""
        path = self.out / filename
        manifest = self.out / "manifest.json"
        if not (path.exists() and manifest.exists()):
            return None
        try:
            recorded = json.loads(manifest.read_text()).get("config_sha256")
            if recorded != sha256_of(self.config):
                return None
            doc = read_matrix(path)
            if doc.get("provenance") != provenance:
                return None
            return doc
        except (ValueError, KeyError, OSError):
            return None


def stage_assemble(ctx: PipelineContext) -> list[str]:
    if not ctx.is_continuous:
        ctx.stage_notes.append("assemble skipped: discrete map has no flow generator")
        return []
    operators = {"generator.matrix.json": ctx.generator_matrix}
    if ctx.config["smoothing"] is not None:
        operators["smoothed_generator.matrix.json"] = ctx.operator_for_spectra
    for fname, op in operators.items():
        write_matrix(ctx.out / fname, op.entries, op.rows.describe(), op.cols.describe(), op.provenance, op.meta)
    return list(operators)


def stage_eig(ctx: PipelineContext) -> list[str]:
    if not ctx.is_continuous:
        ctx.stage_notes.append("eig skipped: discrete map has no flow generator")
        return []
    report = ctx.sorted_spectrum
    write_json(ctx.out / "spectrum.json", report.to_json_dict())
    count = int(ctx.leading_vectors.shape[1])
    write_matrix(
        ctx.out / "leading_vectors.matrix.json",
        ctx.leading_vectors,
        ctx.basis.describe(),
        {"columns": count},
        "projection",
        {"count": count, "sort_rule": report.sort_rule},
    )
    return ["spectrum.json", "leading_vectors.matrix.json"]


def stage_oseledets(ctx: PipelineContext) -> list[str]:
    written = []
    if ctx.is_continuous:
        y = float(ctx.config["evaluation"]["y"])
        for d in ctx.config["decomposition"]["d_values"]:
            sub = restrict_at_base(ctx.leading_vectors, ctx.basis, y, d)
            fname = f"subspace_d{d}.matrix.json"
            write_matrix(
                ctx.out / fname,
                sub.frame,
                ctx.basis.fiber_subbasis().describe(),
                {"columns": sub.dim},
                "projection",
                {"y": y, "effective_rank": sub.effective_rank, "requested": d},
            )
            written.append(fname)
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
            write_matrix(
                ctx.out / fname,
                sub.frame,
                desc,
                {"columns": sub.dim},
                "projection",
                {"y": sub.y, "bin": sub.meta.get("bin"), "orbit_index": m},
            )
            written.append(fname)
    write_json(ctx.out / "bins.json", report)
    written.append("bins.json")
    return written


def stage_eigenop(ctx: PipelineContext) -> list[str]:
    ev = ctx.config["evaluation"]
    if ctx.is_continuous:
        y, s = float(ev["y"]), float(ev["s"])
        ystar = float(np.mod(ctx.system.base_flow(s, np.asarray(y)), 2 * np.pi))
        rank = ctx.config["decomposition"]["subspace_rank"]
        sub = restrict_at_base(ctx.leading_vectors, ctx.basis, ystar, rank)
        sample = continuous_eigenoperator(ctx.system, sub, y, s, ctx.basis, ctx.grid)
        spec = sample.spectrum(tol=ctx.config["spectra"]["tol"])
        doc = {
            "kind": sample.kind,
            "y": y,
            "s": s,
            "subspace_rank": sub.dim,
            "eigenvalues": complex_list(spec.eigenvalues),
            "max_abs_real_part": float(np.max(np.abs(spec.eigenvalues.real))),
            "residual_tolerance": spec.tolerance,
        }
    else:
        bins = ctx.periodic_setup.bins
        ys = np.linspace(0.0, 2 * np.pi, int(ev["y_sample_count"]), endpoint=False)
        # Dimension drift across samples comes back as a per-bin error entry.
        aggregated = discrete_eigenoperator_spectrum(ctx.system, ys, int(ev["i"]), ctx.periodic_setup_at, len(bins))
        for agg in aggregated:
            if "eigenvalues" in agg:
                agg["eigenvalues"] = [
                    {
                        "value": [c["value"].real, c["value"].imag],
                        "support": c["support"],
                        "spread": c["spread"],
                    }
                    for c in agg["eigenvalues"]
                ]
        doc = {"kind": "discrete_M", "bins": [b.describe() for b in bins], "aggregated": aggregated}
    write_json(ctx.out / "eigenoperator_spectrum.json", doc)
    return ["eigenoperator_spectrum.json"]


def stage_cocycle_field(ctx: PipelineContext) -> list[str]:
    if not ctx.is_continuous:
        ctx.stage_notes.append("cocycle-field skipped: discrete map")
        return []
    if ctx.system.fiber_dim != 2:
        ctx.stage_notes.append("cocycle-field skipped: field export needs a 2-d fiber")
        return []
    ev = ctx.config["evaluation"]
    y, s = float(ev["y"]), float(ev["s"])
    ystar = float(np.mod(ctx.system.base_flow(s, np.asarray(y)), 2 * np.pi))
    fib = ctx.basis.fiber_subbasis()
    fgrid = Grid(tuple(ev["field_grid"]))
    formats = ctx.config["output"]["formats"]
    written = []
    # The time-s flow from y is the same for every d.
    w = continuous_w(ctx.system, y, s, fib, fgrid, ev["steps_per_unit_time"])
    for d in ctx.config["decomposition"]["d_values"]:
        q = build_test_vector(ctx.leading_vectors, ctx.basis, y, d)
        sub = restrict_at_base(ctx.leading_vectors, ctx.basis, ystar, d)
        field = hatw_field(sub, q.coeffs, w)
        if "csv" in formats:
            write_field_csv(ctx.out / f"field_d{d}.csv", field)
            written.append(f"field_d{d}.csv")
        if "ppm" in formats:
            write_heatmap_ppm(ctx.out / f"field_d{d}.ppm", field, component="re")
            written.extend([f"field_d{d}.ppm", f"field_d{d}.ppm.json"])
    return written


STAGE_FUNCS = {
    "assemble": stage_assemble,
    "eig": stage_eig,
    "oseledets": stage_oseledets,
    "eigenop": stage_eigenop,
    "cocycle-field": stage_cocycle_field,
}


def run_pipeline(config: dict, out, stages) -> dict:
    out = Path(out)
    out.mkdir(parents=True, exist_ok=True)
    ctx = PipelineContext(config, out)
    outputs: list[str] = []
    ran = []
    for stage in stages:
        outputs.extend(STAGE_FUNCS[stage](ctx))
        ran.append(stage)
    import hashlib

    hashes = {}
    for name in sorted(set(outputs)):
        hashes[name] = hashlib.sha256((out / name).read_bytes()).hexdigest()
    manifest = {
        "config": config,
        "config_sha256": sha256_of(config),
        "versions": {
            "package": __version__,
            "numpy": np.__version__,
            "python": f"{sys.version_info.major}.{sys.version_info.minor}",
        },
        "stages": ran,
        "notes": ctx.stage_notes,
        "outputs": hashes,
    }
    write_json(out / "manifest.json", manifest)
    return manifest


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
        manifest = run_pipeline(config, args.out, stages)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_SCHEMA
    except (EigensolveError, IntegrationError, np.linalg.LinAlgError) as exc:
        print(f"numerical failure in stage pipeline: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except OSError as exc:
        print(f"I/O failure: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(manifest['outputs'])} artifacts to {args.out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
