"""Configuration-driven command line front end.

Subcommands run individual pipeline stages (assemble, eig, oseledets,
eigenop, cocycle-field), the whole pipeline (all), or the acceptance
suite (validate). Configs are JSON, checked against two tables: SCHEMA,
each key's type, bound and default, and READS, the keys each registered
system reads. An undeclared key, a key the named system never reads, an
unregistered system, a wrong type (an integer key takes no float, 1.0
included, and a bool is no number), a value out of bounds and a list of
the wrong length are rejected. Every omitted default is resolved before
anything runs and recorded in the output manifest; every command checks
the system, the basis and the smoothing weights (none may underflow to 0)
before it makes the output directory. Reruns of the same config produce
byte-identical artifacts. The stage is the only unit of reuse: a rerun
into the same directory, for the same config, versions, package source
and BLAS thread settings, keeps each stage record whose files are
unchanged. Its stage is not run, and a stage that does run reads the
leading vectors back from a kept eig record instead of solving.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import sys
from copy import deepcopy
from dataclasses import replace
from functools import cache, cached_property
from pathlib import Path

import numpy as np

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


# The default of a key that a config must set.
REQUIRED = object()

# section -> key -> (type, bound, default). A type is int, float, str or dict,
# or (list, entry type, least length, greatest length); bool is neither int
# nor float, and a float key takes an int too. A bound (">", x) or (">=", x)
# holds of a number and of each entry of a list. An absent key resolves to a
# deep copy of its default; an absent section resolves to its defaults, except
# smoothing, which resolves to null (no smoothing).
SCHEMA = {
    "system": {"name": (str, None, REQUIRED), "params": (dict, None, {})},
    "truncation": {"cutoffs": ((list, int, 1, math.inf), (">=", 1), REQUIRED)},
    "grid": {"multiplier": (int, (">=", 1), 4), "points": ((list, int, 0, math.inf), (">=", 3), None)},
    "smoothing": {"tau": (float, (">", 0), REQUIRED), "p": (float, (">", 0), REQUIRED)},
    "spectra": {"tol": (float, (">", 0), 1e-6)},
    "decomposition": {
        "d_values": ((list, int, 0, math.inf), (">=", 1), [1]),
        "subspace_rank": (int, (">=", 1), 1),
        # None resolves to max(d_values + [subspace_rank]), which is also its minimum.
        "n_leading": (int, (">=", 1), None),
    },
    "evaluation": {
        "y": (float, None, 0.0),
        "s": (float, None, 0.0),
        "i": (int, None, 1),
        "y_sample_count": (int, (">=", 1), 64),
        "field_grid": ((list, int, 2, 2), (">=", 4), [128, 128]),
    },
}

# The sections and keys each registered system reads: a config naming it may
# set no other. A continuous system reads every key but some of evaluation's.
# A torus map builds its fiber grid from the multiplier alone, and rotation's
# 1-d fiber writes no field. cyclic_group reads no cutoff and torus_translation
# no base cutoff; both stay accepted while the benchmark's configs pass them.
_EVERY_KEY = {section: tuple(keys) for section, keys in SCHEMA.items()}
_DISCRETE = {"system": _EVERY_KEY["system"], "truncation": _EVERY_KEY["truncation"]}
READS = {
    "cyclic_group": {**_DISCRETE, "evaluation": ("y", "i", "y_sample_count")},
    "torus_translation": {**_DISCRETE, "grid": ("multiplier",), "evaluation": ("y", "i", "y_sample_count")},
    "rotation": {**_EVERY_KEY, "evaluation": ("y", "s")},
    "gaussian_vortex": {**_EVERY_KEY, "evaluation": ("y", "s", "field_grid")},
    "stratospheric": {**_EVERY_KEY, "evaluation": ("y", "s", "field_grid")},
}

_JSON_TYPES = {int: "integer", float: "number", str: "string", dict: "object", list: "array"}


class ConfigError(ValueError):
    """Invalid or inconsistent run configuration."""


def _violation(path: str, message: str) -> ConfigError:
    return ConfigError(f"config schema violation{f' at {path}' if path else ''}: {message}")


def _check_value(path: str, value, kind, bound):
    """Raise the violation of the first entry of value that is not of kind or breaks bound."""
    if isinstance(kind, tuple):
        _, entry, least, most = kind
        _check_value(path, value, list, None)
        if not least <= len(value) <= most:
            needs = f"exactly {least}" if least == most else f"at least {least}"
            raise _violation(path, f"{value!r} has {len(value)} entries, needs {needs}")
        for index, item in enumerate(value):
            _check_value(f"{path}.{index}", item, entry, bound)
        return
    if isinstance(value, bool) or not isinstance(value, (int, float) if kind is float else kind):
        raise _violation(path, f"{value!r} is not of type {_JSON_TYPES[kind]!r}")
    if bound is not None and not (value > bound[1] if bound[0] == ">" else value >= bound[1]):
        raise _violation(path, f"{value!r} is not {bound[0]} {bound[1]}")


def _checked(raw: dict) -> dict:
    """raw with every default filled in, as deep copies, if SCHEMA and READS admit it.

    The system section is checked first, since what else a config may set
    depends on its system's name.
    """
    for section in raw:
        if section not in SCHEMA:
            raise _violation("", f"{section!r} is not a declared section")
    cfg, name, reads = {}, None, None
    for section, keys in SCHEMA.items():
        if section in raw:
            if reads is not None and section not in reads:
                raise _violation("", f"{section!r} is not read by system {name!r}")
            _check_value(section, raw[section], dict, None)
        elif section == "smoothing":
            cfg[section] = None
            continue
        elif any(default is REQUIRED for *_, default in keys.values()):
            raise _violation("", f"{section!r} is a required property")
        value = raw.get(section, {})
        for key in value:
            if key not in keys:
                raise _violation(section, f"{key!r} is not a declared key")
            if reads is not None and key not in reads[section]:
                raise _violation(section, f"{key!r} is not read by system {name!r}")
        cfg[section] = {}
        for key, (kind, bound, default) in keys.items():
            if key in value:
                _check_value(f"{section}.{key}", value[key], kind, bound)
            elif default is REQUIRED:
                raise _violation(section, f"{key!r} is a required property")
            cfg[section][key] = deepcopy(value.get(key, default))
        if section == "system":
            name = cfg["system"]["name"]
            if name not in READS:
                raise _violation("system.name", f"{name!r} is not a registered system: {', '.join(READS)}")
            reads = READS[name]
    return cfg


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
    """Check raw against SCHEMA, READS and the cross-key rules, and fill in every default."""
    where = _non_finite_path(raw)
    if where is not None:
        raise ConfigError(f"{where} is not a finite float")
    cfg = _checked(raw)
    dec = cfg["decomposition"]
    needed = max(dec["d_values"] + [dec["subspace_rank"]])
    if dec["n_leading"] is None:
        dec["n_leading"] = needed
    elif dec["n_leading"] < needed:
        raise ConfigError(f"decomposition.n_leading must be at least max(d_values + [subspace_rank]) = {needed}")
    size = math.prod(2 * k + 1 for k in cfg["truncation"]["cutoffs"])
    if needed > size:
        raise ConfigError(f"max(d_values + [subspace_rank]) = {needed} exceeds the basis size {size}")
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
        self.setup_memo: dict = {}  # periodic_setup's transfers and decompositions, by content

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
        return TruncatedBasis(cutoffs, roles)

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
        """diag(w) V, or V unsmoothed."""
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

    @cached_property
    def fiber_basis(self) -> TruncatedBasis:
        return self.basis.fiber_subbasis()

    @cached_property
    def fiber_grid(self) -> Grid:
        """A torus map's fiber grid, from the multiplier alone."""
        return default_grid(self.fiber_basis, self.config["grid"]["multiplier"])

    def periodic_setup_at(self, y: float) -> PeriodicSetup:
        return periodic_setup(self.system, y, self.fiber_basis, self.fiber_grid, self.setup_memo)

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
            fname, meta = f"subspace_d{d}.matrix.json", {"y": y, "effective_rank": sub.dim, "requested": d}
            desc = ctx.fiber_basis.describe()
            written[fname] = write_matrix(ctx.out / fname, sub.frame, desc, {"columns": sub.dim}, "projection", meta)
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
        residuals = (equivariance_residual(family[(m + 1) % n], family[m], setup.transfers[m]) for m in range(n))
        report["equivariance_residuals"].append(max(0.0, *residuals))
        for m, sub in enumerate(family):
            fname = f"subspace_bin{bi}_orbit{m}.matrix.json"
            meta = {"y": sub.y, "bin": setup.bins[bi].describe(), "orbit_index": m}
            torus = ctx.system.fiber_kind == "torus"
            desc = ctx.fiber_basis.describe() if torus else {"kind": "cyclic-delta", "size": int(sub.frame.shape[0])}
            written[fname] = write_matrix(ctx.out / fname, sub.frame, desc, {"columns": sub.dim}, "projection", meta)
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
    written = {}
    # The time-s flow from y is the same for every d.
    w = continuous_w(ctx.system, y, s, ctx.fiber_basis, Grid(tuple(ev["field_grid"])))
    for d in ctx.config["decomposition"]["d_values"]:
        q = build_test_vector(ctx.leading_vectors, ctx.basis, y, d)
        sub = restrict_at_base(ctx.leading_vectors, ctx.basis, ystar, d)
        field = hatw_field(sub, q, w)
        written[f"field_d{d}.csv"] = write_field_csv(ctx.out / f"field_d{d}.csv", field)
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
    ctx = PipelineContext(config, out)
    # Checked whichever stages run, so every command rejects the same configs, and before mkdir.
    ctx.system, ctx.basis, ctx.weights
    out.mkdir(parents=True, exist_ok=True)
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


@cache
def _parser() -> argparse.ArgumentParser:
    """The command line, built on the first main call: building it costs more than parsing."""
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
    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)

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
