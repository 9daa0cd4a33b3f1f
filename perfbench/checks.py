"""Output checks for one CLI invocation, independent of the package.

Matrices are decoded here from the documented on-disk format rather
than through `eigenop.ioformats`, and closed-form rotation eigenvalues
are computed here rather than taken from `eigenop.oracles`. Subspace
frames and fields are not compared against stored files: they are not
invariant across BLAS thread counts.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

MATRIX_FORMAT = "complex-matrix/base64-le-f64-interleaved/v1"
ROTATION_TOL = 1e-6
EQUIVARIANCE_TOL = 1e-10


def file_sha256(path: Path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def load_matrix(path: Path) -> np.ndarray:
    doc = json.loads(path.read_text())
    if doc.get("format") != MATRIX_FORMAT:
        raise ValueError(f"{path.name}: unexpected matrix format {doc.get('format')!r}")
    raw = np.frombuffer(base64.b64decode(doc["payload"]), dtype="<f8")
    return (raw[0::2] + 1j * raw[1::2]).reshape(doc["shape"])


def spectral_norm_lower_bound(A: np.ndarray, iterations: int = 30) -> float:
    """Power iteration on A^H A from a fixed random start."""
    v = np.random.default_rng(0).standard_normal(A.shape[1]) + 0j
    sigma = 0.0
    for _ in range(iterations):
        w = A.conj().T @ (A @ v)
        nw = np.linalg.norm(w)
        if nw == 0.0:
            return 0.0
        sigma = float(np.sqrt(nw))
        v = w / nw
    return sigma


def rotation_reference(alpha: float) -> np.ndarray:
    """Closed-form generator eigenvalues i(k + j alpha), |k|, |j| <= 2."""
    return np.array([1j * (k + j * alpha) for k in range(-2, 3) for j in range(-2, 3)])


def worst_one_to_one_match(computed: np.ndarray, reference: np.ndarray) -> float:
    """Match each reference value to a distinct computed value, closest pairs first."""
    dist = np.abs(reference[:, None] - computed[None, :])
    worst = 0.0
    for _ in range(len(reference)):
        r, c = np.unravel_index(np.argmin(dist), dist.shape)
        worst = max(worst, float(dist[r, c]))
        dist[r, :] = np.inf
        dist[:, c] = np.inf
    return worst


def _check_manifest(out: Path, problems: list[str]) -> dict:
    manifest = json.loads((out / "manifest.json").read_text())
    for name, recorded in manifest["outputs"].items():
        path = out / name
        if not path.is_file():
            problems.append(f"{name}: listed in manifest but missing")
        elif file_sha256(path) != recorded:
            problems.append(f"{name}: sha256 differs from manifest")
    return manifest


def _check_spectrum(out: Path, config: dict, problems: list[str]):
    spec = json.loads((out / "spectrum.json").read_text())
    tol = float(spec["tolerance"])
    worst = max(spec["residuals"])
    if worst > tol:
        problems.append(f"spectrum.json: residual {worst:.3e} above its tolerance {tol:.3e}")
    values = np.array([complex(re, im) for re, im in spec["eigenvalues"]])

    op_name = "generator.matrix.json" if config["smoothing"] is None else "smoothed_generator.matrix.json"
    A = load_matrix(out / op_name)
    V = load_matrix(out / "leading_vectors.matrix.json")
    n = V.shape[1]
    expected = min(config["decomposition"]["n_leading"], A.shape[0])
    if n != expected:
        problems.append(f"leading_vectors: {n} columns, expected {expected}")
    scale = spectral_norm_lower_bound(A) or 1.0
    resid = np.linalg.norm(A @ V - V * values[None, :n], axis=0) / scale
    if resid.max() > tol:
        problems.append(f"leading eigenpairs: recomputed residual {resid.max():.3e} above {tol:.3e}")

    if config["system"]["name"] == "rotation":
        worst = worst_one_to_one_match(values, rotation_reference(config["system"]["params"]["alpha"]))
        if worst > ROTATION_TOL:
            problems.append(f"rotation: closed-form eigenvalues matched only to {worst:.3e}")


def _check_bins(out: Path, problems: list[str]):
    bins = json.loads((out / "bins.json").read_text())
    worst = max(bins["equivariance_residuals"], default=0.0)
    if worst > EQUIVARIANCE_TOL:
        problems.append(f"bins.json: equivariance residual {worst:.3e} above {EQUIVARIANCE_TOL:g}")


def check_invocation(out: Path, config: dict) -> tuple[list[str], dict]:
    """Check the artifacts of one successful invocation.

    `config` is the resolved config. Returns (problems, facts), where
    facts holds the artifact hashes and the eigenoperator error count.
    """
    problems: list[str] = []
    manifest = _check_manifest(out, problems)
    outputs = manifest["outputs"]
    if "spectrum.json" in outputs:
        _check_spectrum(out, config, problems)
    if "bins.json" in outputs:
        _check_bins(out, problems)
    errors = 0
    if "eigenoperator_spectrum.json" in outputs:
        doc = json.loads((out / "eigenoperator_spectrum.json").read_text())
        errors = sum(1 for agg in doc.get("aggregated", []) if "error" in agg)
    hashes = dict(outputs)
    hashes["manifest.json"] = file_sha256(out / "manifest.json")
    return problems, {"hashes": hashes, "aggregate_errors": errors}
