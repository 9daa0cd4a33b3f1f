"""Portable on-disk formats: matrices, field CSVs, PPM heatmaps, manifests.

Matrix format: a single JSON document with a "payload" field holding the
base64 encoding of the entries as little-endian float64 pairs (re, im),
row-major; write_matrix writes operators and subspace frames alike.
Field CSV: header `z1,z2,re,im`, row-major node order, 17 significant
digits. Heatmaps: binary PPM (P6) with a symmetric diverging
scale about zero; the normalization constant lands in a sidecar JSON.
All writers are deterministic: identical inputs give identical bytes.
"""

from __future__ import annotations

import base64
import hashlib
import json
from pathlib import Path

import numpy as np

from .basis import FieldSample

MATRIX_FORMAT = "complex-matrix/base64-le-f64-interleaved/v1"


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def encode_matrix(entries: np.ndarray) -> str:
    entries = np.asarray(entries, dtype=complex)
    inter = np.empty(entries.size * 2, dtype="<f8")
    inter[0::2] = entries.real.ravel()
    inter[1::2] = entries.imag.ravel()
    return base64.b64encode(inter.tobytes()).decode("ascii")


def decode_matrix(payload: str, shape) -> np.ndarray:
    raw = np.frombuffer(base64.b64decode(payload), dtype="<f8")
    out = raw[0::2] + 1j * raw[1::2]
    return out.reshape(shape)


def write_matrix(path, entries: np.ndarray, rows: dict, cols: dict, provenance: str, meta: dict):
    """One matrix document; rows and cols describe its two index sets.

    An operator gives its bases' descriptions and its provenance tag. A
    subspace frame gives its row basis, {"columns": k} and "projection".
    """
    doc = {
        "format": MATRIX_FORMAT,
        "rows": rows,
        "cols": cols,
        "shape": list(np.shape(entries)),
        "provenance": provenance,
        "meta": meta,
        "payload": encode_matrix(entries),
    }
    Path(path).write_text(canonical_json(doc) + "\n")


def read_matrix(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != MATRIX_FORMAT:
        raise ValueError(f"unrecognized matrix format in {path}")
    doc["entries"] = decode_matrix(doc["payload"], tuple(doc["shape"]))
    return doc


def write_field_csv(path, sample: FieldSample):
    """Two fiber coordinates per row; row-major over the grid."""
    if sample.grid.ndim != 2:
        raise ValueError("field CSV export requires a 2-d fiber grid")
    nodes = sample.grid.nodes
    vals = sample.values.ravel()
    lines = ["z1,z2,re,im"]
    for (z1, z2), v in zip(nodes, vals):
        lines.append(f"{z1:.17g},{z2:.17g},{v.real:.17g},{v.imag:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def _diverging_rgb(t: np.ndarray) -> np.ndarray:
    """Map values in [-1, 1] to blue-white-red bytes."""
    t = np.clip(t, -1.0, 1.0)
    r = np.where(t >= 0, 1.0, 1.0 + t)
    g = 1.0 - np.abs(t)
    b = np.where(t <= 0, 1.0, 1.0 - t)
    rgb = np.stack([r, g, b], axis=-1)
    return np.round(rgb * 255.0).astype(np.uint8)


def write_heatmap_ppm(path, sample: FieldSample, component: str = "re"):
    """Binary PPM of one field component, symmetric scale about zero.

    Writes a sidecar JSON next to the image with the normalization
    constant and the component tag.
    """
    if sample.grid.ndim != 2:
        raise ValueError("heatmap export requires a 2-d fiber grid")
    data = sample.values.real if component == "re" else sample.values.imag
    vmax = float(np.max(np.abs(data)))
    scale = vmax if vmax > 0 else 1.0
    img = _diverging_rgb(data / scale)
    h, w = img.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(img.tobytes())
    sidecar = {
        "component": component,
        "normalization_max_abs": vmax,
        "width": w,
        "height": h,
        "scale": "symmetric diverging about 0",
    }
    Path(str(path) + ".json").write_text(canonical_json(sidecar) + "\n")


def write_json(path, obj):
    Path(path).write_text(canonical_json(obj) + "\n")


def complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]
