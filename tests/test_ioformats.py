"""Tests for on-disk formats: matrices, CSV fields, PPM heatmaps."""

import base64
import json
from pathlib import Path

import numpy as np
import pytest

from eigenop.basis import FieldSample, Grid, TruncatedBasis
from eigenop.generator import OperatorMatrix
from eigenop.ioformats import (
    MATRIX_FORMAT,
    canonical_json,
    complex_list,
    decode_matrix,
    encode_matrix,
    read_matrix,
    sha256_of,
    write_field_csv,
    write_heatmap_ppm,
    write_json,
    write_matrix,
)


def test_canonical_json_is_order_independent():
    a = canonical_json({"b": 1, "a": [1, 2]})
    b = canonical_json({"a": [1, 2], "b": 1})
    assert a == b == '{"a":[1,2],"b":1}'
    assert sha256_of({"b": 1, "a": [1, 2]}) == sha256_of({"a": [1, 2], "b": 1})


def test_encode_decode_round_trip():
    rng = np.random.default_rng(0)
    m = rng.standard_normal((4, 5)) + 1j * rng.standard_normal((4, 5))
    back = decode_matrix(encode_matrix(m), (4, 5))
    assert np.array_equal(back, m)


def test_write_read_matrix_round_trip(tmp_path):
    basis = TruncatedBasis((1,), ("fiber",))
    entries = np.arange(9, dtype=float).reshape(3, 3) + 1j
    op = OperatorMatrix(basis, basis, entries, "generator", {"note": "x"})
    path = tmp_path / "m.matrix.json"
    write_matrix(path, op.entries, op.rows.describe(), op.cols.describe(), op.provenance, op.meta)
    doc = read_matrix(path)
    assert doc["format"] == MATRIX_FORMAT
    assert doc["provenance"] == "generator"
    assert doc["meta"] == {"note": "x"}
    assert np.array_equal(doc["entries"], entries)


def test_read_matrix_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(ValueError):
        read_matrix(path)


def test_write_matrix_deterministic_bytes(tmp_path):
    basis = TruncatedBasis((1,), ("fiber",))
    op = OperatorMatrix(basis, basis, np.eye(3, dtype=complex), "generator")
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (p1, p2):
        write_matrix(path, op.entries, op.rows.describe(), op.cols.describe(), op.provenance, op.meta)
    assert p1.read_bytes() == p2.read_bytes()


def test_write_frame_records_shape(tmp_path):
    frame = np.eye(4, dtype=complex)[:, :2]
    path = tmp_path / "frame.matrix.json"
    write_matrix(path, frame, {"kind": "cyclic-delta", "size": 4}, {"columns": 2}, "projection", {"y": 0.5})
    doc = read_matrix(path)
    assert doc["shape"] == [4, 2]
    assert doc["rows"]["kind"] == "cyclic-delta"
    assert doc["cols"] == {"columns": 2}
    assert doc["provenance"] == "projection"
    assert np.array_equal(doc["entries"], frame)


def test_field_csv_layout(tmp_path):
    grid = Grid((2, 2))
    sample = FieldSample(grid, np.array([[1.0, 2.0], [3.0, 4.0]], dtype=complex))
    path = tmp_path / "field.csv"
    write_field_csv(path, sample)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "z1,z2,re,im"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert float(first[0]) == 0.0 and float(first[2]) == 1.0


def _reference_write_matrix(path, entries, rows, cols, provenance, meta):
    """The whole-document writer write_matrix streams: one canonical JSON string."""
    entries = np.asarray(entries, dtype=complex)
    inter = np.empty(entries.size * 2, dtype="<f8")
    inter[0::2] = entries.real.ravel()
    inter[1::2] = entries.imag.ravel()
    doc = {
        "format": MATRIX_FORMAT,
        "rows": rows,
        "cols": cols,
        "shape": list(np.shape(entries)),
        "provenance": provenance,
        "meta": meta,
        "payload": base64.b64encode(inter.tobytes()).decode("ascii"),
    }
    Path(path).write_text(canonical_json(doc) + "\n")


@pytest.mark.parametrize("shape", [(1, 1), (3, 2), (7, 5), (500, 401), (0, 4)])
def test_write_matrix_streams_the_reference_bytes(tmp_path, shape):
    # (500, 401) spans two payload chunks and ends mid-chunk.
    rng = np.random.default_rng(sum(shape))
    entries = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if entries.size:
        entries.flat[0] = complex(-0.0, 1e-310)
    args = ({"cutoffs": [1], "note": "\u00e9\"payload\":\"\""}, {"columns": shape[1]}, "projection", {"payload": "", "y": 0.5})
    write_matrix(tmp_path / "new.json", np.asfortranarray(entries), *args)
    _reference_write_matrix(tmp_path / "old.json", entries, *args)
    assert (tmp_path / "new.json").read_bytes() == (tmp_path / "old.json").read_bytes()
    assert np.array_equal(read_matrix(tmp_path / "new.json")["entries"], entries)


def _reference_write_field_csv(path, sample):
    """Row-at-a-time CSV writer that write_field_csv must match byte for byte."""
    lines = ["z1,z2,re,im"]
    for (z1, z2), v in zip(sample.grid.nodes, sample.values.ravel()):
        lines.append(f"{z1:.17g},{z2:.17g},{v.real:.17g},{v.imag:.17g}")
    Path(path).write_text("\n".join(lines) + "\n")


def test_field_csv_matches_the_row_at_a_time_reference(tmp_path):
    grid = Grid((9, 6))
    rng = np.random.default_rng(3)
    vals = rng.standard_normal(grid.shape) * 10.0 ** rng.integers(-300, 300, grid.shape)
    vals = vals + 1j * rng.standard_normal(grid.shape)
    vals.flat[:4] = [-0.0, 1e-320, 0.1 + 0.2j, 1.0 / 3.0 - 0.0j]
    # A second field on the grid, and one on an equal Grid, reuse the
    # formatted coordinates of the first.
    for k, (g, v) in enumerate(((grid, vals), (grid, vals[::-1] * 1j), (Grid((9, 6)), vals.T.reshape(9, 6)))):
        sample = FieldSample(g, v)
        write_field_csv(tmp_path / f"new{k}.csv", sample)
        _reference_write_field_csv(tmp_path / f"old{k}.csv", sample)
        assert (tmp_path / f"new{k}.csv").read_bytes() == (tmp_path / f"old{k}.csv").read_bytes(), k


def test_field_csv_requires_two_dims(tmp_path):
    sample = FieldSample(Grid((4,)), np.zeros(4))
    with pytest.raises(ValueError):
        write_field_csv(tmp_path / "x.csv", sample)


def test_heatmap_ppm_header_and_sidecar(tmp_path):
    grid = Grid((3, 5))
    vals = np.linspace(-2.0, 2.0, 15).reshape(3, 5)
    sample = FieldSample(grid, vals.astype(complex))
    path = tmp_path / "f.ppm"
    write_heatmap_ppm(path, sample)
    raw = path.read_bytes()
    assert raw.startswith(b"P6\n5 3\n255\n")
    assert len(raw) == len(b"P6\n5 3\n255\n") + 3 * 15
    sidecar = json.loads((tmp_path / "f.ppm.json").read_text())
    assert sidecar["component"] == "re"
    assert sidecar["normalization_max_abs"] == pytest.approx(2.0)


def test_heatmap_color_endpoints(tmp_path):
    grid = Grid((2, 3))
    vals = np.array([[-1.0, 0.0, 1.0], [-1.0, 0.0, 1.0]])
    sample = FieldSample(grid, vals.astype(complex))
    path = tmp_path / "c.ppm"
    write_heatmap_ppm(path, sample)
    body = path.read_bytes().split(b"255\n", 1)[1]
    pixels = np.frombuffer(body, dtype=np.uint8).reshape(2, 3, 3)
    assert tuple(pixels[0, 0]) == (0, 0, 255)  # most negative: blue
    assert tuple(pixels[0, 1]) == (255, 255, 255)  # zero: white
    assert tuple(pixels[0, 2]) == (255, 0, 0)  # most positive: red


def test_write_json_and_complex_list(tmp_path):
    path = tmp_path / "doc.json"
    write_json(path, {"values": complex_list([1 + 2j, -1j])})
    doc = json.loads(path.read_text())
    assert doc["values"] == [[1.0, 2.0], [0.0, -1.0]]
