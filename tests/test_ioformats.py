"""Tests for on-disk formats: matrices, CSV fields, PPM heatmaps."""

import base64
import errno
import hashlib
import io
import json
import math
import struct
import threading
import tracemalloc
import weakref
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from eigenop import cli, ioformats
from eigenop.basis import FieldSample, Grid, TruncatedBasis
from eigenop.generator import BlockOperator
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
    path = tmp_path / "m.matrix.json"
    write_matrix(path, entries, basis.describe(), basis.describe(), "generator", {"note": "x"})
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
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    for path in (p1, p2):
        write_matrix(path, np.eye(3, dtype=complex), basis.describe(), basis.describe(), "generator", {})
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
    """The whole document write_matrix streams, built as one string with json and base64 alone."""
    entries = np.asarray(entries)
    doc = {
        "format": MATRIX_FORMAT,
        "rows": rows,
        "cols": cols,
        "shape": list(entries.shape),
        "provenance": provenance,
        "meta": meta,
        "payload": base64.b64encode(np.ascontiguousarray(entries, dtype="<c16").tobytes()).decode("ascii"),
    }
    Path(path).write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")


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


def _bits(entries):
    return np.ascontiguousarray(entries, dtype="<c16").view("<u8")


def _assert_writes_the_reference(tmp_path, entries, dense=None, args=None):
    """write_matrix of entries gives the reference document of dense (entries itself by default) and reads back bit for bit."""
    dense = entries if dense is None else dense
    args = args or ({"kind": "test"}, {"columns": dense.shape[1]}, "projection", {"y": 0.5})
    digest = write_matrix(tmp_path / "new.json", entries, *args)
    _reference_write_matrix(tmp_path / "ref.json", dense, *args)
    raw = (tmp_path / "new.json").read_bytes()
    assert raw == (tmp_path / "ref.json").read_bytes()
    assert digest == hashlib.sha256(raw).hexdigest()
    assert np.array_equal(_bits(read_matrix(tmp_path / "new.json")["entries"]), _bits(dense))


def _fill(kind, shape, rng):
    """Entries of one kind: dense, 95% exact zeros, a lone signed zero or a lone subnormal among zeros."""
    if kind == "dense":
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    if kind == "sparse":
        dense = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
        return np.where(rng.random(shape) < 0.95, 0j, dense)
    entries = np.zeros(shape, dtype=complex)
    # Index 1 lies inside the first 48-byte group whenever there is one.
    lone = {"neg_zero_re": complex(-0.0, 0.0), "neg_zero_im": complex(0.0, -0.0), "subnormal": complex(5e-324, 0.0)}
    if entries.size:
        entries.flat[min(1, entries.size - 1)] = lone[kind]
    return entries


SHAPES = [(1, 1), (1, 2), (2, 2), (3, 5), (7, 7), (0, 3), (4, 0), (60, 61)]


@pytest.mark.parametrize("kind", ["dense", "sparse", "neg_zero_re", "neg_zero_im", "subnormal"])
@pytest.mark.parametrize("shape", SHAPES, ids=lambda shape: "x".join(map(str, shape)))
def test_write_matrix_matches_the_whole_document_reference(tmp_path, monkeypatch, shape, kind):
    entries = _fill(kind, shape, np.random.default_rng(sum(shape)))
    # A small _PAYLOAD_CHUNK gives chunks of 3 rows, so chunks end mid-matrix.
    for chunk in (ioformats._PAYLOAD_CHUNK, 3, 3 * 7):
        monkeypatch.setattr(ioformats, "_PAYLOAD_CHUNK", chunk)
        _assert_writes_the_reference(tmp_path, entries)


def test_block_operator_with_a_signed_zero_writes_the_reference(tmp_path, monkeypatch):
    basis = TruncatedBasis((2,), ("fiber",))
    blocks = (np.array([0, 3]), np.array([1, 2, 4]))
    matrices = (np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex), np.zeros((3, 3), dtype=complex))
    matrices[1][2, 0] = complex(0.0, -0.0)
    op = BlockOperator(basis, blocks, matrices, "generator", {"note": "x"})
    dense = np.zeros(op.shape, dtype=complex)
    for b, B in zip(blocks, matrices):
        dense[np.ix_(b, b)] = B
    monkeypatch.setattr(ioformats, "_PAYLOAD_CHUNK", 3)
    _assert_writes_the_reference(tmp_path, op, dense, (basis.describe(), basis.describe(), op.provenance, op.meta))


@settings(max_examples=60, deadline=None)
@given(
    st.integers(min_value=0, max_value=9),
    st.integers(min_value=0, max_value=9),
    st.floats(min_value=0.0, max_value=1.0),
    st.sampled_from([None, 3, 12]),
    st.integers(min_value=0, max_value=2**31 - 1),
)
def test_write_matrix_matches_the_reference_for_any_shape_and_sparsity(tmp_path_factory, m, n, zeros, chunk, seed):
    rng = np.random.default_rng(seed)
    values = rng.standard_normal((m, n, 2)) * rng.choice([1.0, 1e-310, 0.0], (m, n, 2))
    values = np.copysign(values, rng.choice([1.0, -1.0], (m, n, 2)))
    values[rng.random((m, n)) < zeros] = 0.0
    entries = values.view(complex)[..., 0]
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(ioformats, "_PAYLOAD_CHUNK", chunk)
        _assert_writes_the_reference(tmp_path_factory.mktemp("m"), entries)


def test_rewriting_a_read_matrix_keeps_signed_zeros(tmp_path):
    entries = np.array(
        [[1.0, complex(-0.0, 0.0), complex(0.0, -0.0)], [complex(1.0, -0.0), complex(-0.0, 2.0), complex(-0.0, -0.0)]]
    )
    write_matrix(tmp_path / "a.json", entries, {"kind": "test"}, {"columns": 3}, "projection", {})
    doc = read_matrix(tmp_path / "a.json")
    assert np.array_equal(_bits(doc["entries"]), _bits(entries))
    assert doc["entries"].flags.writeable
    write_matrix(tmp_path / "b.json", doc["entries"], doc["rows"], doc["cols"], doc["provenance"], doc["meta"])
    assert (tmp_path / "b.json").read_bytes() == (tmp_path / "a.json").read_bytes()


def test_writing_the_vortex_generator_holds_a_few_chunks_in_memory(tmp_path):
    op = cli.PipelineContext(cli.bundled_config("gaussian_vortex"), tmp_path).generator_matrix
    tracemalloc.start()
    try:
        write_matrix(tmp_path / "g.json", op, op.basis.describe(), op.basis.describe(), op.provenance, op.meta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The payload alone is 4/3 of 16 N^2 bytes, 103 MB at N = 2197.
    assert (tmp_path / "g.json").stat().st_size > op.shape[0] ** 2 * 16 * 4 / 3
    assert peak < 32e6, f"peak {peak / 1e6:.1f} MB"


def _record_thread_starts(monkeypatch) -> list:
    """Every thread started while the test runs."""
    started = []
    start = threading.Thread.start

    def recording(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", recording)
    return started


# (400, 401) gives two payload chunks, so the helper hashes all four
# chunks, head and tail included; a _PAYLOAD_CHUNK of 21 entries gives 136.
@pytest.mark.parametrize("chunk, count", [(None, 4), (3 * 7, 136)], ids=["default", "small-chunks"])
def test_a_matrix_hashed_behind_the_writer_writes_the_reference(tmp_path, monkeypatch, chunk, count):
    if chunk is not None:
        monkeypatch.setattr(ioformats, "_PAYLOAD_CHUNK", chunk)
    entries = _fill("dense", (400, 401), np.random.default_rng(7))
    entries.flat[1] = complex(-0.0, 5e-324)
    handed = []
    original = ioformats._HashBehind.hash

    def recording(helper, chunk):
        # Busy means the last chunk's hash was not waited for, so more
        # than two chunks could be in flight.
        handed.append(helper._busy)
        original(helper, chunk)

    monkeypatch.setattr(ioformats._HashBehind, "hash", recording)
    started = _record_thread_starts(monkeypatch)
    before = threading.active_count()
    _assert_writes_the_reference(tmp_path, entries)
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before
    assert handed == [False] * count


class _DiskFull(io.BytesIO):
    """A file whose writes fail, as on a full disk, once it holds 1 MiB."""

    def write(self, data):
        if self.tell() >= 1 << 20:
            raise OSError(errno.ENOSPC, "No space left on device")
        return super().write(data)


class _FailingRows:
    """An operator whose rows from `fail_at` on cannot be built."""

    shape = (600, 600)

    def __init__(self, fail_at):
        self.fail_at = fail_at

    def __getitem__(self, rows):
        if rows.stop > self.fail_at:
            raise RuntimeError("row building failed")
        return np.ones((rows.stop - rows.start, self.shape[1]), dtype=complex)


@pytest.mark.parametrize(
    "entries, error",
    [(np.ones((600, 600), dtype=complex), OSError), (_FailingRows(300), RuntimeError)],
    ids=["write-fails", "source-fails"],
)
def test_a_failed_write_raises_and_ends_the_helper(tmp_path, monkeypatch, entries, error):
    monkeypatch.setattr(ioformats, "open", lambda path, mode: _DiskFull(), raising=False)
    started = _record_thread_starts(monkeypatch)
    before = threading.active_count()
    with pytest.raises(error):
        write_matrix(tmp_path / "m.json", entries, {"kind": "test"}, {"columns": 600}, "projection", {})
    # The helper held a chunk when the error came, and was joined.
    assert len(started) == 1 and not started[0].is_alive()
    assert threading.active_count() == before


def test_single_chunk_writes_start_no_thread(tmp_path, monkeypatch):
    # A 240 x 240 matrix is one payload chunk of 1.2 MB, and a 128 x 128
    # field CSV, the bundled field_grid, is 8 chunks of 2048 rows, each
    # hashed on the writing thread before the next is built.
    started = _record_thread_starts(monkeypatch)
    frame = _fill("dense", (240, 240), np.random.default_rng(1))
    write_matrix(tmp_path / "frame.json", frame, {"kind": "test"}, {"columns": 240}, "projection", {})
    write_json(tmp_path / "doc.json", {"values": complex_list(frame[0])})
    sample = FieldSample(Grid((128, 128)), frame.ravel()[: 128 * 128].reshape(128, 128))
    write_field_csv(tmp_path / "field.csv", sample)
    write_heatmap_ppm(tmp_path / "field.ppm", sample)
    assert started == []
    assert min((tmp_path / name).stat().st_size for name in ("frame.json", "field.csv")) > 1 << 20


def test_a_written_chunk_is_let_go_before_the_next_is_built(tmp_path):
    released = []
    refs = []

    def build(k):
        chunk = np.full(1000, k, np.uint8)
        refs.append(weakref.ref(chunk))
        return chunk

    def chunks():
        for k in range(4):
            released.append(all(ref() is None for ref in refs))
            yield build(k)  # the generator keeps no reference to what it yields

    digest = ioformats._write(tmp_path / "chunks.bin", chunks())
    expected = b"".join(bytes([k]) * 1000 for k in range(4))
    assert released == [True] * 4
    assert (tmp_path / "chunks.bin").read_bytes() == expected and digest == hashlib.sha256(expected).hexdigest()


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


def _assert_field_csv_is_the_reference(tmp_path, values, shape):
    sample = FieldSample(Grid(shape), np.asarray(values, dtype=float).view(complex).reshape(shape))
    digest = write_field_csv(tmp_path / "new.csv", sample)
    _reference_write_field_csv(tmp_path / "ref.csv", sample)
    raw = (tmp_path / "new.csv").read_bytes()
    assert raw.decode() == (tmp_path / "ref.csv").read_text()
    assert digest == hashlib.sha256(raw).hexdigest()


def _double(bits):
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


# Any finite double, subnormals and signed zeros included; doubles of random
# bit patterns, most of them outside the integer kernel's range; and doubles
# inside it, 2**-36 <= |x| < 2**51.
_FINITE_DOUBLES = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(0, 2**64 - 1).map(_double).filter(math.isfinite),
    st.builds(math.copysign, st.floats(2.0**-36, 2.0**51, exclude_max=True), st.sampled_from([1.0, -1.0])),
)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 5), st.integers(2, 5), st.sampled_from([None, 1, 3]), st.data())
def test_field_csv_matches_the_reference_for_any_finite_values(tmp_path_factory, n1, n2, chunk, data):
    values = data.draw(st.lists(_FINITE_DOUBLES, min_size=2 * n1 * n2, max_size=2 * n1 * n2))
    with pytest.MonkeyPatch.context() as patch:
        if chunk is not None:
            patch.setattr(ioformats, "_CSV_CHUNK", chunk)
        _assert_field_csv_is_the_reference(tmp_path_factory.mktemp("f"), values, (n1, n2))


def _csv_values(path):
    return [line.split(",")[2:] for line in path.read_text().splitlines()[1:]]


@pytest.mark.parametrize(
    "value, text",
    [
        # Exact ties at the 17th digit round half to even, as Python's dtoa does.
        (123456789012345.625, "123456789012345.62"),
        (123456789012345.875, "123456789012345.88"),
        # Fixed notation from 1e-4 up to 1e17, exponent notation outside.
        (9.9999999999999995e-05, "9.9999999999999991e-05"),
        (1e-4, "0.0001"),
        (1e-5, "1.0000000000000001e-05"),
        (1e16, "10000000000000000"),
        (1e17, "1e+17"),
        # Three-digit exponents.
        (1e-100, "1e-100"),
        (1e200, "9.9999999999999997e+199"),
        (5e-324, "4.9406564584124654e-324"),
        (-1.7976931348623157e308, "-1.7976931348623157e+308"),
        # The edges of the integer kernel's range.
        (2.0**-36, "1.4551915228366852e-11"),
        (math.nextafter(2.0**-36, 0), "1.455191522836685e-11"),
        (2.0**51, "2251799813685248"),
        (math.nextafter(2.0**51, 0), "2251799813685247.8"),
        (-0.0, "-0"),
        (0.1, "0.10000000000000001"),
    ],
)
def test_field_csv_writes_the_percent_g_text(tmp_path, value, text):
    values = [value, -value] * 4
    write_field_csv(tmp_path / "f.csv", FieldSample(Grid((2, 2)), np.array(values).view(complex).reshape(2, 2)))
    assert "%.17g" % value == text
    assert _csv_values(tmp_path / "f.csv") == [[text, "%.17g" % -value]] * 4


def test_field_csv_rounds_every_kind_of_tie_half_to_even(tmp_path):
    # q / 2**j with q odd and q * 5**j of 18 digits lies exactly halfway
    # between two 17-digit decimals; j from 2 to 25 spans 1e-8 to 2e15.
    rng = np.random.default_rng(11)
    ties = []
    for j in range(2, 26):
        low, high = -(-(10**17) // 5**j), min(10**18 // 5**j, 2**53)
        if low < high:
            ties.extend(np.ldexp((rng.integers(low, high, 64) | 1).astype(float), -j))
    assert all(Fraction(t) * 10 ** (16 - math.floor(math.log10(t))) % 1 == Fraction(1, 2) for t in ties)
    values = np.concatenate([ties, -np.array(ties)])
    _assert_field_csv_is_the_reference(tmp_path, values, (len(values) // 4, 2))


def test_no_double_in_the_kernel_range_rounds_up_to_a_power_of_ten():
    # The kernel keeps 17 digits without a carry: the largest double below
    # each power of 10 in its range is more than half a 17th-digit unit below it.
    for j in range(-11, 17):
        power = Fraction(10) ** j
        below = float(power) if Fraction(float(power)) < power else math.nextafter(float(power), 0)
        assert power - Fraction(below) > Fraction(10) ** (j - 17) / 2


@pytest.mark.parametrize("shape", [(2, 7), (129, 3), (683, 3)])
@pytest.mark.parametrize("chunk", [None, 5])
def test_field_csv_of_a_grid_that_is_no_multiple_of_the_chunk(tmp_path, monkeypatch, shape, chunk):
    # (683, 3) is 2049 rows: one whole chunk of 2048 and one of a single row.
    if chunk is not None:
        monkeypatch.setattr(ioformats, "_CSV_CHUNK", chunk)
    rng = np.random.default_rng(sum(shape))
    values = rng.standard_normal(2 * shape[0] * shape[1]) * 10.0 ** rng.integers(-20, 20, 2 * shape[0] * shape[1])
    _assert_field_csv_is_the_reference(tmp_path, values, shape)


def test_writing_a_field_csv_holds_a_few_row_chunks_in_memory(tmp_path):
    rng = np.random.default_rng(5)
    sample = FieldSample(Grid((128, 128)), rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128)))
    # The grid's coordinate prefixes are cached by the first field, as in a
    # run that writes one field per d.
    write_field_csv(tmp_path / "first.csv", sample)
    tracemalloc.start()
    try:
        write_field_csv(tmp_path / "f.csv", sample)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The file is about 1.3 MB; as one str and its encoding it would take 3.7 MB.
    assert (tmp_path / "f.csv").stat().st_size > 1 << 20
    assert peak < 2.5e6, f"peak {peak / 1e6:.2f} MB"


@pytest.mark.parametrize("bad", [complex(np.nan, 0.0), complex(np.inf, 0.0), complex(0.0, -np.inf)], ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize("writer", [write_field_csv, write_heatmap_ppm])
def test_a_non_finite_field_raises_before_any_file_is_opened(tmp_path, writer, bad):
    values = np.ones((4, 5), dtype=complex)
    values[2, 3] = bad
    with pytest.raises(FloatingPointError, match="non-finite"):
        writer(tmp_path / "field", FieldSample(Grid((4, 5)), values))
    assert list(tmp_path.iterdir()) == []


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
