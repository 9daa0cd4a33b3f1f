"""Portable on-disk formats: matrices, field CSVs, PPM heatmaps, manifests.

Matrix format: a single JSON document with a "payload" field holding the
base64 encoding of the entries as little-endian float64 pairs (re, im),
row-major; write_matrix writes operators and subspace frames alike.
Every 3 entries are 48 bytes and encode to 64 characters, so the encoder
passes only the groups with a set bit through base64 and writes 64 'A's
for each all-zero group; generator documents are mostly such groups.
The decoder gives back every entry bit for bit, signed zeros included.
Field CSV: header `z1,z2,re,im`, row-major node order, each value as
'%.17g' writes it, a chunk of rows at a time. ftoa builds the text of a
finite x with 2**-36 <= |x| < 2**51 in numpy from exact integer digits,
rounded half to even as Python's dtoa rounds; it writes zeros as "0" and
"-0" and formats any other value on its own with '%.17g'. Heatmaps:
binary PPM (P6) with a symmetric diverging scale about zero; the
normalization constant lands in a sidecar JSON. Both field writers raise
FloatingPointError on a non-finite value before they open the file.
All writers are deterministic: identical inputs give identical bytes,
and each returns the sha256 of the bytes it wrote, so no artifact has to
be read back to be hashed. Every writer goes through one loop over its
byte chunks, which writes and hashes each. For a matrix document of more
than one payload chunk (_PAYLOAD_CHUNK entries, about 2 MB of base64) a
thread pool of one worker does the hashing, while the writing thread
writes each chunk and encodes the next; every other write hashes on the
writing thread, and file_sha256 hashes its own reads.
"""

from __future__ import annotations

import base64
import contextlib
import hashlib
import json
from functools import lru_cache
from pathlib import Path

import numpy as np

from .basis import FieldSample, Grid

MATRIX_FORMAT = "complex-matrix/base64-le-f64-interleaved/v1"


def canonical_json(obj) -> str:
    """Stable serialization: sorted keys, no whitespace drift."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def sha256_of(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode("utf-8")).hexdigest()


def _write(path, chunks, hash_behind=False) -> str:
    """Write the byte chunks to path; return the sha256 of the file.

    Each chunk is let go before the next is asked for, so a generator of
    chunks holds only the one it builds. With hash_behind, a pool of one
    worker hashes each chunk while this thread writes it and builds the
    next; the pool is handed a chunk only once the last one is hashed, so
    at most two chunks are in flight, and the worker calls only hashlib.
    """
    digest, hashed = hashlib.sha256(), None
    if hash_behind:
        from concurrent.futures import ThreadPoolExecutor  # here, as it imports logging

        pool = ThreadPoolExecutor(1)
    else:
        pool = contextlib.nullcontext()
    with pool, open(path, "wb") as fh:
        for chunk in chunks:
            if hash_behind:
                if hashed is not None:
                    hashed.result()
                hashed = pool.submit(digest.update, chunk)
            else:
                digest.update(chunk)
            fh.write(chunk)
            del chunk
        if hashed is not None:
            hashed.result()
    return digest.hexdigest()


def file_sha256(path) -> str:
    """sha256 of a file, read 1 MiB at a time."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


# Entries base64-encoded per write, about. Each chunk but the last is
# whole rows of a multiple of 3 entries, so it is a multiple of 48 bytes:
# its groups of 3 entries start at 48-byte boundaries of the matrix, and
# the chunks' encodings, unpadded, concatenate to the whole encoding.
_PAYLOAD_CHUNK = 3 << 15


def encode_matrix(entries: np.ndarray) -> memoryview:
    """base64 of the entries as little-endian (re, im) float64 pairs, row-major, as ascii bytes.

    Each group of 3 entries (six 64-bit words) encodes to 64 characters.
    A group whose words have no bit set is 64 'A's without being encoded;
    -0.0 has its sign bit set, so it is encoded. Fewer than 3 trailing
    entries are encoded on their own, with padding.
    """
    flat = np.ascontiguousarray(entries, dtype="<c16").reshape(-1)
    whole = flat.size - flat.size % 3
    words = flat[:whole].view("<u8").reshape(-1, 6)
    live = np.flatnonzero(words[:, 0] | words[:, 1] | words[:, 2] | words[:, 3] | words[:, 4] | words[:, 5])
    tail = base64.b64encode(flat[whole:])
    out = np.full(64 * len(words) + len(tail), ord("A"), dtype=np.uint8)
    groups = out[: 64 * len(words)].reshape(-1, 64)
    groups[live] = np.frombuffer(base64.b64encode(words[live]), np.uint8).reshape(-1, 64)
    out[groups.size :] = np.frombuffer(tail, np.uint8)
    return memoryview(out)


def decode_matrix(payload, shape) -> np.ndarray:
    """The entries of an encode_matrix payload (str or bytes), bit for bit, as a writable array."""
    return np.frombuffer(base64.b64decode(payload), dtype="<c16").reshape(shape).astype(complex)


def write_matrix(path, entries, rows: dict, cols: dict, provenance: str, meta: dict) -> str:
    """One matrix document; rows and cols describe its two index sets.

    entries is a 2-d array, or an operator with a shape whose entries[a:b]
    gives dense rows a:b, such as a generator.BlockOperator; either way the
    document holds the dense matrix, built a few rows at a time. An
    operator gives its bases' descriptions and its provenance tag. A
    subspace frame gives its row basis, {"columns": k} and "projection".
    Returns the sha256 of the file.
    """
    shape = tuple(np.shape(entries))
    doc = {
        "format": MATRIX_FORMAT,
        "rows": rows,
        "cols": cols,
        "shape": list(shape),
        "provenance": provenance,
        "meta": meta,
    }
    # canonical_json sorts keys, so the document is the keys before
    # "payload", the payload, then the keys after it; the payload is
    # streamed so that its full string never exists in memory.
    head = canonical_json({k: v for k, v in doc.items() if k < "payload"})[:-1] + ',"payload":"'
    tail = '",' + canonical_json({k: v for k, v in doc.items() if k > "payload"})[1:] + "\n"
    step = 3 * max(1, _PAYLOAD_CHUNK // (3 * max(shape[1], 1)))

    def chunks():
        yield head.encode("ascii")
        for start in range(0, shape[0], step):
            yield encode_matrix(entries[start : start + step])
        yield tail.encode("ascii")

    return _write(path, chunks(), hash_behind=shape[0] > step)


def read_matrix(path) -> dict:
    doc = json.loads(Path(path).read_text())
    if doc.get("format") != MATRIX_FORMAT:
        raise ValueError(f"unrecognized matrix format in {path}")
    doc["entries"] = decode_matrix(doc["payload"], tuple(doc["shape"]))
    return doc


# Rows formatted and written per chunk of a field CSV.
_CSV_CHUNK = 2048


@lru_cache(maxsize=4)
def _node_prefixes(grid: Grid) -> tuple[np.ndarray, np.ndarray]:
    """The "z1,z2," start of every CSV row, once per grid: its bytes,
    left-aligned in one row per node, and its length. The rows are
    zero-padded to a multiple of 8 bytes, so that the 8-byte words of the
    value text that follows them in a chunk are aligned.

    Node (i, j) is the i-th value of the first axis and the j-th of the
    second, so only the two axes are formatted.
    """
    from . import ftoa

    n1, n2 = grid.points
    text, keep = np.empty((n1 + n2, 1, ftoa.WIDTH), np.uint8), np.empty((n1 + n2, 1, ftoa.WIDTH), bool)
    ftoa.format_columns(np.concatenate(grid.axes)[:, None], b",", text, keep)
    length = keep.sum(axis=(1, 2))
    left = np.zeros((n1 + n2, ftoa.WIDTH), np.uint8)
    left[np.arange(ftoa.WIDTH) < length[:, None]] = text[keep]
    first, second = length[:n1], length[n1:]
    prefixes = np.zeros((n1, n2, -(-(first.max() + second.max()) // 8) * 8), np.uint8)
    for end in np.unique(first):  # where the second coordinate starts
        rows = first == end
        prefixes[rows, :, :end] = left[:n1][rows, None, :end]
        prefixes[rows, :, end : end + second.max()] = left[n1:, : second.max()]
    return prefixes.reshape(n1 * n2, -1), (first[:, None] + second).ravel().astype(np.uint8)


def _check_finite(sample: FieldSample, path):
    if not np.isfinite(sample.values).all():
        raise FloatingPointError(f"cannot write {Path(path).name}: the field has a non-finite value")


def write_field_csv(path, sample: FieldSample) -> str:
    """Two fiber coordinates per row; row-major over the grid.

    Each chunk of rows is one byte matrix, the cached coordinate prefix
    beside the two value texts, compacted by one mask.
    """
    from . import ftoa  # on the first field written, see its docstring

    if sample.grid.ndim != 2:
        raise ValueError("field CSV export requires a 2-d fiber grid")
    _check_finite(sample, path)
    pairs = np.ascontiguousarray(sample.values).reshape(-1, 1).view(float)
    prefixes, lengths = _node_prefixes(sample.grid)
    width = prefixes.shape[1]
    starts = np.arange(width) < np.arange(width + 1)[:, None]  # row n keeps the first n bytes

    def chunks():
        yield b"z1,z2,re,im\n"
        # One byte matrix and mask, refilled for each chunk of rows.
        text = np.empty((min(_CSV_CHUNK, len(pairs)), width + 2 * ftoa.WIDTH), np.uint8)
        keep = np.empty(text.shape, bool)
        for start in range(0, len(pairs), _CSV_CHUNK):
            rows = slice(start, start + _CSV_CHUNK)
            count = len(lengths[rows])
            text[:count, :width] = prefixes[rows]
            np.take(starts, lengths[rows], axis=0, out=keep[:count, :width], mode="clip")
            # Views: splitting the contiguous last axis needs no copy.
            values = (text[:count, width:].reshape(count, 2, ftoa.WIDTH), keep[:count, width:].reshape(count, 2, ftoa.WIDTH))
            ftoa.format_columns(pairs[rows], b",\n", *values)
            yield memoryview(text[:count][keep[:count]])

    return _write(path, chunks())


def _diverging_rgb(t: np.ndarray) -> np.ndarray:
    """Map values in [-1, 1] to blue-white-red bytes."""
    t = np.clip(t, -1.0, 1.0)
    r = np.where(t >= 0, 1.0, 1.0 + t)
    g = 1.0 - np.abs(t)
    b = np.where(t <= 0, 1.0, 1.0 - t)
    rgb = np.stack([r, g, b], axis=-1)
    return np.round(rgb * 255.0).astype(np.uint8)


def write_heatmap_ppm(path, sample: FieldSample) -> tuple[str, str]:
    """Binary PPM of the field's real part, symmetric scale about zero.

    Writes a sidecar JSON next to the image with the normalization
    constant and the component tag. Returns the sha256 of the image and
    of the sidecar.
    """
    if sample.grid.ndim != 2:
        raise ValueError("heatmap export requires a 2-d fiber grid")
    _check_finite(sample, path)
    data = sample.values.real
    vmax = float(np.max(np.abs(data)))
    scale = vmax if vmax > 0 else 1.0
    img = _diverging_rgb(data / scale)
    h, w = img.shape[:2]
    image = _write(path, [f"P6\n{w} {h}\n255\n".encode("ascii"), img.tobytes()])
    sidecar = {
        "component": "re",
        "normalization_max_abs": vmax,
        "width": w,
        "height": h,
        "scale": "symmetric diverging about 0",
    }
    return image, _write(str(path) + ".json", [(canonical_json(sidecar) + "\n").encode("ascii")])


def write_json(path, obj) -> str:
    return _write(path, [(canonical_json(obj) + "\n").encode("ascii")])


def complex_list(values) -> list:
    return [[float(v.real), float(v.imag)] for v in np.asarray(values, dtype=complex)]
