"""Bit-exact file I/O for images, label masks, and feature tables.

Raster formats, each with one sample dtype (``_DTYPES``):

* ``PGM8`` / ``PGM16`` -- binary PGM (P5) whose maxval is its dtype's
  maximum: 255 (``u1``) or 65535 (``>u2``).  Image samples are normalized
  by that maximum on load; mask samples are used verbatim as labels.
* ``RAWF32`` -- one ASCII header line ``MPROF F32 <width> <height>\\n``
  (digits only, one space apart) followed by row-major little-endian
  float32 samples.
* ``RAWU32`` -- header ``MPROF U32 <width> <height>\\n`` followed by
  row-major little-endian uint32 labels (for label values above 65535).

``_parse_header`` alone reads magic bytes and headers, for both
loaders; ``_load_samples`` reads a payload without trusting its declared
size, and ``_save_samples`` writes every format.

Feature tables are RFC-4180 CSV with a ``object_set,label,...`` header,
``\\n`` line endings and locale-independent ``.`` decimals.  Floats are
serialized with the shortest representation that round-trips; missing
cells are empty.
"""

from __future__ import annotations

import csv
import io
import math
import re

import numpy as np

from .core import MISSING, FeatureTable, ImagePlane, LabelMask

#: Sample dtype of each raster format.
_DTYPES = {"PGM8": "u1", "PGM16": ">u2", "RAWF32": "<f4", "RAWU32": "<u4"}
_PGM_BY_MAXVAL = {np.iinfo(_DTYPES[f]).max: f for f in ("PGM8", "PGM16")}
_RAW_BY_MAGIC = {b"MPROF F32 ": "RAWF32", b"MPROF U32 ": "RAWU32"}
# Whitespace and '#' comments (PGM allows them anywhere), then one token.
_PGM_TOKEN = re.compile(rb"(?:\s|#[^\n]*)*(\S*)")


class FormatError(ValueError):
    """Malformed or unsupported raster/table content."""


class _HeaderCut(FormatError):
    """The data read so far ends inside a raster header."""


def _parse_header(fh, path) -> tuple[str, int, int, bytes]:
    """(format, width, height, payload bytes read with the header) of the
    raster open in ``fh``.  A header that runs past the first chunk (long
    '#' comments) is read on, doubling."""
    data = fh.read(256)
    while True:
        try:
            if data[:2] == b"P5":
                fmt, width, height, offset = _pgm_fields(data, path)
            elif data[:10] in _RAW_BY_MAGIC:
                fmt = _RAW_BY_MAGIC[data[:10]]
                width, height, offset = _raw_fields(data, path)
            else:
                raise FormatError(f"{path}: unrecognized raster format")
            break
        except _HeaderCut:
            more = fh.read(len(data))
            if not more:
                raise
            data += more
    if width < 1 or height < 1:
        raise FormatError(f"{path}: non-positive raster dimensions {width}x{height}")
    return fmt, width, height, data[offset:]


def _header_int(token: bytes, path) -> int:
    try:
        return int(token)
    except ValueError:  # not an integer, or beyond Python's digit limit
        raise FormatError(f"{path}: bad header number {token[:32]!r}") from None


def _pgm_fields(data: bytes, path) -> tuple[str, int, int, int]:
    if data[2:3] and not data[2:3].isspace():
        raise FormatError(f"{path}: no whitespace after the PGM magic")
    pos, fields = 2, []
    while len(fields) < 3:
        match = _PGM_TOKEN.match(data, pos)
        token, pos = match[1], match.end()
        if pos >= len(data):
            raise _HeaderCut(f"{path}: truncated PGM header")
        if not token.isdigit():
            raise FormatError(f"{path}: bad PGM header token {token[:32]!r}")
        fields.append(_header_int(token, path))
    width, height, maxval = fields
    if maxval not in _PGM_BY_MAXVAL:
        raise FormatError(f"{path}: unsupported PGM maxval {maxval} (use 255 or 65535)")
    return _PGM_BY_MAXVAL[maxval], width, height, pos + 1  # one whitespace byte


def _raw_fields(data: bytes, path) -> tuple[int, int, int]:
    end = data.find(b"\n")
    if end < 0:
        raise _HeaderCut(f"{path}: missing raw header line")
    dims = data[10:end].split(b" ")
    if len(dims) != 2 or not all(token.isdigit() for token in dims):  # ASCII only
        raise FormatError(f"{path}: bad raw header {data[:end][:64]!r}")
    width, height = (_header_int(token, path) for token in dims)
    return width, height, end + 1


def _load_samples(path, formats) -> np.ndarray:
    # The payload is read on, doubling (pipes cannot seek or report a size),
    # so a header that declares more than the file holds fails as truncated
    # without allocating the declared size; a byte past the declared size
    # fails too.  The samples come back unconverted, shaped (h, w).
    with open(path, "rb") as fh:
        fmt, width, height, payload = _parse_header(fh, path)
        if fmt not in formats:
            raise FormatError(f"{path}: {fmt} is not one of {', '.join(formats)}")
        dtype = np.dtype(_DTYPES[fmt])
        payload, expected = bytearray(payload), width * height * dtype.itemsize
        while len(payload) < expected:
            chunk = fh.read(min(expected - len(payload), max(len(payload), 1 << 16)))
            if not chunk:
                raise FormatError(f"{path}: truncated payload ({len(payload)} of {expected} bytes)")
            payload += chunk
        if len(payload) > expected or fh.read(1):
            raise FormatError(f"{path}: bytes after the {expected}-byte payload")
    return np.frombuffer(payload, dtype).reshape(height, width)


def _save_samples(samples: np.ndarray, path, fmt: str) -> None:
    dtype = np.dtype(_DTYPES[fmt])
    height, width = samples.shape
    if fmt.startswith("PGM"):
        header = f"P5 {width} {height} {np.iinfo(dtype).max}\n"
    else:
        header = f"MPROF {fmt[3:]} {width} {height}\n"  # RAWF32 -> MPROF F32
    with open(path, "wb") as fh:
        fh.write(header.encode())
        fh.write(samples.astype(dtype, order="C"))


def load_image(path) -> ImagePlane:
    """Load a PGM8/PGM16/RAWF32 image as a normalized ImagePlane."""
    samples = _load_samples(path, ("PGM8", "PGM16", "RAWF32"))
    if samples.dtype.kind == "u":  # PGM: divide by the format maximum
        samples = samples / np.iinfo(samples.dtype).max
    try:
        return ImagePlane(samples)
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None


def save_image(plane: ImagePlane, path, fmt: str = "RAWF32") -> None:
    """Write an ImagePlane as RAWF32 (lossless for float32 data) or PGM.

    PGM output clamps to [0, 1] and quantizes to the format maximum, so
    only RAWF32 round-trips bit-exactly.
    """
    if fmt == "RAWF32":
        samples = plane.pixels
    elif fmt in ("PGM8", "PGM16"):
        maxval = np.iinfo(_DTYPES[fmt]).max
        samples = np.rint(np.clip(plane.pixels, 0.0, 1.0) * maxval)
    else:
        raise ValueError(f"unknown image format {fmt!r}")
    _save_samples(samples, path, fmt)


def load_mask(path) -> LabelMask:
    """Load a PGM8, PGM16 or RAWU32 label mask; samples are used verbatim."""
    return LabelMask(_load_samples(path, ("PGM8", "PGM16", "RAWU32")))


def save_mask(mask: LabelMask, path, fmt: str = "RAWU32") -> None:
    """Write a LabelMask as RAWU32 (labels < 2**32) or PGM16 (labels <= 65535)."""
    if fmt not in ("RAWU32", "PGM16"):
        raise ValueError(f"unknown mask format {fmt!r}")
    max_label = int(mask.labels.max(initial=0))
    if max_label > np.iinfo(_DTYPES[fmt]).max:
        raise ValueError(f"label {max_label} exceeds {fmt} range")
    _save_samples(mask.labels, path, fmt)


def format_cell(value: float) -> str:
    """Shortest round-trip decimal form of a table cell; missing is empty."""
    if value != value:  # NaN; plain comparisons keep Python floats fast
        return ""
    if math.isinf(value):
        raise ValueError("non-finite feature value cannot be serialized")
    return repr(float(value))


def write_table(table: FeatureTable, path) -> None:
    """Write a FeatureTable as CSV; see the module docstring for the format."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["object_set", "label", *table.columns])
    for label, values in zip(table.labels.tolist(), table.values.tolist()):
        writer.writerow([table.object_set, label, *map(format_cell, values)])
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_table(path) -> FeatureTable:
    """Read a CSV produced by :func:`write_table` (or matching its schema).

    A value cell is Python ``float()`` syntax and an empty cell is missing;
    ``nan``, ``inf`` and overflowing cells are rejected with their row.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise FormatError(f"{path}: empty file")
    header = rows[0]
    if header[:2] != ["object_set", "label"]:
        raise FormatError(f"{path}: header must start with object_set,label")
    columns = tuple(header[2:])
    object_set = ""
    labels = []
    values = np.empty((len(rows) - 1, len(columns)), dtype=np.float64)
    for i, row in enumerate(rows[1:]):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        if i == 0:
            object_set = row[0]
        elif row[0] != object_set:
            raise FormatError(f"{path}: multiple object_set values in one table")
        try:
            labels.append(int(row[1]))
        except ValueError:
            raise FormatError(f"{path}: bad label {row[1]!r} in row {i + 2}") from None
        cells = row[2:]
        # Parse the whole row at once; only a row with a bad cell is rescanned
        # cell by cell, to report the first one.
        try:
            values[i] = [float(cell) if cell else MISSING for cell in cells]
            if np.count_nonzero(np.isfinite(values[i])) + cells.count("") == len(cells):
                continue
        except ValueError:
            pass
        for cell in filter(None, cells):
            try:
                value = float(cell)
            except ValueError:
                raise FormatError(f"{path}: non-numeric cell {cell!r} in row {i + 2}") from None
            if not np.isfinite(value):
                raise FormatError(f"{path}: non-finite cell {cell!r} in row {i + 2}")
    try:
        return FeatureTable(
            object_set=object_set,
            columns=columns,
            labels=np.asarray(labels, dtype=np.int64),
            values=values,
        )
    except ValueError as exc:
        raise FormatError(f"{path}: {exc}") from None
