"""Bit-exact file I/O for images, label masks, and feature tables.

Supported raster formats:

* ``PGM8`` / ``PGM16`` -- binary PGM (P5) with maxval 255 or 65535.
  Image samples are normalized by the format maximum on load; mask
  samples are used verbatim as labels.
* ``RAWF32`` -- one ASCII header line ``MPROF F32 <width> <height>\\n``
  followed by row-major little-endian float32 samples.
* ``RAWU32`` -- header ``MPROF U32 <width> <height>\\n`` followed by
  row-major little-endian uint32 labels (for label values above 65535).

Feature tables are RFC-4180 CSV with a ``object_set,label,...`` header,
``\\n`` line endings and locale-independent ``.`` decimals.  Floats are
serialized with the shortest representation that round-trips; missing
cells are empty.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .core import MISSING, FeatureTable, ImagePlane, LabelMask

MAGIC_F32 = b"MPROF F32"
MAGIC_U32 = b"MPROF U32"

#: Bytes per sample for each raster format.
SAMPLE_SIZE = {"PGM8": 1, "PGM16": 2, "RAWF32": 4, "RAWU32": 4}


class FormatError(ValueError):
    """Malformed or unsupported raster/table content."""


class _HeaderCut(FormatError):
    """The data ends inside a PGM header."""


@dataclass(frozen=True)
class RasterHeader:
    format: str  # PGM8 | PGM16 | RAWF32 | RAWU32
    width: int
    height: int

    def __post_init__(self):
        if self.format not in SAMPLE_SIZE:
            raise ValueError(f"unknown raster format {self.format!r}")
        if self.width < 1 or self.height < 1:
            raise ValueError("raster dims must be positive")

    @property
    def sample_size(self) -> int:
        return SAMPLE_SIZE[self.format]


def read_header(path) -> RasterHeader:
    """Identify a raster file's format and dimensions without its payload."""
    with open(path, "rb") as fh:
        head = fh.read(256)
        if head[:2] == b"P5":
            # '#' comments can run the header past the first chunk; read on then.
            while True:
                try:
                    width, height, maxval, _ = _read_pgm_header(head, path)
                    break
                except _HeaderCut:
                    more = fh.read(len(head))
                    if not more:
                        raise
                    head += more
            return RasterHeader("PGM8" if maxval == 255 else "PGM16", width, height)
    if head[: len(MAGIC_F32)] == MAGIC_F32:
        width, height, _ = _read_raw_header(head, MAGIC_F32, path)
        return RasterHeader("RAWF32", width, height)
    if head[: len(MAGIC_U32)] == MAGIC_U32:
        width, height, _ = _read_raw_header(head, MAGIC_U32, path)
        return RasterHeader("RAWU32", width, height)
    raise FormatError(f"{path}: unrecognized raster format")


def _read_pgm_header(data: bytes, path) -> tuple[int, int, int, int]:
    # Returns (width, height, maxval, payload offset).  PGM allows comment
    # lines starting with '#' anywhere in the header whitespace.
    if data[:2] != b"P5":
        raise FormatError(f"{path}: not a binary PGM (magic {data[:2]!r})")
    pos = 2
    fields = []
    while len(fields) < 3:
        while pos < len(data) and data[pos : pos + 1].isspace():
            pos += 1
        if pos < len(data) and data[pos : pos + 1] == b"#":
            while pos < len(data) and data[pos : pos + 1] != b"\n":
                pos += 1
            continue
        start = pos
        while pos < len(data) and not data[pos : pos + 1].isspace():
            pos += 1
        token = data[start:pos]
        if pos >= len(data):
            raise _HeaderCut(f"{path}: truncated PGM header")
        if not token.isdigit():
            raise FormatError(f"{path}: bad PGM header token {token!r}")
        fields.append(int(token))
    pos += 1  # single whitespace byte after maxval
    width, height, maxval = fields
    if width < 1 or height < 1:
        raise FormatError(f"{path}: non-positive PGM dimensions {width}x{height}")
    if maxval not in (255, 65535):
        raise FormatError(f"{path}: unsupported PGM maxval {maxval} (use 255 or 65535)")
    return width, height, maxval, pos


def _read_raw_header(data: bytes, magic: bytes, path) -> tuple[int, int, int]:
    end = data.find(b"\n")
    if end < 0:
        raise FormatError(f"{path}: missing raw header line")
    parts = data[:end].split(b" ")
    if len(parts) != 4 or b" ".join(parts[:2]) != magic:
        raise FormatError(f"{path}: bad raw header {data[:end]!r}")
    try:
        width, height = int(parts[2]), int(parts[3])
    except ValueError:
        raise FormatError(f"{path}: non-integer raw dimensions {data[:end]!r}") from None
    if width < 1 or height < 1:
        raise FormatError(f"{path}: non-positive raw dimensions {width}x{height}")
    return width, height, end + 1


def _read_samples(data: bytes, offset: int, dtype: str, count: int, path) -> np.ndarray:
    expected = count * np.dtype(dtype).itemsize
    payload = data[offset : offset + expected]
    if len(payload) < expected:
        raise FormatError(f"{path}: truncated payload ({len(payload)} of {expected} bytes)")
    return np.frombuffer(payload, dtype=dtype)


def load_image(path) -> ImagePlane:
    """Load a PGM8/PGM16/RAWF32 image as a normalized ImagePlane."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"P5":
        width, height, maxval, offset = _read_pgm_header(data, path)
        dtype = ">u2" if maxval == 65535 else "u1"
        samples = _read_samples(data, offset, dtype, width * height, path)
        pixels = samples.astype(np.float64).reshape(height, width) / maxval
        return ImagePlane(pixels)
    if data[: len(MAGIC_F32)] == MAGIC_F32:
        width, height, offset = _read_raw_header(data, MAGIC_F32, path)
        samples = _read_samples(data, offset, "<f4", width * height, path)
        if not np.all(np.isfinite(samples)):
            raise FormatError(f"{path}: non-finite float samples")
        return ImagePlane(samples.astype(np.float64).reshape(height, width))
    raise FormatError(f"{path}: unrecognized image format")


def save_image(plane: ImagePlane, path, fmt: str = "RAWF32") -> None:
    """Write an ImagePlane as RAWF32 (lossless for float32 data) or PGM.

    PGM output clamps to [0, 1] and quantizes to the format maximum, so
    only RAWF32 round-trips bit-exactly.
    """
    if fmt == "RAWF32":
        header = f"MPROF F32 {plane.width} {plane.height}\n".encode()
        payload = plane.pixels.astype("<f4").tobytes()
    elif fmt in ("PGM8", "PGM16"):
        maxval = 255 if fmt == "PGM8" else 65535
        dtype = "u1" if fmt == "PGM8" else ">u2"
        quantized = np.rint(np.clip(plane.pixels, 0.0, 1.0) * maxval).astype(dtype)
        header = f"P5 {plane.width} {plane.height} {maxval}\n".encode()
        payload = quantized.tobytes()
    else:
        raise ValueError(f"unknown image format {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def load_mask(path) -> LabelMask:
    """Load a PGM16 or RAWU32 label mask; samples are used verbatim."""
    with open(path, "rb") as fh:
        data = fh.read()
    if data[:2] == b"P5":
        width, height, maxval, offset = _read_pgm_header(data, path)
        dtype = ">u2" if maxval == 65535 else "u1"
        samples = _read_samples(data, offset, dtype, width * height, path)
        return LabelMask(samples.astype(np.int64).reshape(height, width))
    if data[: len(MAGIC_U32)] == MAGIC_U32:
        width, height, offset = _read_raw_header(data, MAGIC_U32, path)
        samples = _read_samples(data, offset, "<u4", width * height, path)
        return LabelMask(samples.astype(np.int64).reshape(height, width))
    raise FormatError(f"{path}: unrecognized mask format")


def save_mask(mask: LabelMask, path, fmt: str = "RAWU32") -> None:
    """Write a LabelMask as RAWU32 (labels < 2**32) or PGM16 (labels <= 65535)."""
    max_label = int(mask.labels.max(initial=0))
    if fmt == "RAWU32":
        if max_label > 2**32 - 1:
            raise ValueError(f"label {max_label} exceeds RAWU32 range")
        header = f"MPROF U32 {mask.width} {mask.height}\n".encode()
        payload = mask.labels.astype("<u4").tobytes()
    elif fmt == "PGM16":
        if max_label > 65535:
            raise ValueError(f"label {max_label} exceeds PGM16 range; use RAWU32")
        header = f"P5 {mask.width} {mask.height} 65535\n".encode()
        payload = mask.labels.astype(">u2").tobytes()
    else:
        raise ValueError(f"unknown mask format {fmt!r}")
    with open(path, "wb") as fh:
        fh.write(header)
        fh.write(payload)


def format_cell(value: float) -> str:
    """Shortest round-trip decimal form of a table cell; missing is empty."""
    if np.isnan(value):
        return ""
    if np.isinf(value):
        raise ValueError("non-finite feature value cannot be serialized")
    return repr(float(value))


def write_table(table: FeatureTable, path) -> None:
    """Write a FeatureTable as CSV; see the module docstring for the format."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["object_set", "label", *table.columns])
    for i in range(table.n_rows):
        row = [table.object_set, str(int(table.labels[i]))]
        row.extend(format_cell(v) for v in table.values[i])
        writer.writerow(row)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())


def read_table(path) -> FeatureTable:
    """Read a CSV produced by :func:`write_table` (or matching its schema)."""
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
        for j, cell in enumerate(row[2:]):
            if cell == "":
                values[i, j] = MISSING
                continue
            try:
                values[i, j] = float(cell)
            except ValueError:
                raise FormatError(f"{path}: non-numeric cell {cell!r} in row {i + 2}") from None
            if not np.isfinite(values[i, j]):
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
