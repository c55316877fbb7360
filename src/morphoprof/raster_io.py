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
loaders, and stops at the first payload byte.  ``_load_samples`` reads
the payload of a regular file or a pipe alike into one uint8 buffer that
doubles, up to the declared size, only as bytes arrive; ``_save_samples``
writes every format.  A loaded raster keeps its file's width: a RAWF32
plane holds float32 samples and a mask its uint8, uint16 or uint32
labels, in that buffer.  PGM image samples become float64 when they are
normalized.

Feature tables are RFC-4180 CSV with a ``object_set,label,...`` header,
``\\n`` line endings and locale-independent ``.`` decimals.  Floats are
serialized with the shortest representation that round-trips; missing
cells are empty.  ``write_table`` formats each row from one ``repr`` of
its values, which is :func:`format_cell`'s text cell for cell.
``read_table`` reads the text once.  Text without ``"`` and ``\\r`` is
split on ``\\n`` and ``,``, which yields exactly the rows ``csv.reader``
would; other text goes through ``csv.reader``, and a cell longer than
``csv.field_size_limit()`` there is a FormatError naming its row.  The
split has no such limit: an over-long unquoted cell is parsed by the
``float()`` grammar like any other.
"""

from __future__ import annotations

import csv
import io
import math
import os
import stat
from collections.abc import Iterator

import numpy as np

from .core import MISSING, FeatureTable, ImagePlane, LabelMask, _adopt

#: Sample dtype of each raster format.
_DTYPES = {"PGM8": "u1", "PGM16": ">u2", "RAWF32": "<f4", "RAWU32": "<u4"}
_PGM_BY_MAXVAL = {np.iinfo(_DTYPES[f]).max: f for f in ("PGM8", "PGM16")}
_RAW_BY_MAGIC = {b"MPROF F32 ": "RAWF32", b"MPROF U32 ": "RAWU32"}


class FormatError(ValueError):
    """Malformed or unsupported raster/table content."""


def _parse_header(fh, path) -> tuple[str, int, int]:
    """(format, width, height) of the raster open in ``fh``, read up to and
    leaving ``fh`` at the first payload byte."""
    magic = fh.read(2)
    if magic == b"P5":
        fmt, width, height = _pgm_fields(fh, path)
    else:
        magic += fh.read(8)
        if magic not in _RAW_BY_MAGIC:
            raise FormatError(f"{path}: unrecognized raster format")
        fmt, line = _RAW_BY_MAGIC[magic], fh.readline()
        if not line.endswith(b"\n"):
            raise FormatError(f"{path}: missing raw header line")
        dims = line[:-1].split(b" ")
        if len(dims) != 2 or not all(token.isdigit() for token in dims):  # ASCII only
            raise FormatError(f"{path}: bad raw header {(magic + line[:-1])[:64]!r}")
        width, height = (_header_int(token, path) for token in dims)
    if width < 1 or height < 1:
        raise FormatError(f"{path}: non-positive raster dimensions {width}x{height}")
    return fmt, width, height


def _header_int(token: bytes, path) -> int:
    try:
        return int(token)
    except ValueError:  # not an integer, or beyond Python's digit limit
        raise FormatError(f"{path}: bad header number {token[:32]!r}") from None


def _pgm_fields(fh, path) -> tuple[str, int, int]:
    # Byte by byte: whitespace and '#' comments (to the line end) come
    # before each token, and the one whitespace byte after the maxval is
    # the header's last.
    byte, fields = fh.read(1), []
    if byte and not byte.isspace():
        raise FormatError(f"{path}: no whitespace after the PGM magic")
    while len(fields) < 3:
        while byte.isspace() or byte == b"#":
            if byte == b"#":
                fh.readline()
            byte = fh.read(1)
        token = bytearray()
        while byte and not byte.isspace():
            token += byte
            byte = fh.read(1)
        if not byte:
            raise FormatError(f"{path}: truncated PGM header")
        if not token.isdigit():
            raise FormatError(f"{path}: bad PGM header token {bytes(token[:32])!r}")
        fields.append(_header_int(bytes(token), path))
    width, height, maxval = fields
    if maxval not in _PGM_BY_MAXVAL:
        raise FormatError(f"{path}: unsupported PGM maxval {maxval} (use 255 or 65535)")
    return _PGM_BY_MAXVAL[maxval], width, height


def _load_samples(path, formats) -> np.ndarray:
    # One uint8 buffer starts at the declared size or less: a regular
    # file's remaining bytes, or 64 KiB for a pipe, which can neither seek
    # nor report a size.  It doubles, up to the declared size, only when
    # bytes fill it, so a header that declares more than the file holds
    # fails as truncated without allocating the declared size; a byte past
    # the declared size fails too.  The samples come back unconverted but
    # in native byte order, shaped (h, w), in that buffer, which nothing
    # else holds.
    with open(path, "rb") as fh:
        fmt, width, height = _parse_header(fh, path)
        if fmt not in formats:
            raise FormatError(f"{path}: {fmt} is not one of {', '.join(formats)}")
        dtype = np.dtype(_DTYPES[fmt])
        expected = width * height * dtype.itemsize
        info = os.fstat(fh.fileno())
        room = info.st_size - fh.tell() if stat.S_ISREG(info.st_mode) else 1 << 16
        buffer, size = np.empty(min(expected, room), np.uint8), 0
        while count := fh.readinto(buffer[size:]):
            size += count
            if size == len(buffer) < expected:
                grown = np.empty(min(2 * size, expected), np.uint8)
                grown[:size] = buffer
                buffer = grown
        if size < expected:
            raise FormatError(f"{path}: truncated payload ({size} of {expected} bytes)")
        if fh.read(1):
            raise FormatError(f"{path}: bytes after the {expected}-byte payload")
    samples = buffer.view(dtype).reshape(height, width)
    if not dtype.isnative:
        samples = samples.byteswap(inplace=True).view(dtype.newbyteorder())
    return samples


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
        return _adopt(ImagePlane, samples)
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
        # Quantized in float64, whatever the plane's width.
        samples = np.rint(np.clip(plane.pixels, 0.0, 1.0, dtype=np.float64) * maxval)
    else:
        raise ValueError(f"unknown image format {fmt!r}")
    _save_samples(samples, path, fmt)


def load_mask(path) -> LabelMask:
    """Load a PGM8, PGM16 or RAWU32 label mask; samples are used verbatim."""
    return _adopt(LabelMask, _load_samples(path, ("PGM8", "PGM16", "RAWU32")))


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
    if np.isinf(table.values).any():  # before opening, so a refused table touches no file
        raise ValueError("non-finite feature value cannot be serialized")
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([table.object_set, ""])
    lead = buf.getvalue()[:-1]  # the object set cell as csv quotes it, and a comma
    sep = "," if table.columns else ""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerow(["object_set", "label", *table.columns])
        for label, values in zip(table.labels.tolist(), table.values):
            # The repr of a list of finite floats and NaNs holds format_cell's
            # text for each cell, ", "-separated, with NaN as "nan".
            cells = repr(values.tolist())[1:-1].replace(", ", ",").replace("nan", "")
            fh.write(f"{lead}{label}{sep}{cells}\n")


def _table_rows(text: str, path) -> tuple[int, Iterator[list[str]]]:
    """The number of CSV rows in ``text`` and the rows, as ``csv.reader``
    gives them."""
    if '"' not in text and "\r" not in text:
        # Without quotes or CRs a line's cells are its comma-separated
        # pieces, and an empty line is an empty row, as csv.reader has it.
        lines = text.split("\n")
        if not lines[-1]:
            lines.pop()  # nothing follows the last line end
        return len(lines), (line.split(",") if line else [] for line in lines)
    rows = []
    try:
        for row in csv.reader(io.StringIO(text, newline="")):
            rows.append(row)
    except csv.Error as exc:  # e.g. a quoted cell past csv.field_size_limit()
        raise FormatError(f"{path}: {exc} in row {len(rows) + 1}") from None
    return len(rows), iter(rows)


def read_table(path) -> FeatureTable:
    """Read a CSV produced by :func:`write_table` (or matching its schema).

    The text is UTF-8.  A label is Python ``int()`` syntax within int64.
    A value cell is Python ``float()`` syntax and an empty cell is missing;
    ``nan``, ``inf`` and overflowing cells are rejected with their row.
    """
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: {exc}") from None
    n_rows, rows = _table_rows(text, path)
    header = next(rows, None)
    if header is None:
        raise FormatError(f"{path}: empty file")
    if header[:2] != ["object_set", "label"]:
        raise FormatError(f"{path}: header must start with object_set,label")
    columns = tuple(header[2:])
    object_set = ""
    labels = []
    values = np.empty((n_rows - 1, len(columns)), dtype=np.float64)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise FormatError(f"{path}: row {i + 2} has {len(row)} cells, expected {len(header)}")
        if i == 0:
            object_set = row[0]
        elif row[0] != object_set:
            raise FormatError(f"{path}: multiple object_set values in one table")
        try:
            label = int(row[1])
            if not -(2**63) <= label < 2**63:  # int() takes any size; labels are int64
                raise ValueError
        except ValueError:
            raise FormatError(f"{path}: bad label {row[1]!r} in row {i + 2}") from None
        labels.append(label)
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
