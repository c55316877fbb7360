import csv
import io
import os
import re
import stat
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from morphoprof import (
    FeatureTable,
    FormatError,
    ImagePlane,
    LabelMask,
    load_image,
    load_mask,
    read_table,
    save_image,
    save_mask,
    write_table,
)
from morphoprof import raster_io
from morphoprof.cli import main
from oracles import write_table_oracle
from peakrss import probe_peaks


def header_of(path):
    """(format, width, height) of a raster file, read without its payload."""
    with open(path, "rb") as fh:
        return raster_io._parse_header(fh, path)


def write_pgm16(path, samples):
    arr = np.asarray(samples, dtype=">u2")
    path.write_bytes(
        f"P5 {arr.shape[1]} {arr.shape[0]} 65535\n".encode() + arr.tobytes()
    )


def test_pgm16_full_scale_maps_to_one(tmp_path):
    path = tmp_path / "a.pgm"
    write_pgm16(path, [[65535, 0]])
    plane = load_image(path)
    assert plane.pixels[0, 0] == 1.0
    assert plane.pixels[0, 1] == 0.0


def test_pgm8_normalizes_by_255(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5 1 1 255\n" + bytes([51]))
    assert load_image(path).pixels[0, 0] == 51 / 255 == 0.2


def test_pgm_comments_are_skipped(tmp_path):
    path = tmp_path / "a.pgm"
    path.write_bytes(b"P5\n# a comment\n2 1\n# more\n255\n" + bytes([0, 255]))
    assert load_image(path).pixels.tolist() == [[0.0, 1.0]]


def test_rawf32_round_trip_is_bit_identical(tmp_path, rng):
    plane = ImagePlane(rng.random((13, 7)).astype(np.float32))
    first = tmp_path / "a.raw"
    second = tmp_path / "b.raw"
    save_image(plane, first)
    loaded = load_image(first)
    assert np.array_equal(loaded.pixels, plane.pixels)
    save_image(loaded, second)
    assert first.read_bytes() == second.read_bytes()


def test_pgm16_mask_labels_are_verbatim(tmp_path):
    path = tmp_path / "m.pgm"
    write_pgm16(path, [[0, 17], [65535, 3]])
    mask = load_mask(path)
    assert mask.labels.tolist() == [[0, 17], [65535, 3]]


def test_pgm8_mask_labels_are_verbatim(tmp_path):
    path = tmp_path / "m.pgm"
    path.write_bytes(b"P5 3 1 255\n" + bytes([0, 9, 255]))
    assert load_mask(path).labels.tolist() == [[0, 9, 255]]


def test_rawu32_supports_large_labels(tmp_path):
    mask = LabelMask(np.array([[0, 70000]], dtype=np.int64))
    path = tmp_path / "m.raw"
    save_mask(mask, path)
    assert load_mask(path).labels.tolist() == [[0, 70000]]


def test_mask_round_trip_identical(tmp_path, rng):
    mask = LabelMask(rng.integers(0, 100000, size=(9, 5)))
    for fmt, name in (("RAWU32", "a.raw"),):
        path = tmp_path / name
        save_mask(mask, path, fmt=fmt)
        assert np.array_equal(load_mask(path).labels, mask.labels)


def test_pgm16_mask_rejects_oversized_labels(tmp_path):
    mask = LabelMask(np.array([[70000]], dtype=np.int64))
    with pytest.raises(ValueError):
        save_mask(mask, tmp_path / "m.pgm", fmt="PGM16")


def test_rawu32_mask_rejects_labels_beyond_uint32(tmp_path):
    path = tmp_path / "m.raw"
    save_mask(LabelMask(np.array([[0, 2**32 - 1]], dtype=np.int64)), path)
    assert load_mask(path).labels.tolist() == [[0, 2**32 - 1]]
    with pytest.raises(ValueError, match="RAWU32"):
        save_mask(LabelMask(np.array([[2**32 + 5]], dtype=np.int64)), path)


def random_table(rng, n_rows=6, n_cols=4):
    values = rng.standard_normal((n_rows, n_cols))
    values[rng.random((n_rows, n_cols)) < 0.2] = np.nan
    return FeatureTable(
        object_set="cells",
        columns=tuple(f"cells_Shape_F{i}" for i in range(n_cols)),
        labels=np.arange(1, n_rows + 1),
        values=values,
    )


def test_empty_table_writes_header_only(tmp_path):
    table = FeatureTable(
        object_set="cells",
        columns=("cells_Shape_Area",),
        labels=np.array([], dtype=np.int64),
        values=np.empty((0, 1)),
    )
    path = tmp_path / "t.csv"
    write_table(table, path)
    assert path.read_text() == "object_set,label,cells_Shape_Area\n"


def test_simple_value_is_literal(tmp_path):
    table = FeatureTable(
        object_set="cells",
        columns=("cells_Shape_Area",),
        labels=np.array([1]),
        values=np.array([[0.5]]),
    )
    path = tmp_path / "t.csv"
    write_table(table, path)
    assert path.read_text() == "object_set,label,cells_Shape_Area\ncells,1,0.5\n"
    assert read_table(path).values[0, 0] == 0.5


def test_write_read_write_is_byte_stable(tmp_path, rng):
    table = random_table(rng)
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    write_table(table, first)
    write_table(read_table(first), second)
    assert first.read_bytes() == second.read_bytes()


def test_round_trip_preserves_values_and_missing(tmp_path, rng):
    table = random_table(rng)
    path = tmp_path / "t.csv"
    write_table(table, path)
    loaded = read_table(path)
    assert loaded.columns == table.columns
    assert np.array_equal(loaded.labels, table.labels)
    assert np.array_equal(loaded.values, table.values, equal_nan=True)
    assert "nan" not in path.read_text()


def test_header_only_round_trip(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("object_set,label\n")
    loaded = read_table(path)
    assert loaded.n_rows == 0
    assert loaded.columns == ()


@pytest.mark.parametrize(
    "content",
    [
        b"P6 1 1 255\n\x00",
        b"P5 1 1 77\n\x00",
        b"MPROF F32 2 2\n\x00\x00",
        b"garbage",
    ],
)
def test_malformed_images_raise(tmp_path, content):
    path = tmp_path / "bad.bin"
    path.write_bytes(content)
    with pytest.raises(FormatError):
        load_image(path)


def test_non_finite_float_payload_raises(tmp_path):
    payload = np.array([np.inf], dtype="<f4").tobytes()
    path = tmp_path / "bad.raw"
    path.write_bytes(b"MPROF F32 1 1\n" + payload)
    with pytest.raises(FormatError, match=re.escape(f"{path}: image contains non-finite")):
        load_image(path)


def test_read_header_identifies_formats(tmp_path, rng):
    plane = ImagePlane(rng.random((6, 9)).astype(np.float32))
    mask = LabelMask(rng.integers(0, 4, size=(6, 9)))
    cases = {
        "a.raw": (save_image, plane, "RAWF32", 4),
        "b.pgm": (lambda p, f: save_image(p, f, fmt="PGM16"), plane, "PGM16", 2),
        "c.pgm": (lambda p, f: save_image(p, f, fmt="PGM8"), plane, "PGM8", 1),
        "m.raw": (save_mask, mask, "RAWU32", 4),
    }
    for name, (saver, obj, fmt, sample_size) in cases.items():
        path = tmp_path / name
        saver(obj, path)
        with open(path, "rb") as fh:
            header = raster_io._parse_header(fh, path)
            payload = fh.read()  # the header is read up to the first payload byte
        assert header == (fmt, 9, 6)
        assert len(payload) == 9 * 6 * sample_size


def test_read_header_reads_past_a_long_pgm_comment(tmp_path):
    path = tmp_path / "long.pgm"
    path.write_bytes(b"P5\n#" + b"c" * 300 + b"\n2 1\n255\n\x00\xff")
    assert load_image(path).pixels.shape == (1, 2)
    assert header_of(path) == ("PGM8", 2, 1)
    # Comments ending on and around byte 256, tokens included.
    for pad in range(240, 262):
        path.write_bytes(b"P5\n#" + b"c" * pad + b"\n12 1\n65535\n" + bytes(24))
        assert header_of(path) == ("PGM16", 12, 1), pad
    path.write_bytes(b"P5\n#" + b"c" * 600)
    with pytest.raises(FormatError, match="truncated PGM header"):
        header_of(path)


def test_read_header_reads_past_a_long_raw_header_line(tmp_path):
    path = tmp_path / "long.raw"
    path.write_bytes(b"MPROF F32 " + b"0" * 300 + b"2 1\n" + bytes(8))
    assert load_image(path).pixels.shape == (1, 2)
    assert header_of(path) == ("RAWF32", 2, 1)
    path.write_bytes(b"MPROF U32 2 1" + b" " * 600)
    with pytest.raises(FormatError, match="missing raw header line"):
        header_of(path)


def test_literal_nan_cell_is_rejected(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("object_set,label,f\ncells,1,nan\n")
    with pytest.raises(FormatError):
        read_table(path)


def test_ragged_and_non_numeric_rows_raise(tmp_path):
    ragged = tmp_path / "r.csv"
    ragged.write_text("object_set,label,f\ncells,1\n")
    with pytest.raises(FormatError):
        read_table(ragged)
    textual = tmp_path / "n.csv"
    textual.write_text("object_set,label,f\ncells,1,abc\n")
    with pytest.raises(FormatError):
        read_table(textual)


def test_writing_an_infinite_cell_raises_and_leaves_the_file(tmp_path):
    values = np.array([[0.5, 1.0], [2.0, np.inf]])
    table = FeatureTable("cells", ("f", "g"), np.array([1, 2]), values)
    path = tmp_path / "t.csv"
    path.write_text("previous contents\n")
    with pytest.raises(ValueError, match="non-finite"):
        write_table(table, path)
    assert path.read_text() == "previous contents\n"


#: Cell values a table may hold, with NaN, signed zeros, subnormals, the
#: ends of the float range and integer-valued floats drawn often.
_TABLE_VALUES = st.one_of(
    st.floats(allow_infinity=False),
    st.sampled_from([np.nan, 0.0, -0.0, 5e-324, -2.5e-320, 2.2250738585072014e-308, 1e308,
                     -1.7976931348623157e308, 1.0, -3.0, 1e16, 2.0**53, 123456789.0]),
)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_write_table_gives_the_bytes_of_the_format_cell_writer(tmp_path_factory, data):
    n_rows, n_cols = data.draw(st.integers(0, 5)), data.draw(st.integers(0, 5))
    cells = data.draw(st.lists(_TABLE_VALUES, min_size=n_rows * n_cols, max_size=n_rows * n_cols))
    values = np.array(cells, dtype=np.float64).reshape(n_rows, n_cols)
    object_set = data.draw(st.sampled_from(["cells", "", "a,b", 'say "hi"', "two\nlines", "cr\r"]))
    names = [data.draw(st.sampled_from(["f{}", "f,{}", 'f"{}'])) for _ in range(n_cols)]
    labels = data.draw(st.lists(st.integers(0, 2**63 - 1), min_size=n_rows,
                                max_size=n_rows, unique=True))
    table = FeatureTable(object_set, tuple(name.format(j) for j, name in enumerate(names)),
                         np.sort(np.array(labels, dtype=np.int64)), values)
    base = tmp_path_factory.getbasetemp()
    got, want = base / "got.csv", base / "want.csv"
    got.unlink(missing_ok=True)
    if values.size and data.draw(st.booleans()):
        # One infinite cell anywhere: ValueError, and no file is created.
        poisoned = values.copy()
        cell = data.draw(st.integers(0, values.size - 1))
        poisoned.flat[cell] = data.draw(st.sampled_from([np.inf, -np.inf]))
        with pytest.raises(ValueError, match="non-finite"):
            write_table(FeatureTable(object_set, table.columns, table.labels, poisoned), got)
        assert not got.exists()
    write_table(table, got)
    write_table_oracle(table, want)
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize(
    "text, message",
    [
        ("object_set,label,f\ncells,1,1\x00\n", "non-numeric cell '1\\x00' in row 2"),
        ("object_set,label,f\ncells\x00,1,1\ncells,2,2\n", "multiple object_set values"),
    ],
)
def test_nul_characters_in_table_cells_are_rejected(tmp_path, text, message):
    path = tmp_path / "t.csv"
    path.write_text(text)
    with pytest.raises(FormatError, match=re.escape(message)):
        read_table(path)


@pytest.mark.parametrize("row", [1, 3])
def test_a_quoted_cell_past_the_csv_field_limit_is_a_format_error(tmp_path, capsys, row):
    # csv.reader raises its own csv.Error on a field longer than
    # csv.field_size_limit(), which used to end the CLI in a traceback.
    lines = ["object_set,label,f", "cells,1,0.5", "cells,2,0.25"]
    lines[row - 1] = lines[row - 1][:-1] + '"' + "1" * (csv.field_size_limit() + 1) + '"'
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(FormatError, match=re.escape(f"{path}: ") + f".* in row {row}$"):
        read_table(path)
    assert main(["normalize", "--in", str(path), "--out", str(tmp_path / "n.csv")]) == 1
    assert capsys.readouterr().err.startswith(f"morphoprof: error: {path}: ")


@pytest.mark.parametrize(
    "content, message",
    [
        (b"object_set,label,f\ncells,1,\xff\n",
         "'utf-8' codec can't decode byte 0xff in position 27"),
        (b"object_set,label,f\ncells,99999999999999999999,1.5\n",
         "bad label '99999999999999999999' in row 2"),
        (b"object_set,label,f\ncells,1,0.5\ncells,-9223372036854775809,1.5\n",
         "bad label '-9223372036854775809' in row 3"),
    ],
)
def test_undecodable_text_and_labels_past_int64_are_format_errors(tmp_path, content, message):
    # Both used to escape read_table: a UnicodeDecodeError that named no file
    # (exit code 2 from the CLI), and an OverflowError from the int64 labels.
    path = tmp_path / "t.csv"
    path.write_bytes(content)
    with pytest.raises(FormatError, match=re.escape(f"{path}: {message}")):
        read_table(path)


def reference_read(text):
    """``csv.reader`` rows of a table's text, each cell read by ``float()``:
    (columns, labels, values), or the message of the first malformed row or
    cell."""
    rows = list(csv.reader(io.StringIO(text, newline="")))
    if not rows:
        return "empty file"
    header, body = rows[0], rows[1:]
    if header[:2] != ["object_set", "label"]:
        return "header must start with object_set,label"
    labels, values = [], []
    for n, row in enumerate(body, start=2):
        if len(row) != len(header):
            return f"row {n} has {len(row)} cells, expected {len(header)}"
        if row[0] != body[0][0]:
            return "multiple object_set values in one table"
        try:
            labels.append(int(row[1]))
        except ValueError:
            return f"bad label {row[1]!r} in row {n}"
        if not -(2**63) <= labels[-1] < 2**63:
            return f"bad label {row[1]!r} in row {n}"
        for cell in row[2:]:
            if cell == "":
                values.append(np.nan)
                continue
            try:
                values.append(float(cell))
            except ValueError:
                return f"non-numeric cell {cell!r} in row {n}"
            if not np.isfinite(values[-1]):
                return f"non-finite cell {cell!r} in row {n}"
    shape = (len(body), len(header) - 2)
    return tuple(header[2:]), labels, np.array(values, dtype=np.float64).reshape(shape)


_ODD_CELLS = ["", " 1", "1_0", "+1", "\u0661\u0662", "nan", "inf", "1e400", "abc", "1\x00"]
_FLOAT_CELLS = st.floats(allow_nan=False, allow_infinity=False).map(repr)  # shortest repr
_CELLS = st.one_of(_FLOAT_CELLS, _FLOAT_CELLS, _FLOAT_CELLS, st.sampled_from(_ODD_CELLS))


@st.composite
def table_text(draw):
    """A header and up to six body rows, some short, long or of another
    object set, as CSV text.  Half the texts are plain: LF line ends and no
    quotes.  The others quote names and object sets that need it and, now
    and then, whole rows that do not, and end lines with CRLF, lone CR or a
    mix.  Either kind may hold blank lines and lack its final line end."""
    plain = draw(st.booleans())
    odd = [] if plain else ["f,{}", 'f"{}', "f\n{}"]
    n_cols = draw(st.integers(0, 5))
    names = draw(st.lists(st.sampled_from(["f{}"] * 6 + odd), min_size=n_cols, max_size=n_cols))
    rows = [["object_set", "label", *(name.format(j) for j, name in enumerate(names))]]
    odd = [""] if plain else ["", "a,b", 'say "hi"', "two\nlines"]
    cells_set = draw(st.sampled_from(["cells"] * 4 + odd))
    for n in range(draw(st.integers(0, 6))):
        width = draw(st.sampled_from([n_cols] * 18 + [max(n_cols - 1, 0), n_cols + 1]))
        object_set = draw(st.sampled_from([cells_set] * 18 + ["nuclei", cells_set + "\x00"]))
        label = draw(st.sampled_from([str(n + 1)] * 18 + ["x", f"{n + 1}\x00", str(2**63)]))
        rows.append([object_set, label, *draw(st.lists(_CELLS, min_size=width, max_size=width))])
    ends = ["\n"] if plain else draw(st.sampled_from([["\r\n"], ["\r"], ["\n", "\r\n", "\r"]]))
    lines = []
    for row in rows:
        lines.extend([""] * draw(st.sampled_from([0] * 18 + [1, 2])))
        quote_all = not plain and draw(st.sampled_from([False] * 4 + [True]))
        lines.append(",".join(
            '"' + cell.replace('"', '""') + '"'
            if quote_all or any(c in cell for c in ',"\r\n') else cell
            for cell in row
        ))
    final = draw(st.sampled_from(ends + [""]))  # "" leaves the last line unended
    return "".join(line + draw(st.sampled_from(ends)) for line in lines[:-1]) + lines[-1] + final


@settings(max_examples=300, deadline=None)
@given(table_text())
def test_read_table_agrees_with_per_cell_parsing(tmp_path_factory, text):
    # Unquoted text without CRs is split on line ends and commas; any other
    # text goes through csv.reader.  Both must give csv.reader's rows.
    path = tmp_path_factory.getbasetemp() / "prop.csv"
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)
    expected = reference_read(text)
    if isinstance(expected, str):
        with pytest.raises(FormatError) as info:
            read_table(path)
        assert str(info.value) == f"{path}: {expected}"
    else:
        loaded = read_table(path)
        assert loaded.columns == expected[0]
        assert loaded.labels.tolist() == expected[1]
        assert loaded.values.tobytes() == expected[2].tobytes()  # bitwise, NaN included


@pytest.mark.parametrize(
    "content",
    [
        b"MPROF U32 1_0 +1\n" + bytes(40),  # int() accepts both tokens
        b"MPROF U32 +2 1\n" + bytes(8),
        b"MPROF F32 2 1\r\n" + bytes(8),
        b"MPROF F32 2 \t1\n" + bytes(8),
        b"MPROF F32 \xd9\xa2 1\n" + bytes(8),  # an Arabic-Indic digit
        b"P51 1 255\n\x07",  # no whitespace after the magic
        b"P5#c\n1 1 255\n\x07",
    ],
)
def test_header_dims_are_ascii_digits_after_a_separated_magic(tmp_path, content):
    path = tmp_path / "lax.bin"
    path.write_bytes(content)
    for load in (header_of, load_image, load_mask):
        with pytest.raises(FormatError, match="lax.bin"):
            load(path)


def test_oversized_pgm_header_token_is_a_format_error(tmp_path, capsys):
    # A digit run past Python's int() string-conversion limit (4,300 by default).
    path = tmp_path / "huge.pgm"
    path.write_bytes(b"P5 " + b"9" * 5000 + b" 1 255\n")
    for load in (load_image, load_mask, header_of):
        with pytest.raises(FormatError, match="huge.pgm"):
            load(path)
    mask = tmp_path / "m.raw"
    save_mask(LabelMask(np.ones((1, 1), dtype=np.int64)), mask)
    args = ["extract", "--image", str(path), "--channel-names", "DNA",
            "--mask", str(mask), "--mask-names", "cells", "--out", str(tmp_path / "f.csv")]
    assert main(args) == 1
    assert str(path) in capsys.readouterr().err


def test_loaders_read_from_a_pipe(tmp_path, rng):
    # Shell process substitution, `--image <(zcat dna.raw.gz)`, passes a pipe.
    plane = ImagePlane(rng.random((300, 300)).astype(np.float32))  # > pipe buffer
    save_image(plane, tmp_path / "a.raw")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_bytes, args=((tmp_path / "a.raw").read_bytes(),), daemon=True
    )
    writer.start()
    assert np.array_equal(load_image(fifo).pixels, plane.pixels)
    writer.join(timeout=10)
    assert not writer.is_alive()


def test_lying_header_fails_before_allocating(tmp_path):
    path = tmp_path / "lie.raw"
    path.write_bytes(b"MPROF F32 100000 100000\n" + bytes(4))  # declares 40 GB
    tracemalloc.start()
    try:
        with pytest.raises(FormatError, match="truncated payload"):
            load_image(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20


@pytest.mark.parametrize("kind", ["image", "mask"])
def test_loading_a_raster_adds_about_its_payload_to_the_peak(tmp_path, rng, kind):
    # The payload is read once into the array the plane or mask holds: no
    # joined chunks beside it and no float64 or int64 copy after it.
    path = tmp_path / "big.raw"
    samples = np.arange(1024 * 1024, dtype=np.uint32).reshape(1024, 1024)
    if kind == "image":
        save_image(ImagePlane(rng.random(samples.shape, dtype=np.float32)), path)
    else:
        save_mask(LabelMask(samples), path)
    before, after = probe_peaks("load", kind, path)
    added_kib, payload_kib = after - before, samples.nbytes // 1024
    assert added_kib <= 1.5 * payload_kib, f"loading a {kind} added {added_kib} KiB"


def test_big_endian_masks_load_from_a_pipe(tmp_path):
    # PGM16 samples are swapped into native order in the buffer they were read into.
    labels = np.arange(300 * 300, dtype=np.uint16).reshape(300, 300)  # > pipe buffer
    save_mask(LabelMask(labels), tmp_path / "m.pgm", fmt="PGM16")
    fifo = tmp_path / "fifo"
    os.mkfifo(fifo)
    writer = threading.Thread(
        target=fifo.write_bytes, args=((tmp_path / "m.pgm").read_bytes(),), daemon=True
    )
    writer.start()
    mask = load_mask(fifo)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert mask.labels.dtype == np.uint16 and np.array_equal(mask.labels, labels)
    assert np.array_equal(load_mask(tmp_path / "m.pgm").labels, labels)


def test_pgm_quantizes_a_float32_plane_as_its_float64_values(tmp_path):
    # In float32, 0.6098039150238037 * 255 rounds up to 155.5, and rint gives 156.
    values = np.array([[0.6098039150238037, 0.6700618267059326]], dtype=np.float32)
    for fmt, top in (("PGM8", 255), ("PGM16", 65535)):
        save_image(ImagePlane(values), tmp_path / "q.pgm", fmt=fmt)
        expected = np.rint(values.astype(np.float64) * top) / top
        assert np.array_equal(load_image(tmp_path / "q.pgm").pixels, expected)


@st.composite
def raster_bytes(draw):
    """A magic prefix, then random bytes or a small raster with one edit,
    whose payload is the declared size or one byte longer."""
    magic = draw(st.sampled_from([b"P5", b"MPROF F32 ", b"MPROF U32 "]))
    if draw(st.booleans()):
        return magic + draw(st.binary(max_size=64))
    width, height = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    maxval = draw(st.sampled_from([255, 65535]))
    tail = f" {width} {height} {maxval}\n" if magic == b"P5" else f"{width} {height}\n"
    size = width * height * ({255: 1, 65535: 2}[maxval] if magic == b"P5" else 4)
    data = bytearray(magic + tail.encode() + draw(st.binary(min_size=size, max_size=size + 1)))
    at = draw(st.integers(len(magic), len(magic) + len(tail)))
    edit = draw(st.sampled_from(
        [b"", b" ", b"\n", b"#", b"0", b"x", b"\xff", b"9" * 5000, b"_", b"+", b"\t", b"\r"]
    ))
    data[at : at + draw(st.integers(0, 2))] = edit
    return bytes(data[: draw(st.sampled_from([len(data), at + 1, len(data) - 1]))])


@settings(max_examples=300, deadline=None)
@given(raster_bytes())
@example(b"MPROF F32 1 1\n\x00\x00\x81\x7f")  # a signalling NaN
def test_bytes_after_a_magic_load_or_raise_format_error(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "fuzz.bin"
    path.write_bytes(content)
    loaded = {}
    for load in (header_of, load_image, load_mask):
        try:
            loaded[load] = load(path)
        except FormatError:
            pass
    shapes = [loaded[load_image].pixels.shape] if load_image in loaded else []
    shapes += [loaded[load_mask].labels.shape] if load_mask in loaded else []
    for shape in shapes:
        _, width, height = loaded[header_of]
        assert shape == (height, width)
    if header_of in loaded:  # the strict header grammar
        if content.startswith(b"P5"):
            assert content[2:3].isspace()
        else:
            assert re.fullmatch(rb"MPROF [FU]32 [0-9]+ [0-9]+", content.split(b"\n")[0])


def _loaded(load, source, content):
    """What ``load`` gives for ``source``: (dtype, shape, bytes) of its array,
    or the text of its FormatError after the ``f"{source}: "`` that starts it.
    A FIFO is fed ``content`` by a thread, which stops quietly when the loader
    closes the pipe early."""

    def feed():
        try:
            with open(source, "wb") as fh:
                fh.write(content)
        except BrokenPipeError:  # the loader stopped reading
            pass

    writer = threading.Thread(target=feed, daemon=True)
    if stat.S_ISFIFO(os.stat(source).st_mode):
        writer.start()
    try:
        loaded = load(source)
        array = loaded.pixels if load is load_image else loaded.labels
        return array.dtype, array.shape, array.tobytes()
    except FormatError as exc:
        assert str(exc).startswith(f"{source}: "), exc
        return str(exc)[len(f"{source}: "):]
    finally:
        if writer.is_alive():
            writer.join(timeout=10)
            assert not writer.is_alive()


@settings(max_examples=200, deadline=None)
@given(raster_bytes())
@example(b"MPROF F32 1 1\n" + bytes(1 << 17))  # more than a pipe holds past the payload
@example(b"P6" + bytes(1 << 17))
def test_a_raster_loads_alike_from_a_file_and_a_pipe(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "same.bin"
    fifo = tmp_path_factory.getbasetemp() / "same.fifo"
    path.write_bytes(content)
    if not fifo.exists():
        os.mkfifo(fifo)
    for load in (load_image, load_mask):
        assert _loaded(load, path, content) == _loaded(load, fifo, content)


_SHAPES = array_shapes(min_dims=2, max_dims=2, min_side=1, max_side=6)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_mask_round_trip_over_the_full_label_range(tmp_path_factory, data):
    for fmt, top in (("RAWU32", 2**32 - 1), ("PGM16", 65535)):
        labels = data.draw(arrays(np.int64, _SHAPES, elements=st.integers(0, top)))
        order = data.draw(st.sampled_from("CF"))  # files are row-major either way
        path = tmp_path_factory.getbasetemp() / f"rt.{fmt}"
        save_mask(LabelMask(np.asarray(labels, order=order)), path, fmt=fmt)
        assert np.array_equal(load_mask(path).labels, labels)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_image_round_trip(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "rt.img"
    f32 = st.floats(width=32, allow_nan=False, allow_infinity=False)
    pixels = data.draw(arrays(np.float32, _SHAPES, elements=f32)).astype(np.float64)
    save_image(ImagePlane(np.asarray(pixels, order=data.draw(st.sampled_from("CF")))), path)
    # Bit-exact at the file's width, -0.0 too.
    assert load_image(path).pixels.tobytes() == pixels.astype(np.float32).tobytes()
    pixels = data.draw(arrays(np.float64, _SHAPES, elements=st.floats(-2, 2)))
    for fmt, top in (("PGM8", 255), ("PGM16", 65535)):
        save_image(ImagePlane(pixels), path, fmt=fmt)
        expected = np.rint(np.clip(pixels, 0, 1) * top) / top
        assert np.array_equal(load_image(path).pixels, expected)
