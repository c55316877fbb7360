import numpy as np
import pytest

from morphoprof import (
    FeatureTable,
    FormatError,
    ImagePlane,
    LabelMask,
    RasterHeader,
    load_image,
    load_mask,
    read_header,
    read_table,
    save_image,
    save_mask,
    write_table,
)


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
    with pytest.raises(FormatError):
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
        header = read_header(path)
        assert header == RasterHeader(fmt, 9, 6)
        assert header.sample_size == sample_size
    with pytest.raises(ValueError):
        RasterHeader("TIFF", 4, 4)


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
