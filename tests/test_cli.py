import csv
import io

import numpy as np
import pytest

from morphoprof import (
    FeatureTable,
    ImagePlane,
    LabelMask,
    load_mask,
    read_table,
    save_image,
    save_mask,
    write_table,
)
from morphoprof import engine
from morphoprof.cli import _build_parser, _family_params, main
from synth import blob_mask, smooth_plane


@pytest.fixture
def workspace(tmp_path):
    rng = np.random.default_rng(21)
    mask = blob_mask(48, 48, 6, rng)
    img1 = smooth_plane(48, 48, rng)
    img2 = smooth_plane(48, 48, rng)
    paths = {
        "mask": tmp_path / "mask.raw",
        "img1": tmp_path / "dna.raw",
        "img2": tmp_path / "rna.raw",
        "out": tmp_path / "features.csv",
    }
    save_mask(LabelMask(mask), paths["mask"])
    save_image(ImagePlane(img1.astype(np.float32)), paths["img1"])
    save_image(ImagePlane(img2.astype(np.float32)), paths["img2"])
    return tmp_path, paths


def extract_args(paths, features="shape", extra=()):
    return [
        "extract",
        "--image", str(paths["img1"]),
        "--image", str(paths["img2"]),
        "--channel-names", "DNA,RNA",
        "--mask", str(paths["mask"]),
        "--mask-names", "cells",
        "--features", features,
        "--out", str(paths["out"]),
        *extra,
    ]


def test_extract_shape_only(workspace):
    tmp_path, paths = workspace
    assert main(extract_args(paths)) == 0
    table = read_table(tmp_path / "features_cells.csv")
    assert table.n_rows > 0
    assert all(col.startswith("cells_Shape_") for col in table.columns)


def test_extract_all_families_column_count(workspace):
    tmp_path, paths = workspace
    assert main(extract_args(paths, features="shape,intensity,texture,granularity,radial,coloc")) == 0
    table = read_table(tmp_path / "features_cells.csv")
    assert len(table.columns) == 155


def test_coloc_with_single_channel_exits_2(workspace, capsys):
    _, paths = workspace
    args = [
        "extract",
        "--image", str(paths["img1"]),
        "--channel-names", "DNA",
        "--mask", str(paths["mask"]),
        "--mask-names", "cells",
        "--features", "coloc",
        "--out", str(paths["out"]),
    ]
    assert main(args) == 2
    assert "two channels" in capsys.readouterr().err


def test_mismatched_name_counts_exit_2(workspace, capsys):
    _, paths = workspace
    args = extract_args(paths)
    args[args.index("--channel-names") + 1] = "DNA"
    assert main(args) == 2
    capsys.readouterr()


def test_missing_file_exits_1(workspace, capsys):
    _, paths = workspace
    args = extract_args(paths)
    args[args.index("--mask") + 1] = str(paths["mask"]) + ".nope"
    assert main(args) == 1
    capsys.readouterr()


def _contract_args(tmp_path, paths):
    """Each case's argv and a text its stderr must hold."""
    bad_raster = tmp_path / "bad.raw"
    bad_raster.write_bytes(b"MPROF F32 9 9\n\x00")
    long_raw, long_pgm = tmp_path / "long.raw", tmp_path / "long.pgm"
    long_raw.write_bytes(b"MPROF F32 2 2\n" + bytes(6 * 4))  # six samples under 2x2
    long_pgm.write_bytes(b"P5 2 2 255\n" + bytes(5))
    bad_table = tmp_path / "bad.csv"
    bad_table.write_text("object_set,label,f\ncells,1\n")
    one_channel = extract_args(paths, features="coloc")
    del one_channel[one_channel.index("--image") + 2 : one_channel.index("--channel-names")]
    one_channel[one_channel.index("--channel-names") + 1] = "DNA"
    table = tmp_path / "t.csv"
    values = np.random.default_rng(3).random((6, 3))
    write_table(FeatureTable("cells", ("a", "b", "c"), np.arange(1, 7), values), table)
    narrow, wide = tmp_path / "narrow.raw", tmp_path / "wide.raw"
    save_image(ImagePlane(np.zeros((9, 5), dtype=np.float32)), narrow)
    save_mask(LabelMask(np.ones((9, 6), dtype=np.int64)), wide)
    tessellate = ["tessellate", "--width", "48", "--height", "48", "--radius", "5",
                  "--min-coverage", "1.5", "--out", str(tmp_path / "h.raw")]
    radius = ["tessellate", "--width", "48", "--height", "48", "--out", str(tmp_path / "h.raw"),
              "--radius"]
    normalize = ["normalize", "--in", str(table), "--out", str(tmp_path / "n.csv")]
    return {
        "good": (["list-features"], ""),
        "missing-file": (extract_args({**paths, "mask": tmp_path / "nope.raw"}), "nope.raw"),
        "malformed-raster": (extract_args({**paths, "img1": bad_raster}), "bad.raw"),
        "trailing-raw-bytes": (extract_args({**paths, "img1": long_raw}), "long.raw"),
        "trailing-pgm-bytes": (extract_args({**paths, "mask": long_pgm}), "long.pgm"),
        "malformed-table": (["normalize", "--in", str(bad_table), "--out", str(tmp_path / "n.csv")],
                            "bad.csv"),
        "coloc-one-channel": (one_channel, "two channels"),
        "tessellate-coverage": (tessellate, "min_coverage"),
        "tessellate-coverage-tissue": (tessellate + ["--tissue-mask", str(paths["mask"])],
                                       "min_coverage"),
        "tessellate-radius": (radius + ["0.3"], "circumradius"),
        "tessellate-radius-inf": (radius + ["inf"], "circumradius"),
        "normalize-corr-nan": (normalize + ["--corr-threshold", "nan"], "threshold"),
        "normalize-missing-frac": (normalize + ["--drop-missing-frac", "2"], "drop_missing_frac"),
        "compare-r2-nan": (["compare", "--a", str(table), "--b", str(table), "--out",
                            str(tmp_path / "r.csv"), "--r2-threshold", "nan"], "r2_threshold"),
        "misaligned": (["extract", "--image", str(narrow), "--channel-names", "Mito",
                        "--mask", str(wide), "--mask-names", "cells", "--features", "shape",
                        "--out", str(tmp_path / "f.csv")], "channel Mito (5x9)"),
    }


@pytest.mark.parametrize(
    "case, code",
    [("good", 0), ("missing-file", 1), ("malformed-raster", 1), ("malformed-table", 1),
     ("trailing-raw-bytes", 1), ("trailing-pgm-bytes", 1),
     ("coloc-one-channel", 2), ("tessellate-coverage", 2), ("tessellate-coverage-tissue", 2),
     ("tessellate-radius", 2), ("tessellate-radius-inf", 2),
     ("normalize-corr-nan", 2), ("normalize-missing-frac", 2), ("compare-r2-nan", 2),
     ("misaligned", 2)],
)
def test_exit_code_contract(workspace, capsys, case, code):
    """README: 0 success, 1 I/O or malformed file, 2 invalid request."""
    tmp_path, paths = workspace
    argv, stderr_text = _contract_args(tmp_path, paths)[case]
    assert main(argv) == code
    assert stderr_text in capsys.readouterr().err


def test_repeat_invocation_is_byte_identical(workspace):
    tmp_path, paths = workspace
    features = "shape,intensity,texture,granularity,radial,coloc"
    assert main(extract_args(paths, features=features, extra=["--workers", "1"])) == 0
    first = (tmp_path / "features_cells.csv").read_bytes()
    assert main(extract_args(paths, features=features, extra=["--workers", "3"])) == 0
    assert (tmp_path / "features_cells.csv").read_bytes() == first


def test_unknown_flag_exits_2(workspace):
    _, paths = workspace
    assert main(extract_args(paths, extra=["--frobnicate"])) == 2


def test_tessellate_writes_loadable_mask(tmp_path):
    out = tmp_path / "hexes.raw"
    args = [
        "tessellate",
        "--width", "64", "--height", "50", "--radius", "6.5",
        "--out", str(out),
    ]
    assert main(args) == 0
    mask = load_mask(out)
    assert mask.labels.shape == (50, 64)
    assert (mask.labels > 0).all()


def test_tessellate_with_tissue_mask(tmp_path):
    tissue = np.zeros((50, 64), dtype=np.int64)
    tissue[:, :32] = 7
    tissue_path = tmp_path / "tissue.raw"
    save_mask(LabelMask(tissue), tissue_path)
    out = tmp_path / "hexes.raw"
    args = [
        "tessellate",
        "--width", "64", "--height", "50", "--radius", "6.5",
        "--min-coverage", "0.9",
        "--tissue-mask", str(tissue_path),
        "--out", str(out),
    ]
    assert main(args) == 0
    mask = load_mask(out)
    kept = mask.labels > 0
    assert kept.any() and not kept.all()
    assert (np.nonzero(kept)[1] < 40).all()  # survivors sit in the tissue half


def test_normalize_flow(workspace):
    tmp_path, paths = workspace
    assert main(extract_args(paths, features="shape,intensity")) == 0
    out = tmp_path / "normalized.csv"
    args = [
        "normalize",
        "--in", str(tmp_path / "features_cells.csv"),
        "--out", str(out),
        "--corr-threshold", "0.95",
        "--drop-missing-frac", "0.1",
    ]
    assert main(args) == 0
    table = read_table(out)
    assert 0 < len(table.columns) <= 56
    for j in range(len(table.columns)):
        col = table.values[:, j]
        assert abs(np.median(col)) < 1e-9


def test_normalize_malformed_table_exits_1(workspace, capsys):
    tmp_path, paths = workspace
    assert main(extract_args(paths)) == 0
    table_path = tmp_path / "features_cells.csv"
    header, first, second, *rest = table_path.read_text().splitlines(keepends=True)
    table_path.write_text("".join([header, second, first, *rest]))
    args = ["normalize", "--in", str(table_path), "--out", str(tmp_path / "n.csv")]
    assert main(args) == 1
    err = capsys.readouterr().err
    assert str(table_path) in err and "ascending" in err


def test_compare_flow_and_summary(workspace, capsys):
    tmp_path, paths = workspace
    assert main(extract_args(paths, features="shape")) == 0
    report_path = tmp_path / "report.csv"
    args = [
        "compare",
        "--a", str(tmp_path / "features_cells.csv"),
        "--b", str(tmp_path / "features_cells.csv"),
        "--out", str(report_path),
    ]
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "fraction_r2_gt_0.9=1.0" in out
    lines = report_path.read_text().splitlines()
    assert lines[0] == "feature,slope,intercept,r2,n"
    assert lines[-1] == "fraction_r2_gt_0.9=1.0"


def test_list_features_default_count(capsys):
    assert main(["list-features"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["name", "family", "input_kind", "params"]
    assert len(rows) - 1 == 102  # 44 shape + 12 + 13 + 16 + 12 + 5


def test_list_features_shape_only(capsys):
    assert main(["list-features", "--features", "shape"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == 44
    assert all(row[1] == "Shape" for row in rows)
    assert all(row[2] == "object" for row in rows)


def test_list_features_unknown_family_exits_2(capsys):
    assert main(["list-features", "--features", "wavelets"]) == 2
    capsys.readouterr()


def test_list_features_respects_params(capsys):
    assert main(["list-features", "--granularity-length", "4", "--zernike-order", "2"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))[1:]
    assert len(rows) == (14 + 4) + 12 + 13 + 4 + 12 + 5


def test_family_flag_defaults_are_the_params_defaults():
    parser = _build_parser()
    for argv in (["list-features"], ["extract", "--out", "x"]):
        assert _family_params(parser.parse_args(argv)) == engine._DEFAULT_PARAMS
