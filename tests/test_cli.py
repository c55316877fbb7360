import csv
import io

import numpy as np
import pytest

from morphoprof import ImagePlane, LabelMask, load_mask, read_table, save_image, save_mask
from morphoprof.cli import main
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
