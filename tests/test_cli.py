import csv
import hashlib
import io
import math
import platform

import numpy as np
import pytest

from morphoprof import (
    ExperimentSpec,
    FeatureTable,
    ImagePlane,
    LabelMask,
    compare_tables,
    correlation_filter,
    filter_by_coverage,
    load_mask,
    read_table,
    robust_standardize,
    save_image,
    save_mask,
    write_table,
)
from morphoprof.cli import _build_parser, _config, main
from synth import blob_mask, smooth_plane
from test_core import _HEXES, _TABLE, _TISSUE


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
    nan_raw = tmp_path / "nan.raw"
    nan_raw.write_bytes(b"MPROF F32 1 1\n" + np.array([np.nan], dtype="<f4").tobytes())
    bad_table = tmp_path / "bad.csv"
    bad_table.write_text("object_set,label,f\ncells,1\n")
    latin1_table, big_label_table = tmp_path / "latin1.csv", tmp_path / "big_label.csv"
    latin1_table.write_bytes(b"object_set,label,f\ncells,1,\xff\n")
    big_label_table.write_text("object_set,label,f\ncells,99999999999999999999,1.5\n")
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
    # With the input missing, only a flag checked before reading gives exit code 2.
    nowhere = str(tmp_path / "nope.csv")
    unread = ["normalize", "--in", nowhere, "--out", str(tmp_path / "n.csv")]
    empty_table = tmp_path / "empty.csv"
    empty_table.write_bytes(b"")
    unread_extract = ["extract", "--image", str(tmp_path / "none.raw"), "--channel-names", "DNA",
                      "--out", str(tmp_path / "out")]
    none_mask = str(tmp_path / "none.u32")
    return {
        "good": (["list-features"], ""),
        "missing-file": (extract_args({**paths, "mask": tmp_path / "nope.raw"}), "nope.raw"),
        "malformed-raster": (extract_args({**paths, "img1": bad_raster}), "bad.raw"),
        "trailing-raw-bytes": (extract_args({**paths, "img1": long_raw}), "long.raw"),
        "trailing-pgm-bytes": (extract_args({**paths, "mask": long_pgm}), "long.pgm"),
        "non-finite-raster": (extract_args({**paths, "img1": nan_raw}), "nan.raw"),
        "malformed-table": (["normalize", "--in", str(bad_table), "--out", str(tmp_path / "n.csv")],
                            "bad.csv"),
        "non-utf8-table": (["normalize", "--in", str(latin1_table), "--out",
                            str(tmp_path / "n.csv")], "latin1.csv"),
        "non-utf8-table-compare": (["compare", "--a", str(table), "--b", str(latin1_table),
                                    "--out", str(tmp_path / "r.csv")], "latin1.csv"),
        "label-past-int64": (["normalize", "--in", str(big_label_table), "--out",
                              str(tmp_path / "n.csv")], "big_label.csv: bad label"),
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
        "normalize-corr-unread": (unread + ["--corr-threshold", "2"], "threshold"),
        "normalize-missing-frac-unread": (unread + ["--drop-missing-frac", "1.5"],
                                          "drop_missing_frac"),
        "compare-r2-nan-unread": (["compare", "--a", nowhere, "--b", nowhere, "--out",
                                   str(tmp_path / "r.csv"), "--r2-threshold", "nan"],
                                  "r2_threshold"),
        "extract-radial-bins": (extract_args({**paths, "mask": tmp_path / "nope.raw"},
                                             extra=["--radial-bins", "65"]), "bins"),
        "list-features-radial-bins": (["list-features", "--radial-bins", "65"], "bins"),
        "misaligned": (["extract", "--image", str(narrow), "--channel-names", "Mito",
                        "--mask", str(wide), "--mask-names", "cells", "--features", "shape",
                        "--out", str(tmp_path / "f.csv")], "channel Mito (5x9)"),
        "empty-table": (["normalize", "--in", str(empty_table), "--out", str(tmp_path / "n.csv")],
                        "empty.csv: empty file"),
        "extract-two-masks-one-name": (unread_extract + ["--mask", none_mask, "--mask", none_mask,
                                                         "--mask-names", "cells"],
                                       "2 --mask flags but 1 mask names"),
        "extract-no-mask": (unread_extract, "at least one --mask is required"),
    }


@pytest.mark.parametrize(
    "case, code",
    [("good", 0), ("missing-file", 1), ("malformed-raster", 1), ("malformed-table", 1),
     ("non-utf8-table", 1), ("non-utf8-table-compare", 1), ("label-past-int64", 1),
     ("trailing-raw-bytes", 1), ("trailing-pgm-bytes", 1), ("non-finite-raster", 1),
     ("coloc-one-channel", 2), ("tessellate-coverage", 2), ("tessellate-coverage-tissue", 2),
     ("tessellate-radius", 2), ("tessellate-radius-inf", 2),
     ("normalize-corr-nan", 2), ("normalize-missing-frac", 2), ("compare-r2-nan", 2),
     ("normalize-corr-unread", 2), ("normalize-missing-frac-unread", 2),
     ("compare-r2-nan-unread", 2), ("extract-radial-bins", 2), ("list-features-radial-bins", 2),
     ("misaligned", 2), ("empty-table", 1), ("extract-two-masks-one-name", 2),
     ("extract-no-mask", 2)],
)
def test_exit_code_contract(workspace, capsys, case, code):
    """README: 0 success, 1 I/O or malformed file, 2 invalid request."""
    tmp_path, paths = workspace
    argv, stderr_text = _contract_args(tmp_path, paths)[case]
    assert main(argv) == code
    assert stderr_text in capsys.readouterr().err


@pytest.mark.parametrize(
    "value",
    [-0.1, -0.0, 0.0, 0.5, 1.0, math.nextafter(1.0, 2.0), 2.0, math.nan, math.inf, -math.inf],
)
@pytest.mark.parametrize(
    "argv, flag, call",
    [
        (["tessellate", "--width", "8", "--height", "8", "--radius", "2", "--tissue-mask", "{in}"],
         "--min-coverage", lambda v: filter_by_coverage(_HEXES, _TISSUE, v)),
        (["normalize", "--in", "{in}"], "--drop-missing-frac",
         lambda v: robust_standardize(_TABLE, v)),
        (["normalize", "--in", "{in}"], "--corr-threshold", lambda v: correlation_filter(_TABLE, v)),
        (["compare", "--a", "{in}", "--b", "{in}"], "--r2-threshold",
         lambda v: compare_tables(_TABLE, _TABLE, v)),
    ],
    ids=["min-coverage", "drop-missing-frac", "corr-threshold", "r2-threshold"],
)
def test_a_threshold_flag_is_refused_exactly_where_the_library_refuses_it(
    tmp_path, capsys, argv, flag, call, value
):
    # The CLI checks each threshold before it reads its input, so with the
    # input missing it exits 2 only from that check, and 1 once it reads.
    try:
        call(value)
        refusal = None
    except ValueError as exc:
        refusal = str(exc)
    missing = str(tmp_path / "missing")
    argv = [arg.replace("{in}", missing) for arg in argv]
    code = main([*argv, "--out", str(tmp_path / "out"), f"{flag}={value!r}"])
    err = capsys.readouterr().err
    if refusal is None:
        assert code == 1 and missing in err
    else:
        assert code == 2 and refusal in err


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
        assert _config(parser.parse_args(argv)) == ExperimentSpec()


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_compare_self_at_extreme_magnitudes(tmp_path, capsys, scale):
    table = tmp_path / "t.csv"
    values = np.random.default_rng(15).standard_normal((50, 3)) * scale
    write_table(FeatureTable("cells", ("a", "b", "c"), np.arange(1, 51), values), table)
    argv = ["compare", "--a", str(table), "--b", str(table), "--out", str(tmp_path / "r.csv")]
    assert main(argv) == 0
    assert capsys.readouterr().out == "fraction_r2_gt_0.9=1.0\n"


def test_compare_names_the_feature_whose_fit_is_past_the_float_range(tmp_path, capsys):
    x = np.random.default_rng(16).standard_normal((30, 2))
    a, b, out = tmp_path / "a.csv", tmp_path / "b.csv", tmp_path / "r.csv"
    write_table(FeatureTable("cells", ("ok", "huge"), np.arange(1, 31), x * [1.0, 1e-300]), a)
    write_table(FeatureTable("cells", ("ok", "huge"), np.arange(1, 31), x * [2.0, 1e300]), b)
    assert main(["compare", "--a", str(a), "--b", str(b), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "invalid request: feature 'huge', slope: non-finite" in err
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", ["1e308", "1.0378986153331002e+308"])
def test_tessellate_at_the_largest_radii_is_one_quiet_hexagon(tmp_path, capsys, radius):
    out = tmp_path / "h.raw"
    argv = ["tessellate", "--width", "5", "--height", "4", "--radius", radius, "--out", str(out)]
    assert main(argv) == 0
    assert capsys.readouterr().err == ""
    assert (load_mask(out).labels == 1).all()


@pytest.mark.parametrize(
    "flags, code",
    [([], 1), (["--features", "wavelets"], 2), (["--texture-gray-levels", "1"], 2),
     (["--granularity-length", "0"], 2), (["--batch-size", "0"], 2), (["--workers", "0"], 2)],
)
def test_extract_checks_flags_before_reading_any_file(tmp_path, capsys, flags, code):
    # The files do not exist, so only a flag checked first can give exit code 2.
    argv = ["extract", "--image", str(tmp_path / "none.raw"), "--channel-names", "DNA",
            "--mask", str(tmp_path / "none.u32"), "--mask-names", "cells",
            "--out", str(tmp_path / "out"), *flags]
    assert main(argv) == code
    assert ("invalid request" if code == 2 else "none.raw") in capsys.readouterr().err

#: sha256 of each list-features output.  The rows are plain strings with no
#: float math, so they do not depend on the library versions.
LIST_FEATURES_SHA256 = {
    (): "3c0ac81a379c4808c9a2e53143f90deaf9dd8888e84ac60a100789e82354bfff",
    ("--features", "shape,coloc"):
        "036db58edcb8fd16fb0a323ec826095aba16b55655e7d3c4cda18f3e39d1088d",
    ("--features", "radial", "--radial-bins", "6"):
        "b66cccbecdb1cadafa88cf3a2e38d70ea9c3ae15d4efea3fde94b316d1d06a1a",
}

#: sha256 of each --help output at COLUMNS=80, keyed by Python version,
#: because argparse formats help differently between releases.
HELP_SHA256 = {
    "3.11.7": {
        (): "bde0538e6c03a7081acd6216bb3d5c7cc5b4f7eb00a64744a8472945d4e13a30",
        ("extract",): "95c07ffd3bb1d8fe70d597a35748c615813bfc8ba849f6413418d8e2151def4b",
        ("tessellate",): "241a6e671095120858d0faf1112c0ed8669fbb2f4d999fbad1aea115fa08cacd",
        ("normalize",): "997841fa4d8019a5078589093897776407ae9f8a099c56eef5d22f6ae36b4a8e",
        ("compare",): "30b60c7a4ea955579798684c8c2604ca202d1e53e4a495c378e0440b48aa0b9f",
        ("list-features",): "89b8bb096f898dab76425de31c33fb3679c2ce071bd74c4c292a6d20dc7f04ef",
    },
}


def _stdout_sha256(capsys, argv) -> str:
    assert main(argv) == 0
    return hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()


@pytest.mark.parametrize("flags", list(LIST_FEATURES_SHA256))
def test_list_features_output_is_pinned(capsys, flags):
    assert _stdout_sha256(capsys, ["list-features", *flags]) == LIST_FEATURES_SHA256[flags]


@pytest.mark.parametrize("command", [(), ("extract",), ("tessellate",), ("normalize",),
                                     ("compare",), ("list-features",)])
def test_help_output_is_pinned(capsys, monkeypatch, command):
    pinned = HELP_SHA256.get(platform.python_version())
    if pinned is None:
        pytest.skip(f"no --help digests pinned for Python {platform.python_version()}")
    monkeypatch.setenv("COLUMNS", "80")
    assert _stdout_sha256(capsys, [*command, "--help"]) == pinned[command]
