"""Command-line front end: extract, tessellate, normalize, compare, list-features.

Exit codes: 0 success, 1 runtime failure (I/O, malformed files), 2 bad
flags or an invalid experiment (for example colocalization with a single
channel).  Diagnostics go to stderr; outputs are deterministic for
identical inputs and flags, regardless of --workers.
"""

from __future__ import annotations

import argparse
import csv
import inspect
import sys
from dataclasses import replace
from pathlib import Path

from . import engine, postprocess, raster_io, tessellate
from .core import _check_real
from .engine import ExperimentSpec, SpecValidationError

#: Each family-parameter flag: (flag, family, attribute of ExperimentSpec's <family>_params).
_FAMILY_FLAGS = (
    ("--texture-distance", "texture", "distance"),
    ("--texture-gray-levels", "texture", "gray_levels"),
    ("--zernike-order", "shape", "zernike_max_order"),
    ("--radial-bins", "radial", "bins"),
    ("--manders-threshold", "coloc", "manders_threshold_frac"),
    ("--granularity-length", "granularity", "spectrum_length"),
    ("--granularity-background-radius", "granularity", "background_radius"),
)


def _add_family_flags(parser) -> None:
    """The --features flag and the family-parameter flags, shared by
    extract and list-features; their defaults are ExperimentSpec()'s."""
    defaults = ExperimentSpec()
    parser.add_argument(
        "--features",
        default=",".join(defaults.families),
        help="comma-separated families (default: all)",
    )
    for flag, family, attr in _FAMILY_FLAGS:
        default = getattr(getattr(defaults, f"{family}_params"), attr)
        metavar = flag[2:].upper().replace("-", "_")  # argparse's own, so --help stays put
        parser.add_argument(flag, dest=attr, metavar=metavar, type=type(default), default=default)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="morphoprof",
        description="Deterministic per-object feature extraction for image-based profiling.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    ex = sub.add_parser("extract", help="measure objects and write one CSV per object set")
    ex.add_argument("--image", action="append", default=[], help="channel image (repeatable)")
    ex.add_argument("--channel-names", default="", help="comma-separated channel names")
    ex.add_argument("--mask", action="append", default=[], help="label mask (repeatable)")
    ex.add_argument("--mask-names", default="", help="comma-separated object set names")
    _add_family_flags(ex)
    ex.add_argument("--batch-size", type=int, default=ExperimentSpec.batch_size)
    ex.add_argument("--workers", type=int, default=ExperimentSpec.workers)
    ex.add_argument("--out", required=True, help="output stem or .csv path")

    tess = sub.add_parser("tessellate", help="write a hexagonal label mask")
    tess.add_argument("--width", type=int, required=True)
    tess.add_argument("--height", type=int, required=True)
    tess.add_argument("--radius", type=float, required=True, help="hexagon circumradius, pixels")
    tess.add_argument("--min-coverage", type=float, default=0.5)
    tess.add_argument("--tissue-mask", help="binary mask; hexagons below coverage are dropped")
    tess.add_argument("--out", required=True)

    norm = sub.add_parser("normalize", help="robust-standardize and filter a feature table")
    norm.add_argument("--in", dest="table_in", required=True)
    norm.add_argument("--out", required=True)

    cmp_p = sub.add_parser("compare", help="per-feature OLS R^2 between two tables")
    cmp_p.add_argument("--a", required=True)
    cmp_p.add_argument("--b", required=True)
    cmp_p.add_argument("--out", required=True)
    # Each threshold flag defaults to its library function's default.
    for command, flag, function, name in (
        (norm, "--corr-threshold", postprocess.correlation_filter, "threshold"),
        (norm, "--drop-missing-frac", postprocess.robust_standardize, "drop_missing_frac"),
        (cmp_p, "--r2-threshold", postprocess.compare_tables, "r2_threshold"),
    ):
        default = inspect.signature(function).parameters[name].default
        command.add_argument(flag, type=float, default=default)

    lf = sub.add_parser("list-features", help="print the feature dictionary as CSV")
    _add_family_flags(lf)
    return parser


def _split_names(raw: str) -> list[str]:
    return [token for token in raw.split(",") if token]


def _config(args) -> ExperimentSpec:
    """The configuration that --features and the family-parameter flags give."""
    config = ExperimentSpec(families=tuple(_split_names(args.features)))
    for _, family, attr in _FAMILY_FLAGS:
        field = f"{family}_params"
        params = replace(getattr(config, field), **{attr: getattr(args, attr)})
        config = replace(config, **{field: params})
    return config


def _cmd_extract(args) -> int:
    # Every flag is checked before any file is read.
    config = replace(_config(args), batch_size=args.batch_size, workers=args.workers)
    channel_names = _split_names(args.channel_names)
    mask_names = _split_names(args.mask_names)
    if len(channel_names) != len(args.image):
        raise SpecValidationError(
            f"{len(args.image)} --image flags but {len(channel_names)} channel names"
        )
    if len(mask_names) != len(args.mask):
        raise SpecValidationError(
            f"{len(args.mask)} --mask flags but {len(mask_names)} mask names"
        )
    if not args.mask:
        raise SpecValidationError("at least one --mask is required")
    channels = tuple(
        (name, raster_io.load_image(path)) for name, path in zip(channel_names, args.image)
    )
    object_sets = tuple(
        (name, raster_io.load_mask(path)) for name, path in zip(mask_names, args.mask)
    )
    tables = engine.run(replace(config, channels=channels, object_sets=object_sets))
    stem = args.out[:-4] if args.out.endswith(".csv") else args.out
    for table in tables:
        raster_io.write_table(table, Path(f"{stem}_{table.object_set}.csv"))
    return 0


def _cmd_tessellate(args) -> int:
    _check_real("min_coverage", args.min_coverage, 0.0, 1.0)  # with or without a tissue mask
    mask = tessellate.hex_tessellation(
        tessellate.HexGridParams(args.width, args.height, args.radius)
    )
    if args.tissue_mask is not None:
        foreground = raster_io.load_mask(args.tissue_mask)
        mask = tessellate.filter_by_coverage(mask, foreground, args.min_coverage)
    raster_io.save_mask(mask, args.out, fmt="RAWU32")
    return 0


def _cmd_normalize(args) -> int:
    _check_real("drop_missing_frac", args.drop_missing_frac, 0.0, 1.0)
    _check_real("correlation threshold", args.corr_threshold, 0.0, 1.0)
    table = raster_io.read_table(args.table_in)
    table = postprocess.robust_standardize(table, args.drop_missing_frac)
    table = postprocess.correlation_filter(table, args.corr_threshold)
    raster_io.write_table(table, args.out)
    return 0


def _cmd_compare(args) -> int:
    _check_real("r2_threshold", args.r2_threshold)
    table_a = raster_io.read_table(args.a)
    table_b = raster_io.read_table(args.b)
    report = postprocess.compare_tables(table_a, table_b, r2_threshold=args.r2_threshold)
    postprocess.write_report(report, args.out)
    print(report.summary_line)
    return 0


def _cmd_list_features(args) -> int:
    rows = engine.feature_catalog(_config(args))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(["name", "family", "input_kind", "params"])
    writer.writerows(rows)
    return 0


_COMMANDS = {
    "extract": _cmd_extract,
    "tessellate": _cmd_tessellate,
    "normalize": _cmd_normalize,
    "compare": _cmd_compare,
    "list-features": _cmd_list_features,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 for usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except (raster_io.FormatError, OSError) as exc:
        print(f"morphoprof: error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"morphoprof: invalid request: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
