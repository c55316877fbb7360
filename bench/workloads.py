"""Seeded inputs and the timed passes of the three benchmark workloads.

Every workload has two halves:

* ``make_inputs(kind, seed, smoke, directory)`` writes the input files
  and a ``manifest.json`` with what the checks need (object count,
  file names).  Generation is the benchmark's own cost and is never
  timed.
* ``timed_pass(kind, inputs, outputs, manifest, tracer)`` is what one pass times:
  public morphoprof calls from input files on disk to output files
  written.  The tracer records one span per top-level call; the
  untraced pass gets :data:`tracing.NULL` and pays nothing for it.

The library is driven only through ``morphoprof``'s public names.
"""

from __future__ import annotations

import itertools
import json
import math
from pathlib import Path

import numpy as np
import scipy.ndimage
import scipy.spatial

import morphoprof as mp

WORKLOADS = ("many-small", "few-large", "tables")

CHANNELS = ("Chan1", "Chan2")
OBJECT_SET = "cells"
#: Pool workers of the timed pass.  many-small runs at one worker: with
#: both CPUs of a 2-vCPU VM busy, its run-to-run spread doubled (README,
#: "Spread").  The traced pass times ``run`` at one and two workers.
WORKERS = {"many-small": 1, "few-large": 2, "tables": 0}
BATCH_SIZE = 50

#: Input sizes; ``smoke`` shrinks every workload to a second or so.
SIZES = {
    False: {
        "many-small": {"canvas": 452, "blobs": 400},
        "few-large": {"canvas": 2048, "radii": (50, 65, 80, 100, 125, 160)},
        "tables": {"rows": 2000, "canvas": 1024},
    },
    True: {
        "many-small": {"canvas": 160, "blobs": 50},
        "few-large": {"canvas": 256, "radii": (12, 18, 24)},
        "tables": {"rows": 200, "canvas": 256},
    },
}

#: few-large labels are spread over [1, LARGE_MAX_LABEL]; the largest is
#: always present so ``find_objects`` costs the same on every seed.
LARGE_MAX_LABEL = 2**22
HEX_RADIUS = 24
TABLE_SNR = 20.0
MISSING_FRAC = 0.01
GROUP_WIDTH = 4
CORR_THRESHOLD = 0.9
MIN_COVERAGE = 0.5


# --------------------------------------------------------------------------
# Input generation


def _smooth_plane(height, width, rng, sigma=2.0) -> np.ndarray:
    """Smoothed positive noise scaled into [0.05, 1.0]."""
    noise = scipy.ndimage.gaussian_filter(rng.random((height, width)), sigma)
    lo, hi = noise.min(), noise.max()
    return 0.05 + 0.95 * (noise - lo) / (hi - lo)


def _blob_labels(size, n_blobs, rng, r_min=3.0, r_max=7.0) -> np.ndarray:
    """Roundish disjoint blobs, each pixel joining its nearest seed when
    within that seed's radius; relabelled densely from 1."""
    seeds = np.unique(rng.integers(0, size, size=(n_blobs, 2)), axis=0)
    radii = rng.uniform(r_min, r_max, size=len(seeds))
    rr, cc = np.mgrid[0:size, 0:size]
    dist, idx = scipy.spatial.cKDTree(seeds).query(np.column_stack([rr.ravel(), cc.ravel()]))
    labels = np.where(dist <= radii[idx], idx + 1, 0)
    _, dense = np.unique(labels, return_inverse=True)
    return dense.reshape(size, size).astype(np.int64)


def _large_objects(size, radii, rng) -> np.ndarray:
    """Non-overlapping roundish objects with the given base radii, labelled
    sparsely over [1, LARGE_MAX_LABEL] in random order."""
    labels = np.zeros((size, size), dtype=np.int64)
    ids = rng.choice(LARGE_MAX_LABEL - 1, size=len(radii) - 1, replace=False) + 1
    ids = rng.permutation(np.append(ids, LARGE_MAX_LABEL))
    centers: list[tuple[float, float, float]] = []
    for label, radius in zip(ids.tolist(), radii):
        reach = radius * 1.1
        while True:
            cy, cx = rng.uniform(reach + 2, size - reach - 2, size=2)
            if all(math.hypot(cy - y, cx - x) > reach + r + 4 for y, x, r in centers):
                break
        centers.append((cy, cx, reach))
        a2, a3 = rng.uniform(0.02, 0.08, size=2)
        p2, p3 = rng.uniform(0, 2 * math.pi, size=2)
        r0, r1 = int(cy - reach - 1), int(cy + reach + 2)
        c0, c1 = int(cx - reach - 1), int(cx + reach + 2)
        yy, xx = np.mgrid[r0:r1, c0:c1]
        theta = np.arctan2(yy - cy, xx - cx)
        boundary = radius * (1 + a2 * np.sin(2 * theta + p2) + a3 * np.sin(3 * theta + p3))
        inside = np.hypot(yy - cy, xx - cx) <= boundary
        labels[r0:r1, c0:c1][inside] = label
    return labels


def _column_names() -> list[str]:
    """The 155 columns of a two-channel, all-family many-small table."""
    tiny = mp.ImagePlane(np.zeros((1, 1)))
    spec = mp.ExperimentSpec(
        channels=tuple((name, tiny) for name in CHANNELS),
        object_sets=((OBJECT_SET, mp.LabelMask(np.zeros((1, 1), dtype=np.int64))),),
    )
    return mp.table_columns(spec, OBJECT_SET)


def _feature_tables(rows, rng) -> tuple[mp.FeatureTable, mp.FeatureTable]:
    """Table A has correlated column groups, ~1 % missing cells and one
    constant column; B is A plus noise at TABLE_SNR."""
    columns = _column_names()
    n_cols = len(columns)
    latent = rng.standard_normal((rows, math.ceil(n_cols / GROUP_WIDTH)))
    group = np.arange(n_cols) // GROUP_WIDTH
    scale = rng.uniform(0.5, 20.0, size=n_cols)
    offset = rng.uniform(-5.0, 50.0, size=n_cols)
    a = latent[:, group] + 0.1 * rng.standard_normal((rows, n_cols))
    a = a * scale + offset
    a[:, n_cols // 2] = 1.0
    a[rng.random((rows, n_cols)) < MISSING_FRAC] = mp.MISSING
    noise_sd = np.nanstd(a, axis=0) / math.sqrt(TABLE_SNR)
    b = a + rng.standard_normal((rows, n_cols)) * noise_sd
    labels = np.sort(rng.choice(50 * rows, size=rows, replace=False)) + 1
    return (
        mp.FeatureTable(OBJECT_SET, tuple(columns), labels, a),
        mp.FeatureTable(OBJECT_SET, tuple(columns), labels, b),
    )


def _tissue_mask(size, rng) -> np.ndarray:
    """One rotated ellipse covering roughly 40 % of the canvas, label 1."""
    cy, cx = size / 2 + rng.uniform(-0.05, 0.05, size=2) * size
    ay, ax = 0.36 * size, 0.36 * size
    stretch = rng.uniform(0.8, 1.25)
    ay, ax = ay * stretch, ax / stretch
    angle = rng.uniform(0, math.pi)
    yy, xx = np.mgrid[0:size, 0:size]
    dy, dx = yy - cy, xx - cx
    u = dx * math.cos(angle) + dy * math.sin(angle)
    v = -dx * math.sin(angle) + dy * math.cos(angle)
    return ((u / ax) ** 2 + (v / ay) ** 2 <= 1.0).astype(np.int64)


def make_inputs(kind: str, seed: int, smoke: bool, directory: Path) -> dict:
    """Write the inputs of one workload for one seed; return the manifest."""
    directory.mkdir(parents=True, exist_ok=True)
    size = SIZES[smoke][kind]
    rng = np.random.default_rng([seed, WORKLOADS.index(kind)])
    manifest: dict = {}
    if kind == "tables":
        table_a, table_b = _feature_tables(size["rows"], rng)
        mp.write_table(table_a, directory / "a.csv")
        mp.write_table(table_b, directory / "b.csv")
        canvas = size["canvas"]
        mp.save_mask(mp.LabelMask(_tissue_mask(canvas, rng)), directory / "tissue.pgm", "PGM16")
        manifest.update(rows=size["rows"], canvas=canvas, tissue="tissue.pgm")
    else:
        canvas = size["canvas"]
        if kind == "many-small":
            labels = _blob_labels(canvas, size["blobs"], rng)
            mask_name, image_fmt, suffix = "mask.pgm", "PGM16", ".pgm"
            mp.save_mask(mp.LabelMask(labels), directory / mask_name, "PGM16")
        else:
            labels = _large_objects(canvas, size["radii"], rng)
            mask_name, image_fmt, suffix = "mask.u32", "RAWF32", ".f32"
            mp.save_mask(mp.LabelMask(labels), directory / mask_name, "RAWU32")
        images = []
        for name in CHANNELS:
            images.append(name + suffix)
            plane = mp.ImagePlane(_smooth_plane(canvas, canvas, rng))
            mp.save_image(plane, directory / images[-1], image_fmt)
        manifest.update(mask=mask_name, images=images,
                        objects=len(set(labels[labels > 0].tolist())))
    (directory / "manifest.json").write_text(json.dumps(manifest))
    return manifest


# --------------------------------------------------------------------------
# Timed passes


def _spec(planes, mask, workers) -> mp.ExperimentSpec:
    return mp.ExperimentSpec(
        channels=tuple(zip(CHANNELS, planes)),
        object_sets=((OBJECT_SET, mask),),
        batch_size=BATCH_SIZE,
        workers=workers,
    )


def extraction_pass(inputs: Path, outputs: Path, manifest: dict, workers: int,
                    tracer) -> dict:
    """Load channels and mask, ``run`` all families, write the table."""
    planes = []
    for name in manifest["images"]:
        with tracer.span("raster_io.load_image"):
            planes.append(mp.load_image(inputs / name))
    with tracer.span("raster_io.load_mask"):
        mask = mp.load_mask(inputs / manifest["mask"])
    spec = _spec(planes, mask, workers)
    with tracer.span("engine.run"):
        (table,) = mp.run(spec)
    with tracer.span("raster_io.write_table"):
        mp.write_table(table, outputs / "cells.csv")
    return {"table": table, "spec": spec, "mask": mask}


def tables_pass(inputs: Path, outputs: Path, manifest: dict, tracer) -> dict:
    """Normalize, filter and compare two tables; tessellate and filter a canvas."""
    with tracer.span("raster_io.read_table"):
        table_a = mp.read_table(inputs / "a.csv")
    with tracer.span("raster_io.read_table"):
        table_b = mp.read_table(inputs / "b.csv")
    with tracer.span("postprocess.robust_standardize"):
        normalized = mp.robust_standardize(table_a)
    with tracer.span("postprocess.correlation_filter"):
        filtered = mp.correlation_filter(normalized, CORR_THRESHOLD)
    with tracer.span("postprocess.compare_tables"):
        report = mp.compare_tables(table_a, table_b)
    with tracer.span("raster_io.write_table"):
        mp.write_table(filtered, outputs / "filtered.csv")
    with tracer.span("postprocess.write_report"):
        mp.write_report(report, outputs / "report.csv")

    canvas = manifest["canvas"]
    with tracer.span("raster_io.load_mask"):
        tissue = mp.load_mask(inputs / manifest["tissue"])
    with tracer.span("tessellate.hex_tessellation"):
        hexes = mp.hex_tessellation(mp.HexGridParams(canvas, canvas, HEX_RADIUS))
    with tracer.span("tessellate.filter_by_coverage"):
        kept = mp.filter_by_coverage(hexes, tissue, MIN_COVERAGE)
    with tracer.span("raster_io.save_mask"):
        mp.save_mask(kept, outputs / "hexes.u32", "RAWU32")
    return {"table_a": table_a, "normalized": normalized, "filtered": filtered,
            "hexes": hexes, "kept": kept}


def timed_pass(kind: str, inputs: Path, outputs: Path, manifest: dict, tracer) -> dict:
    if kind == "tables":
        return tables_pass(inputs, outputs, manifest, tracer)
    return extraction_pass(inputs, outputs, manifest, WORKERS[kind], tracer)


def output_names(kind: str) -> list[str]:
    if kind == "tables":
        return ["filtered.csv", "report.csv", "hexes.u32"]
    return ["cells.csv"]


def pass_checks(kind: str, manifest: dict, state: dict) -> dict[str, bool]:
    """Checks on one pass's in-memory results (file digests are checked by
    bench.py).  Run after the timed part."""
    if kind != "tables":
        table = state["table"]
        return {
            "rows_equal_objects": table.n_rows == manifest["objects"],
            "columns_canonical": list(table.columns) == mp.table_columns(state["spec"], OBJECT_SET),
        }
    table_a, hexes = state["table_a"], state["hexes"].labels
    self_fit = mp.compare_tables(table_a, table_a)
    present = np.unique(hexes)
    return {
        "compare_self_fraction_1": self_fit.fraction_above == 1.0,
        "normalized_no_nan": bool(np.isfinite(state["normalized"].values).all()),
        "filtered_no_nan": bool(np.isfinite(state["filtered"].values).all()),
        "hexes_dense_from_1": bool(present[0] == 1
                                   and np.array_equal(present, np.arange(1, present[-1] + 1))),
    }


# --------------------------------------------------------------------------
# Decomposed pass (traced runs of the extraction workloads only)


def decomposed_table(spec: mp.ExperimentSpec, mask: mp.LabelMask, tracer):
    """(table, regions): the table ``run`` produces, rebuilt from
    per-object public calls.

    Values are appended family by family in the canonical order, each
    family's dict in its own key order; a misordering shows up as a byte
    mismatch against ``run``'s CSV.
    """
    with tracer.span("core.extract_objects"):
        regions = mp.extract_objects(mask)
    planes = [plane for _, plane in spec.channels]
    pairs = list(itertools.combinations(planes, 2))
    span = tracer.span
    values = []
    for region in regions:
        row: list[float] = []
        with span("shape.measure_shape"):
            row.extend(mp.measure_shape(region, spec.shape_params).values())
        for plane in planes:
            with span("intensity.measure_intensity"):
                row.extend(mp.measure_intensity(region, plane).values())
        for plane in planes:
            with span("texture.measure_texture"):
                row.extend(mp.measure_texture(region, plane, spec.texture_params).values())
        for plane in planes:
            with span("granularity.measure_granularity"):
                row.extend(
                    mp.measure_granularity(region, plane, spec.granularity_params).values()
                )
        for plane in planes:
            with span("radial.measure_radial"):
                row.extend(mp.measure_radial(region, plane, spec.radial_params).values())
        for plane_a, plane_b in pairs:
            with span("coloc.measure_coloc"):
                row.extend(mp.measure_coloc(region, plane_a, plane_b, spec.coloc_params).values())
        values.append(row)
    columns = mp.table_columns(spec, OBJECT_SET)
    return mp.FeatureTable(
        object_set=OBJECT_SET,
        columns=tuple(columns),
        labels=np.asarray([r.label for r in regions], dtype=np.int64),
        values=np.asarray(values, dtype=np.float64).reshape(len(regions), len(columns)),
    ), regions


def with_workers(spec: mp.ExperimentSpec, workers: int) -> mp.ExperimentSpec:
    return _spec([plane for _, plane in spec.channels], spec.object_sets[0][1], workers)
