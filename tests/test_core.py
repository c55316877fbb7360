import math
import re
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
import scipy.ndimage
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import extract_objects_oracle
from peakrss import probe_peaks

from morphoprof import (
    ColocParams,
    ComparisonReport,
    ExperimentSpec,
    FeatureTable,
    FormatError,
    GranularityParams,
    HexGridParams,
    ImagePlane,
    LabelMask,
    ObjectRegion,
    RadialParams,
    ShapeParams,
    SpecValidationError,
    TextureParams,
    compare_tables,
    correlation_filter,
    extract_objects,
    feature_catalog,
    filter_by_coverage,
    hex_tessellation,
    max_project,
    measure_coloc,
    measure_granularity,
    measure_intensity,
    measure_radial,
    measure_texture,
    read_table,
    robust_standardize,
    save_image,
)
from morphoprof import core
from morphoprof.cli import main
from morphoprof.core import WEDGES, MaskGeometry, mask_geometry


def test_empty_mask_yields_no_regions():
    assert extract_objects(LabelMask(np.zeros((4, 4), dtype=np.int64))) == []


def test_single_block_region():
    mask = np.zeros((4, 4), dtype=np.int64)
    mask[1:3, 1:3] = 7
    (region,) = extract_objects(LabelMask(mask))
    assert region.label == 7
    assert region.bbox == (1, 1, 2, 2)
    assert region.local_mask.sum() == 4
    assert region.local_mask.all()


def test_scattered_labels_match_brute_force_tally(rng):
    mask = np.zeros((20, 20), dtype=np.int64)
    mask[rng.random((20, 20)) < 0.3] = 3
    mask[rng.random((20, 20)) < 0.1] = 9
    regions = extract_objects(LabelMask(mask))
    assert [r.label for r in regions] == [3, 9]
    for region in regions:
        tally = sum(
            1
            for r in range(20)
            for c in range(20)
            if mask[r, c] == region.label
        )
        assert region.local_mask.sum() == tally


def test_region_reproduces_exact_label_pixels(rng):
    mask = (rng.random((16, 16)) * 4).astype(np.int64)
    for region in extract_objects(LabelMask(mask)):
        r0, c0, r1, c1 = region.bbox
        placed = np.zeros_like(mask, dtype=bool)
        placed[r0 : r1 + 1, c0 : c1 + 1] = region.local_mask
        assert np.array_equal(placed, mask == region.label)


def test_multicomponent_label_is_one_region():
    mask = np.zeros((10, 10), dtype=np.int64)
    mask[1, 1] = 4
    mask[8, 8] = 4
    (region,) = extract_objects(LabelMask(mask))
    assert region.bbox == (1, 1, 8, 8)
    assert region.local_mask.sum() == 2


def test_extraction_cost_does_not_scale_with_label_value():
    mask = np.zeros((64, 64), dtype=np.int64)
    mask[10, 20] = 4_000_000
    mask[30:33, 5:9] = 17
    tracemalloc.start()
    try:
        regions = extract_objects(LabelMask(mask))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert [(r.label, r.bbox, r.local_mask.sum()) for r in regions] == [
        (17, (30, 5, 32, 8), 12),
        (4_000_000, (10, 20, 10, 20), 1),
    ]


@st.composite
def small_masks(draw):
    h = draw(st.integers(2, 8))
    w = draw(st.integers(2, 8))
    cells = draw(
        st.lists(st.integers(0, 5), min_size=h * w, max_size=h * w)
    )
    return np.array(cells, dtype=np.int64).reshape(h, w)


@settings(max_examples=50, deadline=None)
@given(small_masks())
def test_pixel_counts_sum_to_nonzero_pixels(mask):
    regions = extract_objects(LabelMask(mask))
    assert sum(r.local_mask.sum() for r in regions) == int((mask > 0).sum())
    labels = [r.label for r in regions]
    assert labels == sorted(labels)


@settings(max_examples=50, deadline=None)
@given(small_masks(), st.permutations(list(range(1, 6))))
def test_extraction_commutes_with_relabeling(mask, perm):
    mapping = {0: 0, **{old: new for old, new in zip(range(1, 6), perm)}}
    remapped = np.vectorize(mapping.get)(mask).astype(np.int64)
    original = {
        mapping[r.label]: (r.bbox, r.local_mask)
        for r in extract_objects(LabelMask(mask))
    }
    for region in extract_objects(LabelMask(remapped)):
        bbox, local = original[region.label]
        assert region.bbox == bbox
        assert np.array_equal(region.local_mask, local)


def test_max_project_identity_and_dominance(rng):
    plane = ImagePlane(rng.random((5, 5)))
    assert np.array_equal(max_project([plane]).pixels, plane.pixels)
    higher = ImagePlane(np.minimum(plane.pixels + 0.3, 1.0))
    assert np.array_equal(max_project([plane, higher]).pixels, higher.pixels)


def test_max_project_matches_elementwise_oracle(rng):
    planes = [ImagePlane(rng.random((8, 8))) for _ in range(3)]
    result = max_project(planes).pixels
    for r in range(8):
        for c in range(8):
            assert result[r, c] == max(p.pixels[r, c] for p in planes)


def test_max_project_keeps_the_planes_common_dtype(rng):
    low, high = (ImagePlane(rng.random((6, 7), dtype=np.float32)) for _ in range(2))
    assert max_project([low, high]).pixels.dtype == np.float32
    wide = ImagePlane(rng.random((6, 7)))
    got = max_project([low, wide, high]).pixels
    assert got.dtype == np.float64
    want = np.maximum.reduce([p.pixels.astype(np.float64) for p in (low, wide, high)])
    assert got.tobytes() == want.tobytes()
    assert not got.flags.writeable


def test_projecting_adds_about_one_plane_to_the_peak(tmp_path, rng):
    # One running maximum: no stack of every plane and no copy of the result.
    paths = []
    for i in range(3):
        paths.append(tmp_path / f"plane{i}.raw")
        save_image(ImagePlane(rng.random((1024, 1024), dtype=np.float32)), paths[-1])
    before, after = probe_peaks("project", *paths)
    added_kib, plane_kib = after - before, 1024 * 1024 * 4 // 1024
    assert added_kib <= 1.5 * plane_kib, f"projecting added {added_kib} KiB"


def test_max_project_errors():
    with pytest.raises(ValueError):
        max_project([])
    with pytest.raises(ValueError):
        max_project([ImagePlane(np.zeros((4, 4))), ImagePlane(np.zeros((4, 5)))])


def test_plane_rejects_non_finite():
    bad = np.zeros((3, 3))
    bad[1, 1] = np.inf
    with pytest.raises(ValueError):
        ImagePlane(bad)


def test_mask_rejects_negative_labels():
    with pytest.raises(ValueError):
        LabelMask(np.full((2, 2), -1, dtype=np.int64))


@pytest.mark.parametrize("dtype", [np.int64, np.uint32])
def test_mask_does_not_alias_its_source(dtype):
    source = np.array([[0, 3], [7, 1]], dtype=dtype)
    mask = LabelMask(source)
    source[:] = 9
    assert mask.labels.tolist() == [[0, 3], [7, 1]]
    assert mask.labels.dtype == dtype and not mask.labels.flags.writeable


def _full_plane():
    return ImagePlane(np.ones((9, 9)))


@pytest.mark.parametrize(
    "measure",
    [
        lambda region, plane: measure_intensity(region, plane),
        lambda region, plane: measure_texture(region, plane, TextureParams()),
        lambda region, plane: measure_granularity(region, plane, GranularityParams()),
        lambda region, plane: measure_radial(region, plane, RadialParams()),
        lambda region, plane: measure_coloc(region, plane, plane, ColocParams()),
        lambda region, plane: measure_coloc(region, plane, _full_plane(), ColocParams()),
        lambda region, plane: measure_coloc(region, _full_plane(), plane, ColocParams()),
    ],
    ids=["intensity", "texture", "granularity", "radial", "coloc", "coloc-a", "coloc-b"],
)
@pytest.mark.parametrize("shape", [(6, 9), (9, 6), (4, 4)])
def test_plane_short_of_the_bbox_names_the_object(measure, shape):
    mask = np.zeros((9, 9), dtype=np.int64)
    mask[3:8, 2:8] = 5
    (region,) = extract_objects(LabelMask(mask))
    plane = ImagePlane(np.ones(shape))
    with pytest.raises(ValueError, match=f"object 5 .* {shape[1]}x{shape[0]} image"):
        measure(region, plane)


def test_feature_table_rejects_non_integer_labels():
    with pytest.raises(ValueError, match="labels must be integers"):
        FeatureTable("s", ("a",), np.array([1.5, 2.7]), np.zeros((2, 1)))
    with pytest.raises(ValueError, match="labels must be integers"):
        FeatureTable("s", ("a",), np.array([1.0, 2.0]), np.zeros((2, 1)))
    empty = FeatureTable("s", ("a",), [], np.zeros((0, 1)))
    assert empty.labels.dtype == np.int64 and empty.n_rows == 0
    table = FeatureTable("s", ("a",), np.array([1, 2], dtype=np.uint32), np.zeros((2, 1)))
    assert table.labels.dtype == np.int64 and table.labels.tolist() == [1, 2]


@pytest.mark.parametrize(
    "labels, ascending",
    [
        ([2**63 - 1, -(2**63)], False),
        ([2**62, -(2**62) - 1], False),
        ([-(2**63), 0], True),
        ([-1, 2**63 - 1], True),
    ],
)
def test_label_order_holds_for_labels_further_apart_than_int64(tmp_path, labels, ascending):
    # Neighbouring labels are compared; their int64 difference used to wrap,
    # which accepted descending pairs and rejected ascending ones.
    path = tmp_path / "table.csv"
    path.write_text("object_set,label,a\n" + "".join(f"c,{label},0.5\n" for label in labels))
    if ascending:
        table = FeatureTable("c", ("a",), np.array(labels), np.zeros((2, 1)))
        assert table.labels.tolist() == labels
        assert read_table(path).labels.tolist() == labels
        return
    with pytest.raises(ValueError, match="labels must be strictly ascending"):
        FeatureTable("c", ("a",), np.array(labels), np.zeros((2, 1)))
    with pytest.raises(FormatError, match=f"{path}: labels must be strictly ascending"):
        read_table(path)
    assert main(["normalize", "--in", str(path), "--out", str(tmp_path / "n.csv")]) == 1


def test_labels_beyond_int64_are_named():
    big = 2**63 + 1
    with pytest.raises(ValueError, match=f"label {big} does not fit in int64"):
        FeatureTable("s", ("a",), np.array([1, big], dtype=np.uint64), np.zeros((2, 1)))
    with pytest.raises(ValueError, match=f"label {big} does not fit in int64"):
        LabelMask(np.array([[0, big]], dtype=np.uint64))
    top = np.iinfo(np.int64).max
    table = FeatureTable("s", ("a",), np.array([top], dtype=np.uint64), np.zeros((1, 1)))
    assert table.labels.tolist() == [top]
    assert LabelMask(np.array([[top]], dtype=np.uint64)).labels.tolist() == [[top]]


def test_types_are_immutable():
    plane = ImagePlane(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        plane.pixels[0, 0] = 1.0


def _twins():
    """Two separately built, equal-content values of each data type."""
    local = np.ones((2, 2), dtype=bool)
    build = [
        lambda: ImagePlane(np.zeros((2, 2))),
        lambda: LabelMask(np.ones((2, 2), dtype=np.int64)),
        lambda: ObjectRegion(1, (0, 0, 1, 1), local),
        lambda: FeatureTable("s", ("a",), [1, 2], np.zeros((2, 1))),
    ]
    return [(make(), make()) for make in build]


@pytest.mark.parametrize("a, b", _twins(), ids=["plane", "mask", "region", "table"])
def test_types_compare_and_hash_by_identity(a, b):
    # Equality over ndarray fields used to raise (ambiguous truth value) and
    # hashing used to fail (unhashable ndarray).
    assert a == a and a != b and not (a == b)
    assert hash(a) == hash(a)
    assert a in [a] and b not in [a]
    assert len({a, b, a}) == 2
    assert {a: 1, b: 2}[a] == 1


def test_spec_holding_data_compares_and_hashes_through_its_planes():
    plane, mask = ImagePlane(np.zeros((2, 2))), LabelMask(np.ones((2, 2), dtype=np.int64))

    def spec_of(plane):
        return ExperimentSpec(
            channels=(("A", plane),), object_sets=(("cells", mask),), families=("intensity",)
        )

    spec, same, copied = spec_of(plane), spec_of(plane), spec_of(ImagePlane(plane.pixels))
    assert spec == same and hash(spec) == hash(same)
    assert spec != copied
    assert len({spec, same, copied}) == 2


@pytest.mark.parametrize(
    "label, bbox, message",
    [
        (7, (-1, -1, 0, 0), "bbox must be >= 0"),
        (7, (0, -1, 1, 0), "bbox must be >= 0"),
        (7, (0.0, 0, 1, 1), "bbox must be an integer, got 0.0"),
        (0, (0, 0, 1, 1), "object label must be >= 1"),
        (-3, (0, 0, 1, 1), "object label must be >= 1"),
        (2.5, (0, 0, 1, 1), "object label must be an integer, got 2.5"),
        (True, (0, 0, 2, 2), "object label must be an integer, got True"),
        (np.True_, (0, 0, 2, 2), f"object label must be an integer, got {np.True_!r}"),
        (7, (False, 0, 2, 2), "bbox must be an integer, got False"),
        (7, (0, np.False_, 2, 2), f"bbox must be an integer, got {np.False_!r}"),
    ],
)
def test_region_checks_its_label_and_bbox_origin(label, bbox, message):
    # A negative origin used to be accepted, and crop then sliced from the
    # image's far end: measuring failed with a bare IndexError.
    with pytest.raises(ValueError, match=re.escape(message)):
        ObjectRegion(label, bbox, np.ones((2, 2), dtype=bool))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: ImagePlane(np.zeros(3)), "image must be 2-D with positive dims, got shape (3,)"),
        (lambda: LabelMask(np.zeros((0, 3), dtype=np.int64)),
         "mask must be 2-D with positive dims, got shape (0, 3)"),
        (lambda: ObjectRegion(7, (0, 0, 1, 1), np.ones((2, 3), dtype=bool)),
         "local_mask shape does not match bbox"),
        (lambda: ObjectRegion(7, (0, 0, 1, 1), np.zeros((2, 2), dtype=bool)),
         "object region must contain at least one pixel"),
        (lambda: ObjectRegion(7, (0, 0, 1, 1), np.array([[True, False], [True, False]])),
         "bbox is not tight around local_mask"),
        (lambda: FeatureTable("s", ("a", "a"), [1], np.zeros((1, 2))), "duplicate column names"),
        (lambda: FeatureTable("s", ("a",), [[1]], np.zeros((1, 1))), "labels must be 1-D"),
        (lambda: FeatureTable("s", ("a", "b"), [1, 2], np.zeros((2, 1))),
         "values shape (2, 1) does not match 2 rows x 2 columns"),
        (lambda: ColocParams(1.0), "manders_threshold_frac must be in [0, 1)"),
    ],
    ids=["plane-1d", "mask-no-rows", "region-mask-shape", "region-empty", "region-bbox-loose",
         "table-duplicate-columns", "table-labels-2d", "table-values-shape", "coloc-threshold-1"],
)
def test_malformed_values_are_refused_at_construction(build, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        build()


def test_region_stores_python_ints():
    bbox = tuple(np.int64(v) for v in (4, 5, 5, 6))
    region = ObjectRegion(np.int64(7), bbox, np.ones((2, 2), dtype=bool))
    assert type(region.label) is int and region.label == 7
    assert region.bbox == (4, 5, 5, 6) and all(type(v) is int for v in region.bbox)


def test_region_copies_the_callers_mask():
    # The region used to keep the caller's array itself and make it
    # read-only: writing to it again emptied the validated region.
    mask = np.ones((2, 2), dtype=bool)
    region = ObjectRegion(1, (0, 0, 1, 1), mask)
    assert mask.flags.writeable
    mask[:] = False
    assert region.local_mask.all()


def test_mask_geometry_integer_and_float_paths():
    small = MaskGeometry(np.ones((16, 16), dtype=bool))
    n, (dr, dc) = small.count, small.deviations
    assert n == 256
    assert dr.dtype == np.int64
    assert int(dr.sum()) == 0 and int(dc.sum()) == 0
    # Objects big enough to overflow the n-scaled int64 switch to floats.
    huge = MaskGeometry(np.ones((1500, 1500), dtype=bool))
    n, (dr, dc) = huge.count, huge.deviations
    assert n == 1500 * 1500
    assert dr.dtype == np.float64
    assert abs(dr.sum()) < 1e-3 * n


@settings(max_examples=80, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.uint16, np.uint32, np.uint64]),
    density=st.floats(0.0, 1.0),
)
@example(seed=0, dtype=np.uint16, density=0.0)
@example(seed=0, dtype=np.uint64, density=1.0)
def test_extraction_matches_the_find_objects_oracle(seed, dtype, density):
    """Labels, bboxes and local masks equal scipy's route on label images with
    sparse labels up to 2^62 (the dtype's maximum for the narrower ones)."""
    rng = np.random.default_rng(seed)
    h, w = rng.integers(1, 30, size=2)
    top = min(int(np.iinfo(dtype).max), 2**62)
    pool = rng.integers(1, top, size=rng.integers(1, 8), endpoint=True, dtype=np.uint64)
    labels = np.where(rng.random((h, w)) < density, rng.choice(pool, size=(h, w)), 0).astype(dtype)
    got = extract_objects(LabelMask(labels))
    want = extract_objects_oracle(labels)
    assert [(r.label, r.bbox) for r in got] == [(label, bbox) for label, bbox, _ in want]
    for region, (_, _, local) in zip(got, want):
        assert np.array_equal(region.local_mask, local)


def _assert_distance_is_scipys(mask):
    want = scipy.ndimage.distance_transform_edt(np.pad(mask, 1))[1:-1, 1:-1][mask]
    assert MaskGeometry(mask).distance.tobytes() == want.tobytes()


@st.composite
def distance_masks(draw):
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    kind = draw(st.sampled_from(["full", "ring", "checkerboard", "random"]))
    rows, cols = np.indices((h, w))
    if kind == "full":
        return np.ones((h, w), dtype=bool)
    if kind == "ring":
        thickness = draw(st.integers(1, 5))
        return ~((rows >= thickness) & (rows < h - thickness)
                 & (cols >= thickness) & (cols < w - thickness))
    if kind == "checkerboard":
        mask = (rows + cols) % 2 == draw(st.integers(0, 1))
    else:
        density = draw(st.floats(0.05, 1.0))
        mask = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((h, w)) < density
    mask.flat[draw(st.integers(0, h * w - 1))] = True
    return mask


@settings(max_examples=300, deadline=None)
@given(distance_masks())
@example(np.ones((1, 1), dtype=bool))
@example(np.ones((1, 17), dtype=bool))
@example(np.ones((17, 1), dtype=bool))
@example(np.ones((9, 14), dtype=bool))
def test_distance_is_scipys_euclidean_distance_transform_bit_for_bit(mask):
    _assert_distance_is_scipys(mask)


def test_distance_of_a_radius_160_disk_is_scipys():
    rows, cols = np.ogrid[-160:161, -160:161]
    _assert_distance_is_scipys(rows * rows + cols * cols <= 160 * 160)


def _disks(shape, *centers, radius):
    rows, cols = np.indices(shape)
    return np.logical_or.reduce([np.hypot(rows - r, cols - c) <= radius for r, c in centers])


def _ring():
    rows, cols = np.indices((621, 621))
    d = np.hypot(rows - 310, cols - 310)
    return (d <= 310) & (d > 290)


def _u():
    mask = np.zeros((400, 300), dtype=bool)
    mask[:, :60] = mask[:, -60:] = mask[-60:] = True
    return mask


@pytest.mark.parametrize("make", [
    lambda: _disks((1024, 1024), (100, 100), (923, 923), radius=100),
    lambda: _disks((201, 640), (100, 100), (100, 539), radius=100),
    _ring,
    _u,
], ids=["corner-disks", "side-by-side-disks", "ring", "u"])
def test_distance_is_scipys_where_an_offset_band_would_overreach(make):
    """Masks whose rows or columns of large bound are far apart: two disks in
    opposite corners of one crop, two disks side by side, a 20-px ring of
    radius 300 and a U.  A strip's offset range then spans pixels of small
    bound and reads across row ends."""
    _assert_distance_is_scipys(make())


@pytest.mark.parametrize("shape", [(2, 46340), (46340, 2), (9, 46340), (46340, 9)])
def test_distance_on_the_int64_path_is_scipys(shape):
    # (h + 2)^2 + (w + 2)^2 >= 2^31 puts the squared distances in int64;
    # nine rows or columns give bounds past 1, so offsets run there too.
    assert (shape[0] + 2) ** 2 + (shape[1] + 2) ** 2 >= 2**31
    mask = np.ones(shape, dtype=bool)
    mask.flat[::7] = False
    mask.flat[5000:5300] = False
    _assert_distance_is_scipys(mask)


def _arctan2_wedge(dr, dc):
    """The wedge rule that went through the angle."""
    theta = np.arctan2(dr.astype(np.float64), dc.astype(np.float64))
    return np.floor(4.0 * (theta + np.pi) / np.pi).astype(np.int64) % WEDGES


def test_wedge_is_the_arctan2_octant_on_every_small_deviation():
    cols = np.arange(-1500, 1501)
    for rows in np.array_split(cols, 15):
        dr, dc = (a.ravel() for a in np.meshgrid(rows, cols, indexing="ij"))
        assert np.array_equal(core._octant(dr, dc), _arctan2_wedge(dr, dc))


@pytest.mark.parametrize(
    "direction, wedge",
    [((0, 1), 4), ((1, 1), 5), ((1, 0), 6), ((1, -1), 7),
     ((0, -1), 0), ((-1, -1), 1), ((-1, 0), 2), ((-1, 1), 3), ((0, 0), 4)],
)
def test_wedge_boundary_directions(direction, wedge):
    for scale in (1, 1000, 2.0**40):
        dr, dc = (np.array([v * scale]) for v in direction)
        assert core._octant(dr, dc).tolist() == [wedge]


def test_wedge_on_the_float64_path_is_the_arctan2_octant():
    rng = np.random.default_rng(5)
    # 50,000 scattered pixels in a 46,341-wide mask overflow the n-scaled
    # int64 deviations, which are then float64.
    mask = np.zeros((64, 46341), dtype=bool)
    mask.flat[rng.choice(mask.size, 50_000, replace=False)] = True
    geometry = MaskGeometry(mask)
    assert geometry.deviations[0].dtype == np.float64
    assert np.array_equal(geometry.wedge, _arctan2_wedge(*geometry.deviations))
    # Large, diagonal and near-diagonal float pairs.
    d = rng.integers(-(2**40), 2**40, size=10**5).astype(np.float64)
    for dr, dc in ((d, rng.permutation(d)), (d, d), (d, -d), (d, d + 1), (d - 1, -d), (d, 0 * d)):
        assert np.array_equal(core._octant(dr, dc), _arctan2_wedge(dr, dc))


def test_mask_geometry_is_kept_for_the_last_region_and_is_read_only():
    mask = np.ones((3, 2), dtype=bool)
    first, second = (ObjectRegion(1, (0, 0, 2, 1), mask) for _ in range(2))
    # One region gives one geometry ...
    geometry = mask_geometry(first)
    assert mask_geometry(first) is geometry
    assert geometry.mask.shape == (3, 2) and geometry.rows.tolist() == [0, 0, 1, 1, 2, 2]
    # ... and the next region replaces it, even with an equal mask.
    assert mask_geometry(second) is not geometry
    assert mask_geometry(first) is not geometry
    arrays = [geometry.mask, geometry.rows, geometry.cols, *geometry.deviations, geometry.padded,
              geometry.edge, geometry.distance, geometry.rho, geometry.wedge]
    for arr in arrays:
        assert not arr.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            arr[0] = arr[0]


@pytest.mark.parametrize(
    "values",
    [np.array([[1 + 2j, 0.5]]), np.array([["1.5", "2"]]), np.array([[b"1", b"2"]]),
     np.array([[1.5, 2.0]], dtype=object)],
)
def test_plane_rejects_values_that_are_not_real_numbers(values):
    # Complex planes used to drop the imaginary part, string planes were parsed.
    with pytest.raises(ValueError, match=re.escape(f"got dtype {values.dtype}")):
        ImagePlane(values)


@pytest.mark.parametrize("values", [[[True, False]], np.array([[3, 4]], dtype=np.uint16)])
def test_plane_accepts_bool_and_integer_values(values):
    assert ImagePlane(values).pixels.tolist() == np.asarray(values, dtype=np.float64).tolist()


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: ColocParams(v), "manders_threshold_frac"),
        (lambda v: HexGridParams(4, 4, v), "circumradius"),
    ],
)
def test_real_settings_are_checked_at_construction(build, name):
    # A Python bool used to pass as 1.0 or 0.0 (the catalog then printed
    # manders_threshold_frac=False), a string or None raised TypeError, and
    # a circumradius past the float range raised OverflowError.
    for value in ("0.5", "3", None, 1j, True, False, np.True_, np.False_):
        message = f"{name} must be a real number, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(value)
    for value in (-1.0, 10**400, math.nan):
        with pytest.raises(ValueError, match=f"{name} must be "):
            build(value)
    for value in (0.75, np.float32(0.75), np.float64(0.75), Fraction(3, 4)):
        stored = getattr(build(value), name)
        assert type(stored) is float and stored == 0.75
    assert type(HexGridParams(4, 4, np.int64(3)).circumradius) is float
    assert feature_catalog(ExperimentSpec(coloc_params=ColocParams(np.float64(0.5))))[-1][3] == (
        "manders_threshold_frac=0.5"
    )


_TABLE = FeatureTable("cells", ("a", "b", "c"), np.arange(1, 9),
                      np.random.default_rng(0).standard_normal((8, 3)))
_HEXES = hex_tessellation(HexGridParams(8, 8, 2.0))
_TISSUE = LabelMask(np.tri(8, dtype=np.uint8))


@pytest.mark.parametrize(
    "call, name, low, high",
    [
        (lambda v: robust_standardize(_TABLE, v).columns, "drop_missing_frac", 0, 1),
        (lambda v: correlation_filter(_TABLE, v).columns, "correlation threshold", 0, 1),
        (lambda v: filter_by_coverage(_HEXES, _TISSUE, v).labels.tolist(), "min_coverage", 0, 1),
        (lambda v: compare_tables(_TABLE, _TABLE, v).summary_line, "r2_threshold", -math.inf,
         math.inf),
        (lambda v: ComparisonReport((), v).r2_threshold, "r2_threshold", -math.inf, math.inf),
    ],
)
def test_real_arguments_are_checked_where_taken(call, name, low, high):
    # A bool used to pass as 1.0 or 0.0 (correlation_filter(table, True)
    # kept every column and ComparisonReport((), True) printed
    # fraction_r2_gt_1=0.0), and a string, None or a complex raised TypeError.
    for value in ("0.5", None, 1j, True, False, np.True_, np.False_):
        message = f"{name} must be a real number, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            call(value)
    for value in (math.nan, *(v for v in (-0.5, 1.5, -math.inf, math.inf) if not low <= v <= high)):
        with pytest.raises(ValueError, match=re.escape(f"{name} must be in [{low:g}, {high:g}]")):
            call(value)
    for value in (np.float32(0.75), np.float64(0.75), Fraction(3, 4), low, high):
        got, expected = call(value), call(float(value))
        assert type(got) is type(expected) and got == expected


@pytest.mark.parametrize(
    "build, name",
    [
        (lambda v: ShapeParams(zernike_max_order=v), "zernike_max_order"),
        (lambda v: TextureParams(distance=v), "texture distance"),
        (lambda v: TextureParams(gray_levels=v), "gray_levels"),
        (lambda v: GranularityParams(spectrum_length=v), "spectrum_length"),
        (lambda v: GranularityParams(background_radius=v), "background_radius"),
        (lambda v: RadialParams(bins=v), "bins"),
        (lambda v: HexGridParams(v, 4, 1.0), "canvas width"),
        (lambda v: HexGridParams(4, v, 1.0), "canvas height"),
        (lambda v: ExperimentSpec(batch_size=v), "batch_size"),
        (lambda v: ExperimentSpec(workers=v), "workers"),
    ],
)
def test_integer_settings_are_checked_at_construction(build, name):
    # A float used to pass here and fail later inside a run, or not at all;
    # a Python bool used to pass as 1 or 0.
    for value in (2.5, 2.0, "2", None, math.nan, True, False, np.True_, np.False_):
        message = f"{name} must be an integer, got {value!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            build(value)
    with pytest.raises(ValueError, match=f"{name} must be "):
        build(-1)
    for value in (2, np.int64(2), np.uint8(2)):
        stored = getattr(build(value), name.split()[-1])
        assert type(stored) is int and stored == value
    if name in ("batch_size", "workers"):
        with pytest.raises(SpecValidationError):
            build(2.5)
