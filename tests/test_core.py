import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphoprof import (
    ColocParams,
    ExperimentSpec,
    FeatureTable,
    GranularityParams,
    HexGridParams,
    ImagePlane,
    LabelMask,
    ObjectRegion,
    RadialParams,
    ShapeParams,
    SpecValidationError,
    TextureParams,
    extract_objects,
    max_project,
    measure_coloc,
    measure_granularity,
    measure_intensity,
    measure_radial,
    measure_texture,
)


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
    assert mask.labels.dtype == np.int64 and not mask.labels.flags.writeable


@pytest.mark.parametrize(
    "measure",
    [
        lambda region, plane: measure_intensity(region, plane),
        lambda region, plane: measure_texture(region, plane, TextureParams()),
        lambda region, plane: measure_granularity(region, plane, GranularityParams()),
        lambda region, plane: measure_radial(region, plane, RadialParams()),
        lambda region, plane: measure_coloc(region, plane, plane, ColocParams()),
    ],
    ids=["intensity", "texture", "granularity", "radial", "coloc"],
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
    ],
)
def test_region_checks_its_label_and_bbox_origin(label, bbox, message):
    # A negative origin used to be accepted, and crop then sliced from the
    # image's far end: measuring failed with a bare IndexError.
    with pytest.raises(ValueError, match=re.escape(message)):
        ObjectRegion(label, bbox, np.ones((2, 2), dtype=bool))


def test_region_stores_python_ints():
    bbox = tuple(np.int64(v) for v in (4, 5, 5, 6))
    region = ObjectRegion(np.int64(7), bbox, np.ones((2, 2), dtype=bool))
    assert type(region.label) is int and region.label == 7
    assert region.bbox == (4, 5, 5, 6) and all(type(v) is int for v in region.bbox)


def test_centered_deviations_integer_and_float_paths():
    from morphoprof.core import centered_deviations

    small = np.ones((16, 16), dtype=bool)
    n, dr, dc = centered_deviations(small)
    assert n == 256
    assert dr.dtype == np.int64
    assert int(dr.sum()) == 0 and int(dc.sum()) == 0
    # Objects big enough to overflow the n-scaled int64 switch to floats.
    huge = np.ones((1500, 1500), dtype=bool)
    n, dr, dc = centered_deviations(huge)
    assert n == 1500 * 1500
    assert dr.dtype == np.float64
    assert abs(dr.sum()) < 1e-3 * n


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
    # A float used to pass here and fail later inside a run, or not at all.
    for value in (2.5, 2.0, "2", None, math.nan):
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
