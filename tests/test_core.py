import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from morphoprof import (
    ColocParams,
    FeatureTable,
    GranularityParams,
    ImagePlane,
    LabelMask,
    ObjectRegion,
    RadialParams,
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
    assert region.pixel_count == 4
    assert region.local_mask.all()


def test_pixel_count_is_derived_not_passed():
    local = np.array([[True, False], [True, True]])
    assert ObjectRegion(5, (2, 3, 3, 4), local).pixel_count == 3
    with pytest.raises(TypeError):
        ObjectRegion(5, (2, 3, 3, 4), local, 3)


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
        assert region.pixel_count == tally


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
    assert region.pixel_count == 2


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
    assert [(r.label, r.bbox, r.pixel_count) for r in regions] == [
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
    assert sum(r.pixel_count for r in regions) == int((mask > 0).sum())
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


def test_types_are_immutable():
    plane = ImagePlane(np.zeros((3, 3)))
    with pytest.raises(ValueError):
        plane.pixels[0, 0] = 1.0


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
