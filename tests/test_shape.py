import math

import numpy as np
import pytest
from conftest import assert_close, assert_feature_maps_close, region_of
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    _euler,
    _perimeter,
    _pixel_set,
    convex_hull_oracle,
    shape_oracle,
    zernike_fsum_oracle,
    zernike_full_table_reference,
)
from peakrss import probe_peaks

from morphoprof import LabelMask, ShapeParams, extract_objects, measure_shape
from morphoprof.core import MaskGeometry
from morphoprof.shape import (
    _BLOCK_PIXELS,
    _convex_hull_area,
    _crack_perimeter,
    _euler_number,
    _limb_sums,
    _zernike_indexes,
    _zernike_magnitudes,
    feature_keys,
)
from synth import small_blob
from test_invariance import check_rotation, check_translation


def test_filled_square():
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:4, 1:4] = True
    features = measure_shape(region_of(mask))
    assert features["Area"] == 9.0
    assert features["Perimeter"] == 12.0
    assert features["Extent"] == 1.0
    assert features["Eccentricity"] == 0.0
    assert features["EulerNumber"] == 1.0
    assert features["FormFactor"] == 4.0 * math.pi * 9.0 / 144.0
    assert features["FormFactor"] == pytest.approx(0.7853981633974483, abs=0)
    assert features["Solidity"] == 1.0
    assert features["Orientation"] == 0.0


def test_single_pixel():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    features = measure_shape(region_of(mask))
    assert features["Area"] == 1.0
    assert features["Perimeter"] == 4.0
    assert features["MajorAxisLength"] == 0.0
    assert features["MinorAxisLength"] == 0.0
    assert features["Solidity"] == 1.0
    assert features["MaxRadius"] == 1.0


def test_axis_aligned_rectangle_moments():
    mask = np.zeros((10, 12), dtype=bool)
    mask[2:5, 1:10] = True  # 3 rows x 9 cols
    features = measure_shape(region_of(mask))
    lam_max, lam_min = 80.0 / 12.0, 8.0 / 12.0
    assert_close(features["Eccentricity"], math.sqrt(1 - lam_min / lam_max), rel=1e-12)
    assert_close(features["Eccentricity"], 0.9486832980505138, rel=1e-12)
    assert_close(features["MajorAxisLength"], 4 * math.sqrt(lam_max), rel=1e-12)
    assert_close(features["MajorAxisLength"], 10.327955589886444, rel=1e-12)
    assert_close(features["MinorAxisLength"], 4 * math.sqrt(lam_min), rel=1e-12)
    assert features["Orientation"] == 0.0  # wide, so major axis is horizontal
    assert features["Centroid_Row"] == 3.0
    assert features["Centroid_Col"] == 5.0


def test_vertical_rectangle_orientation():
    mask = np.zeros((12, 10), dtype=bool)
    mask[1:10, 2:5] = True
    assert measure_shape(region_of(mask))["Orientation"] == math.pi / 2


def test_square_with_center_hole_has_euler_zero():
    mask = np.zeros((7, 7), dtype=bool)
    mask[1:6, 1:6] = True
    mask[3, 3] = False
    features = measure_shape(region_of(mask))
    assert features["EulerNumber"] == 0.0
    assert features["Area"] == 24.0


def test_two_components_euler_two():
    mask = np.zeros((9, 9), dtype=bool)
    mask[1:3, 1:3] = True
    mask[6:8, 6:8] = True
    assert measure_shape(region_of(mask))["EulerNumber"] == 2.0


def test_zernike_feature_set_and_disk_normalization():
    keys = feature_keys(ShapeParams(zernike_max_order=9))
    assert len(_zernike_indexes(9)) == 30
    assert len(keys) == 44
    rr, cc = np.ogrid[:41, :41]
    disk = (rr - 20) ** 2 + (cc - 20) ** 2 <= 15**2
    features = measure_shape(region_of(disk))
    # A solid disk projects almost purely onto the constant polynomial;
    # residual m != 0 energy is pixel-grid rasterization (strongest at m = 4).
    assert_close(features["Zernike_0_0"], 1.0 / math.pi, rel=0.02)
    for n, m in _zernike_indexes(9):
        if m != 0:
            assert features[f"Zernike_{n}_{m}"] < 0.05


def test_translation_invariance_is_exact(rng):
    for _ in range(5):
        blob = small_blob(rng)
        base = np.zeros((50, 50), dtype=bool)
        base[2 : 2 + blob.shape[0], 3 : 3 + blob.shape[1]] = blob
        check_translation("shape", ShapeParams(), base, np.zeros((0, 50, 50)), (7, 11))


def test_quarter_rotation_exactness(rng):
    for _ in range(5):
        blob = small_blob(rng)
        for k in (1, 2, 3):
            check_rotation("shape", ShapeParams(), blob, np.zeros((0, *blob.shape)), k)


def test_zernike_rotation_invariance_on_rasterized_disks():
    # Rotating a rasterized disk about a pivot away from its center: the
    # nonzero magnitude (the constant moment) must agree to 2%, all
    # analytically-vanishing magnitudes must stay at the rasterization
    # noise floor.
    size = 121
    rr, cc = np.ogrid[:size, :size]

    def disk_at(angle):
        cy = 60 + 20 * math.sin(angle)
        cx = 60 + 20 * math.cos(angle)
        disk = (rr - cy) ** 2 + (cc - cx) ** 2 <= 18.0**2
        return measure_shape(region_of(disk))

    base = disk_at(0.0)
    for angle in (0.4, 1.1, 2.0, 2.9):
        rotated = disk_at(angle)
        assert_close(rotated["Zernike_0_0"], base["Zernike_0_0"], rel=0.02, label="Zernike_0_0")
        for n, m in _zernike_indexes(9):
            if (n, m) == (0, 0):
                continue
            key = f"Zernike_{n}_{m}"
            assert rotated[key] < 0.03, key
            assert abs(rotated[key] - base[key]) < 0.03, key


def test_feature_ranges_on_random_blobs(rng):
    for _ in range(10):
        features = measure_shape(region_of(small_blob(rng)))
        assert 0.0 <= features["Eccentricity"] < 1.0
        assert 0.0 < features["Extent"] <= 1.0
        assert 0.0 < features["Solidity"] <= 1.0
        assert features["FormFactor"] > 0.0
        assert -math.pi / 2 < features["Orientation"] <= math.pi / 2
        assert features["MaxRadius"] >= 1.0


def test_matches_naive_oracle_on_random_blobs(rng):
    for _ in range(10):
        region = region_of(small_blob(rng))
        assert_feature_maps_close(
            measure_shape(region), shape_oracle(region), rel=1e-9, abs_tol=1e-9
        )


def test_disconnected_label_is_measured_as_one_object():
    mask = np.zeros((12, 12), dtype=np.int64)
    mask[2, 2] = 5
    mask[9, 9] = 5
    (region,) = extract_objects(LabelMask(mask))
    features = measure_shape(region)
    assert features["Area"] == 2.0
    assert features["EulerNumber"] == 2.0


def _mask_from_rows(*rows):
    return np.array([[ch == "#" for ch in row] for row in rows])


@st.composite
def pixel_masks(draw):
    """Boolean masks up to 16 x 16 with at least one pixel, from sparse
    (diagonal contacts, empty rows and columns) to nearly full (holes)."""
    shape = (draw(st.integers(1, 16)), draw(st.integers(1, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mask = rng.random(shape) < draw(st.floats(0.05, 0.95))
    mask.flat[draw(st.integers(0, mask.size - 1))] = True
    return mask


@settings(max_examples=300, deadline=None)
@given(pixel_masks())
@example(_mask_from_rows("#"))
@example(_mask_from_rows("#######"))
@example(_mask_from_rows(*"#####"))
@example(_mask_from_rows("#.#.#", ".#.#.", "#.#.#", ".#.#."))
@example(_mask_from_rows("#####", "#...#", "#...#", "#####"))
@example(_mask_from_rows("#######", "#.....#", "#.###.#", "#.#.#.#", "#.###.#", "#.....#", "#######"))
@example(_mask_from_rows("##....", "......", "......", "...#..", "......", "....##"))
def test_mask_kernels_match_the_definitions_exactly(mask):
    assert _crack_perimeter(mask) == _perimeter(_pixel_set(mask))
    assert _euler_number(mask) == _euler(mask)
    assert _convex_hull_area(mask) == convex_hull_oracle(mask)


@st.composite
def summand_rows(draw):
    """(values, block width): rows of 1-5,000 floats from subnormal
    magnitudes up to 2**960, each row spread over many exponents, cancelling
    (x + tiny against -x), crowding the bound with one sign, or all zeros."""
    length = draw(st.integers(1, 5000))
    top = draw(st.integers(-1074, 960))
    span = draw(st.integers(0, 2100))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))

    def spread(size, hi):
        hi = max(hi, -1074)
        exps = rng.integers(max(hi - span, -1074), hi + 1, size)
        return np.ldexp(rng.uniform(-1.0, 1.0, size), exps)

    rows = []
    kinds = st.sampled_from(["spread", "cancel", "crowd", "zeros"])
    for kind in draw(st.lists(kinds, min_size=1, max_size=3)):
        if kind == "spread":
            row = spread(length, top)
        elif kind == "cancel":
            half = length // 2
            x = spread(half, top - 1)
            tiny = spread(half, top - 1 - draw(st.integers(1, 120)))
            row = rng.permutation(np.concatenate([x + tiny, -x, spread(length - 2 * half, top)]))
        elif kind == "crowd":
            row = np.ldexp(rng.uniform(0.5, 1.0, length), top) * draw(st.sampled_from([-1, 1]))
        else:
            row = np.where(rng.random(length) < 0.5, -0.0, 0.0)
        rows.append(row)
    return np.array(rows), draw(st.integers(1, 2 * _BLOCK_PIXELS))


def _exact_row_sums(values, width):
    """One ``math.fsum`` per row over the limb sums of its ``width``-column
    blocks, as :func:`_zernike_magnitudes` joins them."""
    partials = []
    for start in range(0, values.shape[1], width):
        partials += _limb_sums(values[:, start : start + width].copy())
    return [math.fsum(row) for row in np.array(partials).T.tolist()]


@settings(max_examples=150, deadline=None)
@given(summand_rows())
@example((np.zeros((2, 7)), 3))  # all-zero blocks
@example((np.array([[1.0, 2.0**-1074, -1.0], [2.0**959, -(2.0**-1074), 3.0]]), 1))  # width 1
@example((np.full((1, 5), -0.0), 2))  # a row of -0.0
def test_exact_row_sums_equal_fsum(case):
    values, width = case
    # == compares bits, except that it takes 0.0 and -0.0 as equal.
    assert _exact_row_sums(values, width) == [math.fsum(row) for row in values.tolist()]


def _pixels_nearest_a_point(count):
    """A roundish mask of exactly ``count`` pixels: the pixel centers nearest
    a point off the grid, ties broken by row, then column."""
    side = 2 * math.isqrt(count) + 3
    rr, cc = np.indices((side, side))
    d2 = (rr - side / 2 - 0.3) ** 2 + (cc - side / 2 - 0.1) ** 2
    nearest = np.lexsort((cc.ravel(), rr.ravel(), d2.ravel()))[:count]
    mask = np.zeros(side * side, dtype=bool)
    mask[nearest] = True
    return mask.reshape(side, side)


@pytest.mark.parametrize("order", [0, 9, 20])
@pytest.mark.parametrize(
    "count", [1, _BLOCK_PIXELS - 1, _BLOCK_PIXELS, _BLOCK_PIXELS + 1, 2 * _BLOCK_PIXELS + 1]
)
def test_zernike_matches_the_fsum_oracle_bitwise(count, order):
    mask = _pixels_nearest_a_point(count)
    assert mask.sum() == count
    got = measure_shape(region_of(mask), ShapeParams(zernike_max_order=order))
    want = zernike_fsum_oracle(mask, order)
    assert [got[key] for key in want] == list(want.values())


def test_zernike_rotation_exact_across_blocks(rng):
    # An irregular object spanning three pixel blocks.
    rr, cc = np.indices((90, 90))
    mask = np.zeros((90, 90), dtype=bool)
    for row, col, radius in rng.uniform((25, 25, 12), (65, 65, 22), (5, 3)):
        mask |= (rr - row) ** 2 + (cc - col) ** 2 <= radius**2
    mask &= rng.random((90, 90)) < 0.95
    assert mask.sum() > 2 * _BLOCK_PIXELS
    for order in (9, 20):
        params = ShapeParams(zernike_max_order=order)
        keys = [f"Zernike_{n}_{m}" for n, m in _zernike_indexes(order)]
        base = measure_shape(region_of(mask), params)
        for k in (1, 2, 3):
            rotated = measure_shape(region_of(np.rot90(mask, k)), params)
            assert [rotated[key] for key in keys] == [base[key] for key in keys], k


def test_shape_memory_is_bounded_by_pixel_blocks():
    before, after = probe_peaks("shape", 160)
    added_kib = after - before
    assert added_kib < 4 * 1024, f"measure_shape added {added_kib} KiB"


def test_zernike_rows_from_their_first_coefficient_equal_the_full_table_bitwise(rng):
    """Each Horner row starts at its first coefficient, rows ordered by their
    length; every order 0..20 is bitwise the full table's, on a lone pixel,
    a blob and a disk of several pixel blocks."""
    yy, xx = np.mgrid[:61, :61]
    disk = np.hypot(yy - 30, xx - 30) <= 30
    assert disk.sum() > 2 * _BLOCK_PIXELS
    for mask in (np.ones((1, 1), dtype=bool), small_blob(rng, size=20), disk):
        geometry = MaskGeometry(mask)
        for order in range(21):
            got = _zernike_magnitudes(geometry, order)
            want = zernike_full_table_reference(geometry, order)
            assert list(got) == list(want)
            assert [v.hex() for v in got.values()] == [v.hex() for v in want.values()], order
