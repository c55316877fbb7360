import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import assert_feature_maps_close, plane_of, region_of
from oracles import glcm_oracle, quantize_oracle, texture_oracle

from morphoprof import ImagePlane, TextureParams, measure_texture
from morphoprof.texture import FEATURES, directions, glcm, haralick_features, quantize
from synth import small_blob, smooth_plane
from test_invariance import check_rotation, check_scale, inputs


def test_quantize_constant_object_is_level_zero():
    mask = np.ones((3, 3), dtype=bool)
    levels = quantize(region_of(mask), plane_of(np.full((3, 3), 0.4)), 8)
    assert (levels == 0).all()


def test_quantize_two_values_two_levels():
    mask = np.ones((1, 2), dtype=bool)
    levels = quantize(region_of(mask), plane_of([[0.0, 1.0]]), 2)
    assert levels.tolist() == [[0, 1]]


def test_quantize_histogram_matches_per_pixel_oracle(rng):
    mask = small_blob(rng)
    plane = ImagePlane(rng.random(mask.shape))
    region = region_of(mask)
    levels = quantize(region, plane, 8)
    expected = quantize_oracle(region, plane, 8)
    assert (levels[~region.local_mask] == -1).all()
    for (r, c), level in expected.items():
        assert levels[r, c] == level


def test_glcm_two_pixel_object():
    mask = np.ones((1, 2), dtype=bool)
    region = region_of(mask)
    levels = quantize(region, plane_of([[0.0, 1.0]]), 2)
    p = glcm(levels, (0, 1), 2)
    assert p.tolist() == [[0.0, 0.5], [0.5, 0.0]]


def test_glcm_single_pixel_has_no_pairs():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    region = region_of(mask)
    levels = quantize(region, plane_of(np.zeros((3, 3))), 8)
    p = glcm(levels, (0, 1), 8)
    assert p.shape == (8, 8)
    assert (p == 0).all()


def test_glcm_matches_pair_enumeration(rng):
    mask = small_blob(rng, size=16)
    plane = ImagePlane(rng.random(mask.shape))
    region = region_of(mask)
    levels = quantize(region, plane, 8)
    oracle_levels = quantize_oracle(region, plane, 8)
    for direction in directions(1) + directions(2) + directions(3):
        p = glcm(levels, direction, 8)
        expected, had_expected = glcm_oracle(oracle_levels, direction, 8)
        assert p.any() == had_expected
        assert np.allclose(p, expected, atol=1e-15)
        if had_expected:
            assert abs(p.sum() - 1.0) < 1e-12
            assert np.array_equal(p, p.T)


def test_constant_object_features():
    mask = np.zeros((6, 6), dtype=bool)
    mask[1:5, 1:5] = True
    features = measure_texture(region_of(mask), plane_of(np.full((6, 6), 0.3)))
    assert features["AngularSecondMoment"] == 1.0
    assert features["Contrast"] == 0.0
    assert features["Entropy"] == 0.0
    assert features["InverseDifferenceMoment"] == 1.0


def test_checkerboard_horizontal_glcm():
    board = np.indices((6, 6)).sum(axis=0) % 2
    mask = np.ones((6, 6), dtype=bool)
    region = region_of(mask)
    levels = quantize(region, plane_of(board.astype(float)), 2)
    p = glcm(levels, (0, 1), 2)
    assert p[0, 1] == p[1, 0] == 0.5
    oracle = {
        "Contrast": 1.0,
        "AngularSecondMoment": 0.5,
    }
    features = haralick_features(p)
    assert features["Contrast"] == oracle["Contrast"]
    assert features["AngularSecondMoment"] == oracle["AngularSecondMoment"]


def test_single_pixel_object_gives_all_missing():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    features = measure_texture(region_of(mask), plane_of(np.zeros((3, 3))))
    assert set(features) == set(FEATURES)
    assert all(math.isnan(v) for v in features.values())


def test_distance_past_the_bbox_counts_no_pairs(rng):
    mask = np.ones((2, 4), dtype=bool)
    region = region_of(mask)
    plane = ImagePlane(rng.random((2, 4)))
    for distance in (4, 5):
        features = measure_texture(region, plane, TextureParams(distance=distance))
        assert all(math.isnan(features[name]) for name in FEATURES), distance
    # Past the height only: the horizontal direction alone counts.
    for distance in (2, 3):
        params = TextureParams(distance=distance)
        levels = quantize(region, plane, params.gray_levels)
        horizontal = glcm(levels, (0, distance), params.gray_levels)
        assert horizontal.any()
        assert measure_texture(region, plane, params) == haralick_features(horizontal)


def test_matches_literal_formula_oracle(rng):
    for _ in range(5):
        mask = small_blob(rng)
        plane = ImagePlane(rng.random(mask.shape))
        region = region_of(mask)
        params = TextureParams(distance=1, gray_levels=8)
        assert_feature_maps_close(
            measure_texture(region, plane, params),
            texture_oracle(region, plane, 1, 8),
            rel=1e-9,
        )


def test_feature_ranges(rng):
    for _ in range(5):
        mask = small_blob(rng)
        features = measure_texture(region_of(mask), ImagePlane(rng.random(mask.shape)))
        assert 0.0 < features["AngularSecondMoment"] <= 1.0
        assert features["Entropy"] >= 0.0
        assert 0.0 < features["InverseDifferenceMoment"] <= 1.0
        assert 0.0 <= features["InfoMeas2"] <= 1.0


def test_bin_preserving_rescale_leaves_features_unchanged(rng):
    mask = small_blob(rng)
    # Values at bin centers: any affine remap keeps every pixel's bin.
    levels = rng.integers(0, 8, size=mask.shape)
    values = (levels + 0.5) / 8.0
    base = measure_texture(region_of(mask), plane_of(values))
    remapped = measure_texture(region_of(mask), plane_of(3.7 * values + 0.2))
    for key in FEATURES:
        assert remapped[key] == base[key], key


def test_quarter_rotation_keeps_direction_mean_exactly(rng):
    for _ in range(5):
        mask = small_blob(rng)
        values = smooth_plane(*mask.shape, rng)
        for k in (1, 2, 3):
            check_rotation("texture", TextureParams(), mask, values[None], k)


def test_distance_two_uses_distance_scaled_offsets(rng):
    mask = np.ones((8, 8), dtype=bool)
    plane = ImagePlane(rng.random((8, 8)))
    region = region_of(mask)
    params = TextureParams(distance=2, gray_levels=4)
    assert_feature_maps_close(
        measure_texture(region, plane, params),
        texture_oracle(region, plane, 2, 4),
        rel=1e-9,
    )


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-1000, 1023), mixed=st.booleans())
@example(seed=0, e=1023, mixed=False)
@example(seed=0, e=1023, mixed=True)
def test_power_of_two_scaling_changes_no_bit_of_texture(seed, e, mixed):
    """Every feature of a plane x 2^e is bitwise the unit plane's, up to the
    top of the float range and for mixed signs, where max - min overflowed."""
    check_scale("texture", TextureParams(), *inputs(seed, False, mixed), (e,))
