import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from conftest import assert_feature_maps_close, plane_of, region_of
from oracles import glcm_oracle, quantize_oracle, texture_oracle, texture_per_direction_reference

from morphoprof import ImagePlane, TextureParams, measure_texture
from morphoprof.texture import FEATURES, _glcms, _haralick, _levels
from synth import small_blob, smooth_plane
from test_invariance import check_rotation, check_scale, inputs


def test_quantize_constant_object_is_level_zero():
    mask = np.ones((3, 3), dtype=bool)
    levels = _levels(region_of(mask), plane_of(np.full((3, 3), 0.4)), 8)
    assert (levels == 0).all()


def test_quantize_two_values_two_levels():
    mask = np.ones((1, 2), dtype=bool)
    levels = _levels(region_of(mask), plane_of([[0.0, 1.0]]), 2)
    assert levels.tolist() == [[0, 1]]


def test_quantize_histogram_matches_per_pixel_oracle(rng):
    mask = small_blob(rng)
    plane = ImagePlane(rng.random(mask.shape))
    region = region_of(mask)
    levels = _levels(region, plane, 8)
    expected = quantize_oracle(region, plane, 8)
    assert (levels[~region.local_mask] == -1).all()
    for (r, c), level in expected.items():
        assert levels[r, c] == level


def test_glcm_two_pixel_object():
    mask = np.ones((1, 2), dtype=bool)
    region = region_of(mask)
    levels = _levels(region, plane_of([[0.0, 1.0]]), 2)
    p = _glcms(levels, 1, 2)
    assert p[0].tolist() == [[0.0, 0.5], [0.5, 0.0]]


def test_glcm_single_pixel_has_no_pairs():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    region = region_of(mask)
    levels = _levels(region, plane_of(np.zeros((3, 3))), 8)
    p = _glcms(levels, 1, 8)
    assert p.shape == (4, 8, 8)
    assert (p == 0).all()


def test_glcm_matches_pair_enumeration(rng):
    mask = small_blob(rng, size=16)
    plane = ImagePlane(rng.random(mask.shape))
    region = region_of(mask)
    levels = _levels(region, plane, 8)
    oracle_levels = quantize_oracle(region, plane, 8)
    for d in (1, 2, 3):
        directions = ((0, d), (-d, d), (-d, 0), (-d, -d))
        for p, direction in zip(_glcms(levels, d, 8), directions, strict=True):
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
    levels = _levels(region, plane_of(board.astype(float)), 2)
    p = _glcms(levels, 1, 2)[0]
    assert p[0, 1] == p[1, 0] == 0.5
    oracle = {
        "Contrast": 1.0,
        "AngularSecondMoment": 0.5,
    }
    features = dict(zip(FEATURES, _haralick(p[None])[0]))
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
        levels = _levels(region, plane, params.gray_levels)
        stack = _glcms(levels, distance, params.gray_levels)
        assert stack[0].any() and not stack[1:].any()
        expected = dict(zip(FEATURES, _haralick(stack[:1])[0]))
        assert measure_texture(region, plane, params) == expected


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


@st.composite
def _texture_cases(draw):
    """A mask with holes inside a one-pixel border or reaching the canvas
    edges, a 1 x n or n x 1 run, or a single pixel; a plane of floats or of
    a few repeated dyadic values, of either sign, times 2^e; a distance
    from 1 to past the bbox; 2 to 256 gray levels."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["holes", "edge", "row", "column", "pixel"]))
    h, w = draw(st.integers(1, 24)), draw(st.integers(1, 24))
    h, w = {"row": (1, w), "column": (h, 1), "pixel": (1, 1)}.get(kind, (h, w))
    mask = rng.random((h, w)) < (0.7 if kind == "holes" else 0.9)
    mask.flat[rng.integers(mask.size)] = True
    if kind == "holes":
        mask = np.pad(mask, 1)
    values = rng.random(mask.shape)
    if draw(st.booleans()):
        values = rng.integers(0, 4, size=mask.shape) / 4
    if draw(st.booleans()):
        values = 2 * values - 1
    plane = ImagePlane(np.ldexp(values, draw(st.integers(-1000, 1023))))
    distance = draw(st.integers(1, max(h, w) + 2))
    return region_of(mask), plane, TextureParams(distance, draw(st.integers(2, 256)))


@settings(max_examples=300, deadline=None)
@given(case=_texture_cases())
def test_stacked_glcms_give_the_bits_of_the_per_direction_route(case):
    """All 13 features of the one (4, G, G) stack are bitwise those of one
    GLCM and one set of reductions per direction."""
    region, plane, params = case
    got = measure_texture(region, plane, params)
    expected = texture_per_direction_reference(region, plane, params)
    assert {k: v.hex() for k, v in got.items()} == {k: v.hex() for k, v in expected.items()}
