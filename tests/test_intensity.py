import math

import numpy as np
from conftest import assert_close, assert_feature_maps_close, plane_of, region_of
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import intensity_oracle

from morphoprof import ImagePlane, measure_intensity
from morphoprof.intensity import FEATURES
from synth import small_blob, smooth_plane

SCALING = [k for k in FEATURES if k != "MassDisplacement"]


def test_constant_object():
    mask = np.zeros((6, 6), dtype=bool)
    mask[1:5, 2:5] = True
    features = measure_intensity(region_of(mask), plane_of(np.full((6, 6), 0.25)))
    assert features["IntegratedIntensity"] == 12 * 0.25
    assert features["MeanIntensity"] == 0.25
    assert features["MedianIntensity"] == 0.25
    assert features["MinIntensity"] == features["MaxIntensity"] == 0.25
    assert features["StdIntensity"] == 0.0
    assert features["MADIntensity"] == 0.0
    assert features["MassDisplacement"] == 0.0
    general = measure_intensity(region_of(mask), plane_of(np.full((6, 6), 0.3)))
    assert_close(general["IntegratedIntensity"], 12 * 0.3, rel=1e-12)


def test_mass_displacement_line():
    mask = np.zeros((3, 5), dtype=bool)
    mask[1, 1:4] = True
    values = np.zeros((3, 5))
    values[1, 3] = 1.0
    features = measure_intensity(region_of(mask), plane_of(values))
    assert features["MassDisplacement"] == 1.0  # binary col 2, weighted col 3


def test_two_by_two_quartiles():
    mask = np.ones((2, 2), dtype=bool)
    features = measure_intensity(region_of(mask), plane_of([[1.0, 2.0], [3.0, 4.0]]))
    assert features["MeanIntensity"] == 2.5
    assert features["MedianIntensity"] == 2.5
    assert_close(features["StdIntensity"], math.sqrt(1.25), rel=1e-12)
    assert_close(features["StdIntensity"], 1.118033988749895, rel=1e-12)
    assert features["LowerQuartile"] == 1.75
    assert features["UpperQuartile"] == 3.25


def test_edge_features_on_ring():
    mask = np.zeros((5, 5), dtype=bool)
    mask[1:4, 1:4] = True
    values = np.arange(25, dtype=float).reshape(5, 5)
    features = measure_intensity(region_of(mask), plane_of(values))
    interior = values[2, 2]
    ring_sum = values[1:4, 1:4].sum() - interior
    assert features["IntegratedIntensityEdge"] == ring_sum
    assert features["MeanIntensityEdge"] == ring_sum / 8


def test_single_pixel_edge_is_itself():
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    values = np.zeros((3, 3))
    values[1, 1] = 0.7
    features = measure_intensity(region_of(mask), plane_of(values))
    assert features["IntegratedIntensityEdge"] == 0.7
    assert features["MeanIntensityEdge"] == 0.7


def test_scaling_homogeneity(rng):
    mask = small_blob(rng)
    base_values = smooth_plane(*mask.shape, rng)
    base = measure_intensity(region_of(mask), ImagePlane(base_values))
    for k in (0.5, 2.0, 3.7):
        scaled = measure_intensity(region_of(mask), ImagePlane(k * base_values))
        for key in SCALING:
            assert_close(scaled[key], k * base[key], rel=1e-12, label=key)
        assert_close(
            scaled["MassDisplacement"], base["MassDisplacement"], rel=1e-12
        )
    zeroed = measure_intensity(region_of(mask), ImagePlane(0.0 * base_values))
    assert zeroed["MassDisplacement"] == 0.0
    assert zeroed["IntegratedIntensity"] == 0.0


def test_order_statistics_are_ordered(rng):
    for _ in range(10):
        mask = small_blob(rng)
        features = measure_intensity(
            region_of(mask), ImagePlane(rng.random(mask.shape))
        )
        assert (
            features["MinIntensity"]
            <= features["LowerQuartile"]
            <= features["MedianIntensity"]
            <= features["UpperQuartile"]
            <= features["MaxIntensity"]
        )


def test_shuffle_preserves_order_statistics_and_sums(rng):
    mask = small_blob(rng)
    values = rng.random(mask.shape)
    shuffled = values.copy()
    inside = np.nonzero(mask)
    perm = rng.permutation(len(inside[0]))
    shuffled[inside] = values[inside][perm]
    base = measure_intensity(region_of(mask), ImagePlane(values))
    moved = measure_intensity(region_of(mask), ImagePlane(shuffled))
    for key in ("MinIntensity", "MaxIntensity", "MedianIntensity",
                "LowerQuartile", "UpperQuartile", "MADIntensity"):
        assert moved[key] == base[key], key
    assert_close(moved["IntegratedIntensity"], base["IntegratedIntensity"], rel=1e-12)
    assert_close(moved["StdIntensity"], base["StdIntensity"], rel=1e-12)


def test_translation_invariance_is_exact(rng):
    blob = small_blob(rng)
    values = smooth_plane(*blob.shape, rng)
    canvas_mask = np.zeros((60, 60), dtype=bool)
    canvas_vals = np.zeros((60, 60))
    canvas_mask[5 : 5 + blob.shape[0], 5 : 5 + blob.shape[1]] = blob
    canvas_vals[5 : 5 + blob.shape[0], 5 : 5 + blob.shape[1]] = values
    base = measure_intensity(region_of(canvas_mask), plane_of(canvas_vals))
    moved = measure_intensity(
        region_of(np.roll(canvas_mask, (9, 13), axis=(0, 1))),
        plane_of(np.roll(canvas_vals, (9, 13), axis=(0, 1))),
    )
    assert moved == base


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_matches_naive_oracle(seed):
    rng = np.random.default_rng(seed)
    mask = small_blob(rng)
    plane = ImagePlane(rng.random(mask.shape))
    region = region_of(mask)
    assert_feature_maps_close(
        measure_intensity(region, plane), intensity_oracle(region, plane), rel=1e-9
    )


def test_extreme_but_finite_magnitudes_keep_std_exact(rng):
    # Planes x 2^-700 made StdIntensity drift (the squares underflowed), and
    # x 2^1000 made it inf with an overflow warning.
    mask = small_blob(rng)
    values = smooth_plane(*mask.shape, rng)
    region = region_of(mask)
    base = measure_intensity(region, plane_of(values))
    for e in (-700, -300, 300, 1000):
        got = measure_intensity(region, plane_of(np.ldexp(values, e)))
        assert got["StdIntensity"] == math.ldexp(base["StdIntensity"], e), e


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-1000, 500))
def test_power_of_two_scaling_changes_no_bit_of_intensity(seed, e):
    """MassDisplacement is bitwise scale-invariant, every other feature,
    StdIntensity included, is exactly x 2^e, and no value turns non-finite."""
    rng = np.random.default_rng(seed)
    mask = small_blob(rng, size=12)
    # Multiples of 2^-10, so no scaled value falls below the normal range.
    values = rng.integers(0, 1024, size=mask.shape) / 1024
    region = region_of(mask)
    base = measure_intensity(region, plane_of(values))
    got = measure_intensity(region, plane_of(np.ldexp(values, e)))
    assert got["MassDisplacement"] == base["MassDisplacement"]
    for key in SCALING:
        assert got[key] == math.ldexp(base[key], e), key
    assert all(map(math.isfinite, got.values()))
