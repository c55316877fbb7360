import math

import numpy as np
from conftest import assert_close, assert_feature_maps_close, plane_of, region_of
from oracles import radial_oracle

from morphoprof import ImagePlane, RadialParams, measure_radial
from morphoprof.core import mask_geometry
from hypothesis import given, settings
from hypothesis import strategies as st
from synth import small_blob, smooth_plane
from test_invariance import check_scale, check_translation, inputs


def disk_mask(size=21, radius=7):
    rr, cc = np.ogrid[:size, :size]
    return (rr - size // 2) ** 2 + (cc - size // 2) ** 2 <= radius**2


def test_uniform_intensity_mean_frac_is_exactly_one():
    mask = disk_mask()
    # Dyadic constant: the intensity fraction reduces exactly to the pixel
    # fraction, so MeanFrac is exactly 1 for every non-empty bin.
    features = measure_radial(region_of(mask), plane_of(np.full(mask.shape, 0.5)))
    for b in range(1, 5):
        assert features[f"MeanFrac_{b}of4"] == 1.0
    general = measure_radial(region_of(mask), plane_of(np.full(mask.shape, 0.37)))
    for b in range(1, 5):
        assert_close(general[f"MeanFrac_{b}of4"], 1.0, rel=1e-12)


def test_all_intensity_at_center_lands_in_first_bin():
    mask = disk_mask()
    values = np.zeros(mask.shape)
    values[mask.shape[0] // 2, mask.shape[1] // 2] = 1.0
    features = measure_radial(region_of(mask), plane_of(values))
    assert features["FracAtD_1of4"] == 1.0
    for b in range(2, 5):
        assert features[f"FracAtD_{b}of4"] == 0.0


def test_disk_fractions_match_enumeration_oracle():
    mask = disk_mask(23, 5)
    region = region_of(mask)
    features = measure_radial(region, plane_of(np.full(mask.shape, 0.5)))
    expected = radial_oracle(region, plane_of(np.full(mask.shape, 0.5)), 4)
    assert_feature_maps_close(features, expected, rel=1e-9)


def test_matches_oracle_on_random_blobs(rng):
    for _ in range(5):
        mask = small_blob(rng)
        plane = ImagePlane(rng.random(mask.shape))
        region = region_of(mask)
        assert_feature_maps_close(
            measure_radial(region, plane), radial_oracle(region, plane, 4), rel=1e-9
        )


def test_fraction_sums(rng):
    for _ in range(5):
        mask = small_blob(rng)
        region = region_of(mask)
        features = measure_radial(region, ImagePlane(rng.random(mask.shape)))
        total = math.fsum(features[f"FracAtD_{b}of4"] for b in range(1, 5))
        assert_close(total, 1.0, rel=1e-12)
        rho = mask_geometry(region).rho
        bins = np.minimum(4, 1 + np.floor(rho * 4))
        pixel_fracs = [
            (bins == b).sum() / region.local_mask.sum() for b in range(1, 5)
        ]
        assert_close(math.fsum(pixel_fracs), 1.0, rel=1e-12)


def test_zero_intensity_object_is_missing():
    mask = disk_mask()
    features = measure_radial(region_of(mask), plane_of(np.zeros(mask.shape)))
    assert all(math.isnan(v) for v in features.values())


def test_empty_bin_yields_missing_mean_frac():
    # A single pixel has rho = 0: everything lands in bin 1.
    mask = np.zeros((3, 3), dtype=bool)
    mask[1, 1] = True
    values = np.zeros((3, 3))
    values[1, 1] = 2.0
    features = measure_radial(region_of(mask), plane_of(values))
    assert features["FracAtD_1of4"] == 1.0
    assert features["MeanFrac_1of4"] == 1.0
    for b in range(2, 5):
        assert features[f"FracAtD_{b}of4"] == 0.0
        assert math.isnan(features[f"MeanFrac_{b}of4"])
        assert math.isnan(features[f"RadialCV_{b}of4"])


def test_translation_invariance_is_exact(rng):
    blob = small_blob(rng)
    values = smooth_plane(*blob.shape, rng)
    canvas_mask = np.zeros((60, 60), dtype=bool)
    canvas_vals = np.zeros((1, 60, 60))
    canvas_mask[4 : 4 + blob.shape[0], 6 : 6 + blob.shape[1]] = blob
    canvas_vals[0, 4 : 4 + blob.shape[0], 6 : 6 + blob.shape[1]] = values
    check_translation("radial", RadialParams(), canvas_mask, canvas_vals, (11, 3))


def test_respects_bin_count():
    mask = disk_mask()
    features = measure_radial(region_of(mask), plane_of(np.full(mask.shape, 0.5)),
                              RadialParams(bins=6))
    assert sorted(k for k in features if k.startswith("FracAtD")) == [
        f"FracAtD_{b}of6" for b in range(1, 7)
    ]


def test_extreme_but_finite_magnitudes_measure_like_unit_ones(rng):
    # Planes x 2^-700 made RadialCV drift (the squares underflowed), and
    # x 2^1000 made it non-finite with an overflow warning.
    mask = small_blob(rng)
    values = smooth_plane(*mask.shape, rng)
    for e in (-700, -300, 300, 1000):
        check_scale("radial", RadialParams(), mask, values[None], (e,))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-1000, 1023), mixed=st.booleans())
def test_power_of_two_scaling_changes_no_bit_of_radial(seed, e, mixed):
    """Every radial feature is scale-invariant: bitwise equal to the
    unscaled value, with NaN exactly where the unscaled run has it."""
    check_scale("radial", RadialParams(), *inputs(seed, False, mixed), (e,))
