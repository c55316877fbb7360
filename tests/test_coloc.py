import math

import numpy as np
from conftest import assert_close, assert_feature_maps_close, plane_of, region_of
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import coloc_oracle

from morphoprof import ColocParams, ImagePlane, measure_coloc
from synth import small_blob, smooth_plane


def square_region(size=4):
    return region_of(np.ones((size, size), dtype=bool))


def test_identity_channel(rng):
    values = 0.1 + rng.random((4, 4))
    region = square_region()
    features = measure_coloc(region, plane_of(values), plane_of(values), ColocParams(0.0))
    assert_close(features["Pearson"], 1.0, rel=1e-12)
    assert_close(features["Overlap"], 1.0, rel=1e-12)
    assert_close(features["Slope"], 1.0, rel=1e-12)
    assert features["MandersM1"] == 1.0  # strictly positive values, zero threshold
    assert features["MandersM2"] == 1.0


def test_perfect_anticorrelation(rng):
    values = rng.random((4, 4))
    features = measure_coloc(
        square_region(), plane_of(values), plane_of(2.0 - values)
    )
    assert_close(features["Pearson"], -1.0, rel=1e-12)


def test_two_by_two_doubled_channel():
    a = [[1.0, 2.0], [3.0, 4.0]]
    b = [[2.0, 4.0], [6.0, 8.0]]
    features = measure_coloc(
        square_region(2), plane_of(a), plane_of(b), ColocParams(0.0)
    )
    assert_close(features["Pearson"], 1.0, rel=1e-12)
    assert_close(features["Slope"], 2.0, rel=1e-12)
    assert_close(features["Overlap"], 1.0, rel=1e-12)
    assert features["MandersM1"] == 1.0
    assert features["MandersM2"] == 1.0


def test_matches_direct_formula_oracle(rng):
    for _ in range(5):
        mask = small_blob(rng)
        region = region_of(mask)
        plane_a = ImagePlane(rng.random(mask.shape))
        plane_b = ImagePlane(rng.random(mask.shape))
        assert_feature_maps_close(
            measure_coloc(region, plane_a, plane_b),
            coloc_oracle(region, plane_a, plane_b, 0.15),
            rel=1e-9,
        )


def test_swap_symmetry(rng):
    mask = small_blob(rng)
    region = region_of(mask)
    plane_a = ImagePlane(rng.random(mask.shape))
    plane_b = ImagePlane(rng.random(mask.shape))
    ab = measure_coloc(region, plane_a, plane_b)
    ba = measure_coloc(region, plane_b, plane_a)
    assert ab["Pearson"] == ba["Pearson"]
    assert ab["Overlap"] == ba["Overlap"]
    assert ab["MandersM1"] == ba["MandersM2"]
    assert ab["MandersM2"] == ba["MandersM1"]


def test_positive_rescale_invariance(rng):
    mask = small_blob(rng)
    region = region_of(mask)
    values_a = smooth_plane(*mask.shape, rng)
    values_b = smooth_plane(*mask.shape, rng)
    base = measure_coloc(region, plane_of(values_a), plane_of(values_b))
    for k in (2.0, 3.7):
        scaled = measure_coloc(region, plane_of(k * values_a), plane_of(values_b))
        for key in ("Pearson", "Overlap", "MandersM1", "MandersM2"):
            assert_close(scaled[key], base[key], rel=1e-12, label=key)
        assert_close(scaled["Slope"], base["Slope"] / k, rel=1e-12)


def test_constant_channel_degenerates_to_missing():
    region = square_region()
    constant = plane_of(np.full((4, 4), 0.5))
    varying = plane_of(np.arange(16, dtype=float).reshape(4, 4))
    features = measure_coloc(region, constant, varying)
    assert math.isnan(features["Pearson"])
    assert math.isnan(features["Slope"])
    assert not math.isnan(features["Overlap"])
    zero = plane_of(np.zeros((4, 4)))
    features = measure_coloc(region, zero, varying)
    assert math.isnan(features["Overlap"])
    assert math.isnan(features["MandersM1"])
    assert not math.isnan(features["MandersM2"])


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1), st.floats(0.0, 0.9))
def test_ranges(seed, tau):
    rng = np.random.default_rng(seed)
    mask = small_blob(rng, size=12)
    region = region_of(mask)
    features = measure_coloc(
        region,
        ImagePlane(rng.random(mask.shape)),
        ImagePlane(rng.random(mask.shape)),
        ColocParams(tau),
    )
    assert -1.0 <= features["Pearson"] <= 1.0
    assert 0.0 <= features["Overlap"] <= 1.0
    assert 0.0 <= features["MandersM1"] <= 1.0
    assert 0.0 <= features["MandersM2"] <= 1.0


def test_extreme_but_finite_magnitudes_measure_like_unit_ones(rng):
    # Planes x 2^-300 used to raise ZeroDivisionError (var_a * var_b
    # underflowed), and x 2^300 read Pearson and Overlap 0.0 (overflow).
    a, b = rng.random((4, 4)), rng.random((4, 4))
    region = square_region()
    base = measure_coloc(region, plane_of(a), plane_of(b))
    for e in (-300, 300):
        scaled = measure_coloc(region, plane_of(np.ldexp(a, e)), plane_of(np.ldexp(b, e)))
        assert scaled == base, e


def test_slope_past_the_float_range_is_missing(rng):
    a = rng.integers(1, 1024, size=(4, 4)) / 1024
    b = rng.integers(1, 1024, size=(4, 4)) / 1024
    region = square_region()
    base = measure_coloc(region, plane_of(a), plane_of(b))
    far = measure_coloc(region, plane_of(np.ldexp(a, -1000)), plane_of(np.ldexp(b, 1000)))
    assert math.isnan(far["Slope"]) and not math.isnan(base["Slope"])
    assert {k: v for k, v in far.items() if k != "Slope"} == {
        k: v for k, v in base.items() if k != "Slope"
    }


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    e_a=st.integers(-1000, 1000),
    e_b=st.integers(-1000, 1000),
)
def test_power_of_two_scaling_changes_no_bit_of_coloc(seed, e_a, e_b):
    """Pearson, Overlap and Manders are bitwise scale-invariant; Slope is
    exactly x 2^(e_b - e_a) while that stays in the normal range."""
    rng = np.random.default_rng(seed)
    mask = small_blob(rng, size=12)
    # Multiples of 2^-10, so no scaled value falls below the normal range.
    a = rng.integers(0, 1024, size=mask.shape) / 1024
    b = rng.integers(0, 1024, size=mask.shape) / 1024
    region = region_of(mask)
    base = measure_coloc(region, plane_of(a), plane_of(b))
    got = measure_coloc(region, plane_of(np.ldexp(a, e_a)), plane_of(np.ldexp(b, e_b)))
    for key in ("Pearson", "Overlap", "MandersM1", "MandersM2"):
        assert got[key] == base[key] or (math.isnan(got[key]) and math.isnan(base[key])), key
    if math.isnan(base["Slope"]):
        assert math.isnan(got["Slope"])
    elif abs(e_b - e_a) < 900:
        assert got["Slope"] == math.ldexp(base["Slope"], e_b - e_a)
