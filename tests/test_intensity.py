import math
import warnings
from fractions import Fraction

import numpy as np
from conftest import assert_close, assert_feature_maps_close, plane_of, region_of
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import intensity_oracle

from morphoprof import FeatureTable, ImagePlane, measure_intensity, write_table
from morphoprof.intensity import FEATURES
from synth import small_blob, smooth_plane
from test_invariance import check_scale, check_translation, inputs


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
    zeroed = measure_intensity(region_of(mask), plane_of(np.zeros((6, 6))))
    assert zeroed["MassDisplacement"] == 0.0
    assert zeroed["IntegratedIntensity"] == 0.0


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


def test_translation_invariance_is_exact(rng):
    blob = small_blob(rng)
    values = smooth_plane(*blob.shape, rng)
    canvas_mask = np.zeros((60, 60), dtype=bool)
    canvas_vals = np.zeros((1, 60, 60))
    canvas_mask[5 : 5 + blob.shape[0], 5 : 5 + blob.shape[1]] = blob
    canvas_vals[0, 5 : 5 + blob.shape[0], 5 : 5 + blob.shape[1]] = values
    check_translation("intensity", None, canvas_mask, canvas_vals, (9, 13))


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


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40))
@example([0.3])
@example([0.1, 0.7])
@example([-0.0, 0.0])
def test_quartiles_are_the_two_percentile_calls_bit_for_bit(values):
    """Both quartiles come from one np.percentile call, with the bits of one
    call per quartile; n = 1 and n = 2 included."""
    plane = plane_of([values])
    got = measure_intensity(region_of(np.ones((1, len(values)), dtype=bool)), plane)
    for key, q in (("LowerQuartile", 25), ("UpperQuartile", 75)):
        assert got[key].hex() == float(np.percentile(values, q)).hex(), key


def test_extreme_but_finite_magnitudes_keep_std_exact(rng):
    # Planes x 2^-700 made StdIntensity drift (the squares underflowed), and
    # x 2^1000 made it inf with an overflow warning.
    mask = small_blob(rng)
    values = smooth_plane(*mask.shape, rng)
    for e in (-700, -300, 300, 1000):
        check_scale("intensity", None, mask, values[None], (e,))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-1000, 1023), signed=st.booleans())
@example(seed=0, e=1023, signed=True)
def test_power_of_two_scaling_changes_no_bit_of_intensity(seed, e, signed):
    """MassDisplacement is bitwise scale-invariant, every other feature,
    StdIntensity, the median, MAD and both quartiles included, is exactly
    x 2^e, on same-sign and mixed-sign planes, and every value is finite
    but a sum or MAD past the float range, which is missing."""
    check_scale("intensity", None, *inputs(seed, False, signed), (e,))


def test_means_and_mass_displacement_hold_at_the_top_of_the_float_range():
    """At 2^1023 the means are exactly x 2^e and MassDisplacement keeps its
    bits; the sums they came from overflowed."""
    rng = np.random.default_rng(7)
    mask = np.ones((12, 12), dtype=bool)
    values = rng.integers(0, 1024, size=mask.shape) / 1024
    region = region_of(mask)
    base = measure_intensity(region, plane_of(values))
    # IntegratedIntensity(Edge) is truly past the float range here.
    with np.errstate(over="ignore"):
        got = measure_intensity(region, plane_of(np.ldexp(values, 1023)))
    for key in ("MeanIntensity", "MeanIntensityEdge"):
        assert got[key] == math.ldexp(base[key], 1023), key
    assert got["MassDisplacement"] == base["MassDisplacement"]


def test_sums_past_the_float_range_are_missing(tmp_path):
    """On u x 2^1023 the sums are truly past the float range: they are
    missing, with no overflow warning, and the table can still be written.
    They used to be inf, which write_table refuses for the whole table."""
    rng = np.random.default_rng(0)
    mask = np.zeros((20, 20), dtype=bool)
    mask[3:17, 2:18] = True  # 14 x 16
    plane = plane_of(np.ldexp(rng.random(mask.shape), 1023))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = measure_intensity(region_of(mask), plane)
    sums = ("IntegratedIntensity", "IntegratedIntensityEdge")
    assert all(math.isnan(got[key]) for key in sums)
    assert all(math.isfinite(got[key]) for key in FEATURES if key not in sums)
    table = FeatureTable("cells", tuple(got), [1], [list(got.values())])
    write_table(table, tmp_path / "cells.csv")


def test_mad_of_a_mixed_sign_plane_at_the_top_of_the_float_range(tmp_path):
    """On (2u - 1) x 1.7e308 the deviations from the median, and the mean of
    the two middle ones, overflowed: MADIntensity was inf, with an overflow
    warning, and write_table refused the whole table.  It is the MAD of the
    plane / 16, times 16, bit for bit."""
    rng = np.random.default_rng(0)
    mask = np.zeros((20, 20), dtype=bool)
    mask[3:17, 2:18] = True  # 14 x 16
    values = (2 * rng.random(mask.shape) - 1) * 1.7e308
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = measure_intensity(region_of(mask), plane_of(values))
    small = np.ldexp(values[mask], -4)
    want = math.ldexp(float(np.median(np.abs(small - np.median(small)))), 4)
    assert got["MADIntensity"] == want
    assert not any(map(math.isinf, got.values()))
    table = FeatureTable("cells", tuple(got), [1], [list(got.values())])
    write_table(table, tmp_path / "cells.csv")


def test_mad_next_to_a_huge_value_keeps_the_bits_of_small_ones():
    """Only the scale that stops the overflow is applied: 1.1..1.9 beside
    1e308 keep their bits, so the MAD is |1.3 - 1.7| exactly, as unscaled."""
    values = np.array([[1e308, 1.1, 1.3, 1.7, 1.9]])
    got = measure_intensity(region_of(np.ones(values.shape, dtype=bool)), plane_of(values))
    assert got["MedianIntensity"] == 1.7
    assert got["MADIntensity"].hex() == abs(1.3 - 1.7).hex()


def test_median_of_an_even_same_sign_plane_at_the_top_of_the_float_range():
    """The mean of the two middle values, 1.6e308 and 1.5e308, overflowed:
    MedianIntensity was inf, and so was MAD.  Both are now the correctly
    rounded values."""
    values = np.array([[1.7e308, 1.6e308, 1.5e308, 1.4e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = measure_intensity(region_of(np.ones(values.shape, dtype=bool)), plane_of(values))
    median = float((Fraction(1.6e308) + Fraction(1.5e308)) / 2)
    assert got["MedianIntensity"] == median
    deviations = sorted(abs(Fraction(v) - Fraction(median)) for v in values.ravel())
    assert got["MADIntensity"] == float((deviations[1] + deviations[2]) / 2)


def test_quartiles_of_a_mixed_sign_plane_at_the_top_of_the_float_range(tmp_path):
    """On the two pixels -1.7e308 and 1.7e308 the quartiles' interpolation
    overflowed: LowerQuartile was inf and UpperQuartile -inf, with an
    overflow warning, and write_table refused the row.  Each is the
    quartile of the plane / 16, times 16, bit for bit."""
    values = np.array([[-1.7e308, 1.7e308]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = measure_intensity(region_of(np.ones(values.shape, dtype=bool)), plane_of(values))
    for key, q in (("LowerQuartile", 25), ("UpperQuartile", 75)):
        want = math.ldexp(float(np.percentile(np.ldexp(values, -4), q)), 4)
        assert got[key].hex() == want.hex(), key
    table = FeatureTable("cells", tuple(got), [1], [list(got.values())])
    write_table(table, tmp_path / "cells.csv")
