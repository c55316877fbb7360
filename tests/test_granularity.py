import math

import numpy as np
import pytest
import scipy.ndimage
from conftest import assert_close, plane_of, region_of
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    granularity_oracle,
    gray_open_oracle,
    gray_reconstruct_oracle,
)

from morphoprof import GranularityParams, ImagePlane, measure_granularity
from morphoprof import granularity
from morphoprof.granularity import (
    disk_footprint,
    gray_dilate,
    gray_erode,
    gray_open,
    gray_reconstruct,
)
from synth import small_blob


def test_open_leaves_constant_unchanged():
    mask = np.ones((5, 5), dtype=bool)
    values = np.full((5, 5), 0.4)
    assert np.array_equal(gray_open(values, mask, 2), values)


def test_open_flattens_single_bright_pixel():
    mask = np.ones((5, 5), dtype=bool)
    values = np.zeros((5, 5))
    values[2, 2] = 1.0
    opened = gray_open(values, mask, 1)
    assert (opened == 0.0).all()


def test_open_matches_sliding_window_oracle(rng):
    mask = small_blob(rng, size=16)
    values = np.where(mask, rng.random(mask.shape), 0.0)
    for radius in (1, 2, 3):
        assert np.array_equal(
            gray_open(values, mask, radius), gray_open_oracle(values, mask, radius)
        )


def test_reconstruct_fixpoint_cases(rng):
    mask = np.ones((6, 6), dtype=bool)
    limit = rng.random((6, 6))
    assert np.array_equal(gray_reconstruct(limit, limit, mask), limit)
    zeros = np.zeros((6, 6))
    assert np.array_equal(gray_reconstruct(zeros, limit, mask), zeros)


def test_reconstruct_requires_marker_below_limit():
    mask = np.ones((3, 3), dtype=bool)
    with pytest.raises(ValueError):
        gray_reconstruct(np.ones((3, 3)), np.zeros((3, 3)), mask)


def test_reconstruct_rejects_nan_on_the_mask():
    mask = np.ones((3, 3), dtype=bool)
    values = np.ones((3, 3))
    values[1, 1] = np.nan
    zeros = np.zeros((3, 3))
    for marker, limit in ((values, values), (zeros, values), (values, 2 * values)):
        with pytest.raises(ValueError, match="NaN"):
            gray_reconstruct(marker, limit, mask)
    # Off the mask a NaN is never read.
    mask[1, 1] = False
    assert np.array_equal(gray_reconstruct(values, values, mask), np.where(mask, 1.0, 0.0))


def test_reconstruct_matches_naive_iteration(rng):
    mask = small_blob(rng, size=12)
    limit = np.where(mask, rng.random(mask.shape), 0.0)
    marker = gray_erode(limit, mask, 1)
    assert np.array_equal(
        gray_reconstruct(marker, limit, mask),
        gray_reconstruct_oracle(marker, limit, mask),
    )


def test_zero_and_constant_objects_have_zero_spectrum():
    mask = np.zeros((8, 8), dtype=bool)
    mask[1:7, 1:7] = True
    region = region_of(mask)
    params = GranularityParams(spectrum_length=6, background_radius=3)
    for value in (0.0, 0.8):
        features = measure_granularity(region, plane_of(np.full((8, 8), value)), params)
        assert all(v == 0.0 for v in features.values())


def test_single_disk_spectrum_concentrates_at_its_radius():
    size = 32
    rr, cc = np.ogrid[:size, :size]
    disk = (rr - 16) ** 2 + (cc - 16) ** 2 <= 3**2
    mask = np.zeros((size, size), dtype=bool)
    mask[4:28, 4:28] = True
    values = np.where(disk, 1.0, 0.0)
    params = GranularityParams(spectrum_length=8, background_radius=10)
    features = measure_granularity(region_of(mask), plane_of(values), params)
    spectrum = [features[str(i)] for i in range(1, 9)]
    peak = max(range(8), key=lambda i: spectrum[i])
    # A flat radius-3 grain erodes away over steps 2..4; nothing survives.
    assert peak + 1 in (2, 3, 4)
    assert sum(spectrum[:4]) > 99.999
    assert all(abs(v) < 1e-9 for v in spectrum[4:])
    assert granularity_oracle(region_of(mask), plane_of(values), 8, 10) == features


def test_spectrum_bounds(rng):
    params = GranularityParams(spectrum_length=8, background_radius=4)
    for _ in range(5):
        mask = small_blob(rng)
        plane = ImagePlane(rng.random(mask.shape))
        features = measure_granularity(region_of(mask), plane, params)
        values = list(features.values())
        assert all(v >= -1e-9 for v in values)
        assert math.fsum(values) <= 100.0 + 1e-6


def test_intensity_scaling_leaves_spectrum_unchanged(rng):
    mask = small_blob(rng)
    values = np.where(mask, rng.random(mask.shape), 0.0)
    params = GranularityParams(spectrum_length=6, background_radius=4)
    base = measure_granularity(region_of(mask), plane_of(values), params)
    exact = measure_granularity(region_of(mask), plane_of(2.0 * values), params)
    assert exact == base  # power-of-two scaling is lossless
    scaled = measure_granularity(region_of(mask), plane_of(1.7 * values), params)
    for key, value in base.items():
        assert_close(scaled[key], value, rel=1e-9, abs_tol=1e-9, label=key)


def test_matches_naive_pipeline_exactly_on_integer_inputs(rng):
    params = GranularityParams(spectrum_length=5, background_radius=3)
    for _ in range(3):
        mask = small_blob(rng, size=20)
        plane = ImagePlane(rng.integers(0, 7, size=mask.shape).astype(float))
        region = region_of(mask)
        got = measure_granularity(region, plane, params)
        expected = granularity_oracle(region, plane, 5, 3)
        assert got == expected


# ------------------------------------------------ reconstruction, both paths


def dense_reconstruct(marker, limit, mask):
    """Whole-crop Jacobi iteration to the fixpoint: the reference for the
    sparse front."""
    cur = np.where(mask, marker, -np.inf)
    bounded = np.where(mask, limit, -np.inf)
    while True:
        grown = scipy.ndimage.maximum_filter(cur, size=3, mode="constant", cval=-np.inf)
        nxt = np.minimum(grown, bounded)
        if np.array_equal(nxt, cur):
            return np.where(mask, cur, 0.0)
        cur = nxt


@pytest.fixture
def front_calls(monkeypatch):
    """Count the reconstructions that switched to the sparse front."""
    calls = []
    inner = granularity._reconstruct_front

    def counted(*args):
        calls.append(args[0].size)
        return inner(*args)

    monkeypatch.setattr(granularity, "_reconstruct_front", counted)
    return calls


def serpentine(height, width):
    """A one-pixel corridor snaking down the crop, walls between its runs."""
    mask = np.zeros((height, width), dtype=bool)
    mask[::2, 1:-1] = True
    for i, row in enumerate(range(1, height - 1, 2)):
        mask[row, -2 if i % 2 == 0 else 1] = True
    return mask


def test_front_follows_a_long_serpentine_corridor(rng, front_calls):
    mask = serpentine(48, 48)
    assert mask.sum() >= 128 and mask.size >= granularity._SPARSE_MIN_SIZE
    limit = np.where(mask, rng.random(mask.shape), 0.0)
    marker = np.zeros_like(limit)
    marker[0, 1] = limit[0, 1]
    got = gray_reconstruct(marker, limit, mask)
    assert front_calls
    assert np.array_equal(got, dense_reconstruct(marker, limit, mask))
    # The seed's value reached the far end of the corridor, never growing.
    assert np.count_nonzero(got) == mask.sum()
    assert got.max() == limit[0, 1]


def test_front_matches_dense_and_naive_on_plateaus_holes_and_split_labels(
    rng, front_calls
):
    yy, xx = np.mgrid[:34, :40]
    disk_a = np.hypot(yy - 16, xx - 12) <= 11
    disk_b = np.hypot(yy - 17, xx - 31) <= 7
    holes = rng.random(yy.shape) < 0.08
    for mask in (disk_a | disk_b, (disk_a | disk_b) & ~holes):
        limit = np.where(mask, rng.integers(0, 4, size=mask.shape), 0).astype(float)
        for marker in (
            gray_erode(limit, mask, 1),
            np.minimum(limit, rng.integers(0, 4, size=mask.shape)),
        ):
            got = gray_reconstruct(marker, limit, mask)
            assert np.array_equal(got, dense_reconstruct(marker, limit, mask))
            assert np.array_equal(got, gray_reconstruct_oracle(marker, limit, mask))
    assert len(front_calls) == 4


def test_front_handles_one_pixel_and_one_line_objects(rng, front_calls):
    for shape in ((1, 1), (1, 1500), (1500, 1), (2, 700)):
        mask = np.ones(shape, dtype=bool)
        limit = np.round(rng.random(shape), 1) + 0.1
        marker = np.zeros(shape)
        marker[0, 0] = limit[0, 0]
        assert np.array_equal(
            gray_reconstruct(marker, limit, mask), dense_reconstruct(marker, limit, mask)
        )
    assert len(front_calls) == 3


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    height=st.integers(1, 48),
    levels=st.integers(1, 6),
    fill=st.floats(0.3, 1.0),
)
def test_front_matches_dense_iteration(seed, height, levels, fill):
    rng = np.random.default_rng(seed)
    shape = (height, -(-granularity._SPARSE_MIN_SIZE // height) + 3)
    mask = rng.random(shape) < fill
    limit = np.where(mask, rng.integers(0, levels + 1, size=shape), 0).astype(float)
    marker = np.minimum(limit, rng.integers(0, levels + 1, size=shape))
    assert np.array_equal(
        gray_reconstruct(marker, limit, mask), dense_reconstruct(marker, limit, mask)
    )


def test_large_object_spectrum_matches_footprint_pipeline(rng, front_calls):
    """measure_granularity on a crop large enough for every fast path
    equals the same pipeline built from footprint filters and the dense
    loop, bit for bit."""
    size = 72
    yy, xx = np.mgrid[:size, :size]
    mask = np.hypot(yy - 36, xx - 35) <= 33
    crop = scipy.ndimage.gaussian_filter(rng.random((size, size)), 1.5)
    params = GranularityParams()

    def erode(values, radius):
        guarded = np.where(mask, values, np.inf)
        out = scipy.ndimage.minimum_filter(
            guarded, footprint=disk_footprint(radius), mode="constant", cval=np.inf
        )
        return np.where(mask, out, 0.0)

    def dilate(values, radius):
        guarded = np.where(mask, values, -np.inf)
        out = scipy.ndimage.maximum_filter(
            guarded, footprint=disk_footprint(radius), mode="constant", cval=-np.inf
        )
        return np.where(mask, out, 0.0)

    opened = dilate(erode(crop, params.background_radius), params.background_radius)
    residue = np.where(mask, np.maximum(0.0, crop - opened), 0.0)
    start = float(residue[mask].mean())
    expected, prev, cur = {}, start, residue
    for key in map(str, range(1, params.spectrum_length + 1)):
        entering, cur = cur, erode(cur, 1)
        mean = float(dense_reconstruct(cur, entering, mask)[mask].mean())
        expected[key] = 100.0 * (prev - mean) / start
        prev = mean
    assert measure_granularity(region_of(mask), ImagePlane(crop), params) == expected
    assert front_calls


# ------------------------------------------------------------ disk filters


def test_disk_rectangles_cover_exactly_the_disk():
    for radius in range(1, 65):
        union = np.zeros((2 * radius + 1,) * 2, dtype=bool)
        for rows, cols in granularity._disk_rectangles(radius):
            assert rows % 2 == 1 and cols % 2 == 1
            r0, c0 = radius - rows // 2, radius - cols // 2
            union[r0 : r0 + rows, c0 : c0 + cols] = True
        assert np.array_equal(union, disk_footprint(radius)), radius


def test_disk_filters_equal_footprint_filters(rng):
    crops = [
        (np.ones((1, 60), dtype=bool), rng.random((1, 60))),
        (np.ones((45, 1), dtype=bool), rng.random((45, 1))),
        (rng.random((37, 52)) < 0.85, rng.random((37, 52))),
        (small_blob(rng, size=30), rng.integers(0, 5, size=(30, 30)).astype(float)),
    ]
    for radius in range(1, 26):
        footprint = disk_footprint(radius)
        for mask, values in crops:
            low = scipy.ndimage.minimum_filter(
                np.where(mask, values, np.inf), footprint=footprint,
                mode="constant", cval=np.inf,
            )
            high = scipy.ndimage.maximum_filter(
                np.where(mask, values, -np.inf), footprint=footprint,
                mode="constant", cval=-np.inf,
            )
            assert np.array_equal(gray_erode(values, mask, radius), np.where(mask, low, 0.0))
            assert np.array_equal(gray_dilate(values, mask, radius), np.where(mask, high, 0.0))
