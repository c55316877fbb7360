import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy.ndimage
from conftest import assert_close, plane_of, region_of
from hypothesis import example, given, settings
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


def footprint_filters(values, mask, radius):
    """Masked erosion and dilation from scipy's footprint filters."""
    footprint = disk_footprint(radius)
    low = scipy.ndimage.minimum_filter(
        np.where(mask, values, np.inf), footprint=footprint, mode="constant", cval=np.inf
    )
    high = scipy.ndimage.maximum_filter(
        np.where(mask, values, -np.inf), footprint=footprint, mode="constant", cval=-np.inf
    )
    return np.where(mask, low, 0.0), np.where(mask, high, 0.0)


def footprint_pipeline(mask, crop, params):
    """The spectrum from scipy footprint filters and the dense loop."""
    radius = params.background_radius
    opened = footprint_filters(footprint_filters(crop, mask, radius)[0], mask, radius)[1]
    residue = np.where(mask, np.maximum(0.0, crop - opened), 0.0)
    start = float(residue[mask].mean())
    expected, prev, cur = {}, start, residue
    for key in map(str, range(1, params.spectrum_length + 1)):
        entering, cur = cur, footprint_filters(cur, mask, 1)[0]
        mean = float(dense_reconstruct(cur, entering, mask)[mask].mean())
        expected[key] = 100.0 * (prev - mean) / start
        prev = mean
    return expected


def test_large_object_spectrum_matches_footprint_pipeline(rng, front_calls):
    """measure_granularity equals the same pipeline built from footprint
    filters and the dense loop, bit for bit: on a crop large enough for
    every fast path, and on a blob whose crop stays below the sparse front's
    minimum size."""
    params = GranularityParams()
    size = 72
    yy, xx = np.mgrid[:size, :size]
    mask = np.hypot(yy - 36, xx - 35) <= 33
    crop = scipy.ndimage.gaussian_filter(rng.random((size, size)), 1.5)
    got = measure_granularity(region_of(mask), ImagePlane(crop), params)
    assert got == footprint_pipeline(mask, crop, params)
    assert front_calls

    front_calls.clear()
    mask = small_blob(rng, size=30)
    assert mask.size < granularity._SPARSE_MIN_SIZE
    crop = scipy.ndimage.gaussian_filter(rng.random(mask.shape), 1.0)
    got = measure_granularity(region_of(mask), ImagePlane(crop), params)
    assert got == footprint_pipeline(mask, crop, params)
    assert any(got.values()) and not front_calls


def test_granularity_memory_is_bounded_by_a_few_crops():
    # A fresh interpreter, so ru_maxrss reflects this one call.  The crop of
    # a radius-160 disk is 805 KiB; 8 MiB is about ten crop-sized arrays.
    probe = Path(__file__).parent / "granprobe.py"
    out = subprocess.run(
        [sys.executable, str(probe), "160"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    added_kib = int(out.stdout.strip())
    assert added_kib < 8 * 1024, f"measure_granularity added {added_kib} KiB"


# ------------------------------------------------------------ disk filters


def test_disk_rows_rebuild_the_disk():
    for radius in range(1, 65):
        disk = np.zeros((2 * radius + 1,) * 2, dtype=bool)
        seen = []
        for half, (reach, rows) in enumerate(granularity._disk_rows(radius)):
            for dr in rows:
                disk[radius + dr, radius - half : radius + half + 1] = True
            seen.extend(rows)
            wide = np.flatnonzero(disk_footprint(radius).sum(axis=1) >= 2 * half + 1)
            assert reach == radius - wide[0] == wide[-1] - radius, (radius, half)
        assert sorted(seen) == list(range(-radius, radius + 1)), radius
        assert np.array_equal(disk, disk_footprint(radius)), radius


def test_disk_filters_equal_footprint_filters(rng):
    crops = [
        (np.ones((1, 60), dtype=bool), rng.random((1, 60))),
        (np.ones((45, 1), dtype=bool), rng.random((45, 1))),
        (rng.random((37, 52)) < 0.85, rng.random((37, 52))),
        (small_blob(rng, size=30), rng.integers(0, 5, size=(30, 30)).astype(float)),
    ]
    for radius in range(1, 26):
        for mask, values in crops:
            low, high = footprint_filters(values, mask, radius)
            assert np.array_equal(gray_erode(values, mask, radius), low)
            assert np.array_equal(gray_dilate(values, mask, radius), high)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    height=st.integers(1, 40),
    width=st.integers(1, 40),
    radius=st.integers(1, 25),
    fill=st.floats(0.2, 1.0),
    border=st.booleans(),
    levels=st.integers(1, 1000),
)
@example(seed=1, height=1, width=40, radius=25, fill=1.0, border=True, levels=1000)
@example(seed=2, height=40, width=1, radius=25, fill=1.0, border=True, levels=1000)
@example(seed=3, height=1, width=1, radius=1, fill=1.0, border=True, levels=5)
@example(seed=4, height=3, width=5, radius=25, fill=0.5, border=True, levels=3)
@example(seed=5, height=2, width=40, radius=3, fill=0.4, border=False, levels=2)
def test_disk_filters_equal_footprint_filters_everywhere(
    seed, height, width, radius, fill, border, levels
):
    """Any crop shape (1 x n and n x 1 too), any radius (larger than the
    crop too), masks with holes and masks touching every edge."""
    rng = np.random.default_rng(seed)
    mask = rng.random((height, width)) < fill
    if border:
        mask[[0, -1], :] = True
        mask[:, [0, -1]] = True
    values = rng.integers(0, levels, size=mask.shape) / levels
    low, high = footprint_filters(values, mask, radius)
    assert np.array_equal(gray_erode(values, mask, radius), low)
    assert np.array_equal(gray_dilate(values, mask, radius), high)


def test_a_radius_past_the_crop_costs_no_more_than_one_that_covers_it(rng):
    # Every offset within a crop lies in the disk of radius height + width.
    # The cost used to grow as about R**3, and a radius of 10**6 asked for a
    # (2 * 10**6)**2 buffer.
    mask = np.zeros((6, 6), dtype=bool)
    mask[2:4, 2:4] = True
    region, plane = region_of(mask), ImagePlane(rng.random(mask.shape))
    values, local = rng.random((3, 5)), rng.random((3, 5)) < 0.7
    local[[0, -1], :] = local[:, [0, -1]] = True
    start = time.perf_counter()
    spectra = [
        np.array(list(measure_granularity(region, plane, GranularityParams(3, r)).values()))
        for r in (4, 10**6)
    ]
    assert spectra[0].tobytes() == spectra[1].tobytes()
    for op in (gray_erode, gray_dilate, gray_open):
        assert op(values, local, 10**6).tobytes() == op(values, local, 8).tobytes()
    assert time.perf_counter() - start < 2.0
