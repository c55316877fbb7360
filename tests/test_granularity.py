import math
import time

import numpy as np
import pytest
import scipy.ndimage
from conftest import plane_of, region_of
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    disk_footprint,
    granularity_float64_reference,
    granularity_oracle,
    gray_erode_oracle,
    gray_open_oracle,
    gray_reconstruct_oracle,
)
from peakrss import probe_peaks

from morphoprof import GranularityParams, ImagePlane, measure_granularity
from morphoprof import granularity
from synth import small_blob
from test_invariance import check_scale, inputs


# The kernels on guarded buffers, as measure_granularity runs them, with
# off-mask output 0.


def disk_filter(values, mask, radius, op):
    """Masked erosion (np.minimum) or dilation (np.maximum) by a disk."""
    guard = np.inf if op is np.minimum else -np.inf
    out = np.empty(mask.shape)
    padded = granularity._guarded(values[mask], mask, radius, guard)
    granularity._disk_filter(padded, radius, op, out)
    return np.where(mask, out, 0.0)


def opening(values, mask, radius):
    eroded = disk_filter(values, mask, radius, np.minimum)
    return disk_filter(eroded, mask, radius, np.maximum)


def reconstruct(marker, limit, mask):
    """Reconstruction by dilation of marker under limit."""
    state = granularity._guarded(marker[mask], mask, 1, -np.inf)
    granularity._reconstruct(state, granularity._guarded(limit[mask], mask, 1, -np.inf))
    return np.where(mask, state[1:-1, 1:-1], 0.0)


def test_open_leaves_constant_unchanged():
    mask = np.ones((5, 5), dtype=bool)
    values = np.full((5, 5), 0.4)
    assert np.array_equal(opening(values, mask, 2), values)
    # Nothing is left above the background, so nothing is measured.
    spectrum = measure_granularity(region_of(mask), plane_of(values), GranularityParams(4, 2))
    assert list(spectrum.values()) == [0.0] * 4


def test_open_flattens_single_bright_pixel():
    mask = np.ones((5, 5), dtype=bool)
    values = np.zeros((5, 5))
    values[2, 2] = 1.0
    opened = opening(values, mask, 1)
    assert (opened == 0.0).all()
    # The whole pixel is residue, and the first erosion takes it.
    spectrum = measure_granularity(region_of(mask), plane_of(values), GranularityParams(3, 1))
    assert spectrum == {"1": 100.0, "2": 0.0, "3": 0.0}


def test_open_matches_sliding_window_oracle(rng):
    mask = small_blob(rng, size=16)
    values = np.where(mask, rng.random(mask.shape), 0.0)
    region, plane = region_of(mask), plane_of(values)
    for radius in (1, 2, 3):
        expected = gray_open_oracle(values, mask, radius)
        assert np.array_equal(opening(values, mask, radius), expected)
        got = measure_granularity(region, plane, GranularityParams(3, radius))
        assert got == granularity_oracle(region, plane, 3, radius)


def test_reconstruct_fixpoint_cases(rng):
    mask = np.ones((6, 6), dtype=bool)
    limit = rng.random((6, 6))
    assert np.array_equal(reconstruct(limit, limit, mask), limit)
    zeros = np.zeros((6, 6))
    assert np.array_equal(reconstruct(zeros, limit, mask), zeros)


def test_reconstruct_matches_naive_iteration(rng):
    mask = small_blob(rng, size=12)
    limit = np.where(mask, rng.random(mask.shape), 0.0)
    marker = disk_filter(limit, mask, 1, np.minimum)
    assert np.array_equal(
        reconstruct(marker, limit, mask),
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


def test_a_pixel_at_the_top_of_the_float_range_loses_all_of_its_mass_in_step_one():
    # The percentage 100 * (prev_mean - mean) / start overflowed to inf
    # before its division once the means passed about 1.8e306.
    values = np.zeros((5, 5))
    values[2, 2] = 1e308
    got = measure_granularity(
        region_of(np.ones((5, 5), dtype=bool)), plane_of(values), GranularityParams(3, 1)
    )
    assert got == {"1": 100.0, "2": 0.0, "3": 0.0}


def test_a_step_never_records_more_than_100_percent():
    # The step's percentage read 100.00000000000001 here: the object loses
    # all of its mass in step one, and rounding carried the ratio past 100.
    values = [[0.9996441451276826, 0.21268992699940736]]
    got = measure_granularity(region_of(np.ones((1, 2), dtype=bool)), plane_of(values))
    assert got["1"] == 100.0
    assert all(v <= 100.0 for v in got.values())


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), e=st.integers(-1000, 1023), mixed=st.booleans())
@example(seed=0, e=1023, mixed=False)
@example(seed=0, e=1023, mixed=True)
def test_power_of_two_scaling_changes_no_bit_of_granularity(seed, e, mixed):
    """Every step of a plane x 2^e is bitwise the unit plane's, up to the top
    of the float range and for mixed signs: the spectrum is a ratio."""
    check_scale("granularity", GranularityParams(6, 2), *inputs(seed, False, mixed), (e,))


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
    got = reconstruct(marker, limit, mask)
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
            disk_filter(limit, mask, 1, np.minimum),
            np.minimum(limit, rng.integers(0, 4, size=mask.shape)),
        ):
            got = reconstruct(marker, limit, mask)
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
            reconstruct(marker, limit, mask), dense_reconstruct(marker, limit, mask)
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
        reconstruct(marker, limit, mask), dense_reconstruct(marker, limit, mask)
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


def test_steps_after_the_erosion_settles_run_no_reconstruction(monkeypatch):
    """Once an erosion changes nothing, no later one can: that step and the
    steps after it reconstruct nothing, the later ones record 0.0, and the
    spectrum is the naive pipeline's, which runs every step."""
    rng = np.random.default_rng(5)
    mask = small_blob(rng, size=12)
    values = np.where(mask, rng.random(mask.shape), 0.0)
    region, plane = region_of(mask), plane_of(values)
    # The first step whose erosion leaves the naive pipeline's image as it was.
    opened = gray_open_oracle(values, mask, 3)
    image = np.where(mask, np.maximum(0.0, values - opened), 0.0)
    for step in range(1, 21):
        eroded = np.where(mask, gray_erode_oracle(image, mask, 1), 0.0)
        if np.array_equal(eroded, image):
            break
        image = eroded
    assert 2 <= step < 20
    calls = []
    inner = granularity._reconstruct

    def counted(state, limit):
        calls.append(state.size)
        return inner(state, limit)

    monkeypatch.setattr(granularity, "_reconstruct", counted)
    got = measure_granularity(region, plane, GranularityParams(20, 3))
    assert len(calls) == step - 1
    assert got == granularity_oracle(region, plane, 20, 3)
    assert all(got[str(k)] == 0.0 for k in range(step + 1, 21))


@pytest.mark.parametrize("radius", [1, 2, 10])
def test_64_step_spectra_equal_the_float64_reference_bit_for_bit(rng, monkeypatch, radius):
    """Long spectra settle well before their last step; every step after
    that is still bitwise the reference's, which runs them all."""
    calls = []
    inner = granularity._reconstruct

    def counted(state, limit):
        calls.append(state.size)
        return inner(state, limit)

    yy, xx = np.mgrid[:72, :72]
    disk = np.hypot(yy - 36, xx - 35) <= 33
    holes = rng.random(disk.shape) < 0.05
    smooth = scipy.ndimage.gaussian_filter(rng.random(disk.shape), 1.5)
    blob = small_blob(rng, size=20)
    params = GranularityParams(64, radius)
    for mask, values in (
        (disk, smooth),
        (disk & ~holes, rng.integers(0, 5, size=disk.shape) / 4),
        (blob, rng.random(blob.shape)),
    ):
        region, plane = region_of(mask), plane_of(values)
        want = granularity_float64_reference(region, plane, params)
        calls.clear()
        monkeypatch.setattr(granularity, "_reconstruct", counted)
        got = measure_granularity(region, plane, params)
        monkeypatch.undo()
        assert 0 < len(calls) < 64
        assert spectrum_bits(got) == spectrum_bits(want)


def test_granularity_memory_is_bounded_by_a_few_crops():
    # The crop of a radius-160 disk is 805 KiB; 7 MiB is about nine
    # crop-sized arrays.
    before, after = probe_peaks("granularity", 160)
    added_kib = after - before
    assert added_kib < 7 * 1024, f"measure_granularity added {added_kib} KiB"


# ------------------------------------------------------------- rank keys


def spectrum_bits(spectrum):
    return [value.hex() for value in spectrum.values()]


@settings(max_examples=200, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    height=st.integers(1, 30),
    width=st.integers(1, 30),
    radius=st.sampled_from([1, 2, 5, 10, 60]),
    fill=st.floats(0.3, 1.0),
    levels=st.sampled_from([0, 1, 3, 40]),
    signs=st.sampled_from(["positive", "mixed", "both zeros"]),
    e=st.sampled_from([0, -1000, 1000]),
)
@example(seed=1, height=1, width=30, radius=60, fill=1.0, levels=3, signs="both zeros", e=0)
@example(seed=2, height=30, width=1, radius=2, fill=1.0, levels=0, signs="mixed", e=1000)
@example(seed=3, height=30, width=30, radius=5, fill=0.6, levels=1, signs="both zeros", e=-1000)
def test_rank_keys_change_no_bit_of_the_float64_spectrum(
    seed, height, width, radius, fill, levels, signs, e
):
    """Crops with holes, 1 x n and n x 1 crops, ties (few levels), zeros of
    both signs, mixed signs and planes x 2^+-1000: the spectrum on rank keys
    is bitwise the one on float64 values."""
    rng = np.random.default_rng(seed)
    mask = rng.random((height, width)) < fill
    mask[rng.integers(height), rng.integers(width)] = True
    if levels:
        values = rng.integers(0, levels + 1, size=mask.shape) / levels
    else:
        values = rng.random(mask.shape)
    if signs == "mixed":
        values = 2 * values - 1
    elif signs == "both zeros":  # -values turns 0.0 into -0.0
        values = np.where(rng.random(mask.shape) < 0.5, -values, values)
    region, plane = region_of(mask), plane_of(np.ldexp(values, e))
    params = GranularityParams(6, radius)
    got = measure_granularity(region, plane, params)
    assert spectrum_bits(got) == spectrum_bits(
        granularity_float64_reference(region, plane, params)
    )


def test_rank_keys_are_int16_below_32767_distinct_values():
    for count, dtype in ((32766, np.int16), (32767, np.int32)):
        values = np.arange(count, 0, -1) / 7
        ranks, table, top, bottom = granularity._ranks(values)
        assert ranks.dtype == dtype and np.array_equal(table[ranks], values)
        assert top == np.iinfo(dtype).max and bottom == np.iinfo(dtype).min
        assert bottom < ranks.min() and ranks.max() < top
    # Zeros of both signs compare equal and share a rank.
    ranks, table, _, _ = granularity._ranks(np.array([0.0, 1.0, -0.0, -1.0]))
    assert ranks.tolist() == [1, 2, 1, 0] and table.tolist() == [-1.0, 0.0, 1.0]


def test_rank_keys_take_int32_past_32767_distinct_values(rng, monkeypatch):
    dtypes = []
    ranks = granularity._ranks

    def recorded(values):
        keys = ranks(values)
        dtypes.append(keys[0].dtype)
        return keys

    monkeypatch.setattr(granularity, "_ranks", recorded)
    mask = np.ones((250, 250), dtype=bool)
    mask[::7, ::5] = False
    region, plane = region_of(mask), plane_of(rng.random(mask.shape))
    params = GranularityParams(8, 10)
    got = measure_granularity(region, plane, params)
    assert dtypes == [np.int32, np.int32]  # the values, then the residue
    assert spectrum_bits(got) == spectrum_bits(
        granularity_float64_reference(region, plane, params)
    )


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


def test_disk_rows_keep_a_few_radii_whatever_the_crop_sizes(rng):
    # The opening's radius is min(background_radius, height + width): past
    # every crop, each crop size has its own disk, and the cache keeps only
    # the last few of them.
    params = GranularityParams(spectrum_length=2, background_radius=10**6)
    for size in range(1, 41):
        plane = plane_of(rng.random((size, size)))
        measure_granularity(region_of(np.ones((size, size), dtype=bool)), plane, params)
    assert granularity._disk_rows.cache_info().currsize <= 16


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
            assert np.array_equal(disk_filter(values, mask, radius, np.minimum), low)
            assert np.array_equal(disk_filter(values, mask, radius, np.maximum), high)


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
    assert np.array_equal(disk_filter(values, mask, radius, np.minimum), low)
    assert np.array_equal(disk_filter(values, mask, radius, np.maximum), high)


def test_a_radius_past_the_crop_costs_no_more_than_one_that_covers_it(rng):
    # Every offset within a crop lies in the disk of radius height + width.
    # The cost used to grow as about R**3, and a radius of 10**6 asked for a
    # (2 * 10**6)**2 buffer.
    mask = np.zeros((6, 6), dtype=bool)
    mask[2:4, 2:4] = True
    region, plane = region_of(mask), ImagePlane(rng.random(mask.shape))
    # A 3 x 5 crop with holes, its mask touching every edge.
    local = rng.random((3, 5)) < 0.7
    local[[0, -1], :] = local[:, [0, -1]] = True
    holed = np.zeros((6, 8), dtype=bool)
    holed[1:4, 2:7] = local
    holed_region, holed_plane = region_of(holed), ImagePlane(rng.random(holed.shape))
    start = time.perf_counter()
    spectra = [
        np.array(list(measure_granularity(region, plane, GranularityParams(3, r)).values()))
        for r in (4, 10**6)
    ]
    assert spectra[0].tobytes() == spectra[1].tobytes()
    crop = holed_plane.pixels[1:4, 2:7]
    for r in (8, 10**6):
        got = measure_granularity(holed_region, holed_plane, GranularityParams(3, r))
        # scipy's footprint filters with a disk past the crop, unclamped.
        assert got == footprint_pipeline(local, crop, GranularityParams(3, 40))
    assert time.perf_counter() - start < 2.0
