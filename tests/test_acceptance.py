"""Acceptance suite: every criterion prints one PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as
they complete.  Criterion 1 runs a full 512x512 / 500-object experiment
across a (workers, batch_size) matrix, so the suite takes a minute or so.
"""

import contextlib
import hashlib
import math
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
import scipy
from conftest import assert_close, region_of, row_of
from oracles import (
    coloc_oracle,
    granularity_oracle,
    intensity_oracle,
    radial_oracle,
    shape_oracle,
    texture_oracle,
    zernike_terms,
)
from peakrss import probe_peaks
from synth import experiment, small_blob, smooth_plane
from test_invariance import FAMILIES, check_rotation, check_scale_close, check_translation

import morphoprof as mp
from morphoprof import run, write_table
from morphoprof.engine import REGISTRY
from morphoprof.texture import FEATURES as TEXTURE_FEATURES


@contextlib.contextmanager
def criterion(number, name):
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {number} {name}: FAIL")
        raise
    print(f"ACCEPTANCE {number} {name}: PASS")


#: sha256 of the criterion-1 baseline CSV, keyed like the bench's pins by the
#: Python, numpy and scipy versions and numpy's widest SIMD target, because
#: vectorized math can round differently elsewhere.
W1_SHA256 = {
    "python=3.11.7 numpy=2.4.6 scipy=1.17.1 simd=AVX512_SPR":
        "3a8416650fed093cdd0b2372783a341a0eebf1807a328e7f8b106ebe3556d9d8",
}


def _versions_key():
    try:
        from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__
        simd = ([f for f in __cpu_dispatch__ if __cpu_features__.get(f)] or ["baseline"])[-1]
    except ImportError:
        simd = "unknown"
    return (f"python={platform.python_version()} numpy={np.__version__} "
            f"scipy={scipy.__version__} simd={simd}")


@pytest.fixture(scope="module")
def w1_baseline(tmp_path_factory):
    """(seconds, table, CSV bytes) of the single-threaded criterion-1 run."""
    started = time.perf_counter()
    (table,) = run(experiment(n_objects=500, size=512, seed=42, workers=1, batch_size=10**9))
    elapsed = time.perf_counter() - started
    path = tmp_path_factory.mktemp("w1") / "reference.csv"
    write_table(table, path)
    return elapsed, table, path.read_bytes()


def test_criterion_1_determinism_and_runtime(tmp_path, w1_baseline):
    with criterion(1, "byte-determinism across workers/batching, <60s single-threaded"):
        elapsed, baseline, expected = w1_baseline
        assert elapsed < 60.0, f"single-threaded run took {elapsed:.1f}s"
        assert baseline.n_rows == 500
        for workers in (1, 4, 8):
            for batch_size in (1, 7, 10**9):
                if workers == 1 and batch_size == 10**9:
                    continue  # the baseline
                spec = experiment(
                    n_objects=500, size=512, seed=42, workers=workers, batch_size=batch_size
                )
                (table,) = run(spec)
                path = tmp_path / f"w{workers}_b{batch_size}.csv"
                write_table(table, path)
                assert path.read_bytes() == expected, (workers, batch_size)


def test_criterion_1_csv_digest_is_pinned(w1_baseline):
    pinned = W1_SHA256.get(_versions_key())
    if pinned is None:
        pytest.skip(f"no W1 digest pinned for {_versions_key()}")
    with criterion(1, "the baseline CSV matches its pinned sha256"):
        assert hashlib.sha256(w1_baseline[2]).hexdigest() == pinned


def test_bytes_but_texture_do_not_depend_on_avx512_dispatch(tmp_path):
    """A reduced criterion-1 run of every family but texture gives the same
    CSV with numpy's AVX-512 dispatch switched off in a subprocess.  Texture
    is the site left open: its np.log2 rounds by SIMD target and changed two
    InfoMeas cells of the bench's seed-0 many-small table."""
    from numpy._core._multiarray_umath import __cpu_dispatch__, __cpu_features__

    if "X86_V4" not in __cpu_dispatch__ or not __cpu_features__.get("X86_V4"):
        pytest.skip("numpy dispatches no X86_V4 (AVX-512) code here")
    import simdprobe

    simdprobe.write_inputs(experiment(n_objects=100, size=256, seed=42), tmp_path)
    # Names from numpy 2.4, whose AVX-512 base target is X86_V4; it ignores
    # the older AVX512_SKX, AVX512_CLX and AVX512_CNL.
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="X86_V4 AVX512_ICL AVX512_SPR")
    out = subprocess.run(
        [sys.executable, str(Path(simdprobe.__file__)), str(tmp_path)],
        env=env, capture_output=True, text=True, check=True, timeout=300,
    )
    switched_off = dict(line.split() for line in out.stdout.splitlines())
    here = simdprobe.digests(tmp_path)
    assert switched_off.pop("arctan2") != here.pop("arctan2"), "the switch took no effect"
    assert switched_off == here


def _oracle_cases(n_cases=50, seed=2024):
    rng = np.random.default_rng(seed)
    for _ in range(n_cases):
        mask = small_blob(rng, size=32)
        plane_a = mp.ImagePlane(rng.random((32, 32)))
        plane_b = mp.ImagePlane(rng.random((32, 32)))
        integer_plane = mp.ImagePlane(rng.integers(0, 9, size=(32, 32)).astype(float))
        yield region_of(mask), plane_a, plane_b, integer_plane


def test_criterion_2_oracle_equivalence():
    with criterion(2, "every family matches its naive reference on 50 random objects"):
        granularity_params = mp.GranularityParams(spectrum_length=8, background_radius=5)
        for region, plane_a, plane_b, integer_plane in _oracle_cases():
            for got, want in (
                (mp.measure_shape(region), shape_oracle(region)),
                (mp.measure_intensity(region, plane_a), intensity_oracle(region, plane_a)),
                (
                    mp.measure_texture(region, plane_a),
                    texture_oracle(region, plane_a, 1, 8),
                ),
                (
                    mp.measure_radial(region, plane_a),
                    radial_oracle(region, plane_a, 4),
                ),
                (
                    mp.measure_coloc(region, plane_a, plane_b),
                    coloc_oracle(region, plane_a, plane_b, 0.15),
                ),
            ):
                assert set(got) == set(want)
                for key in want:
                    assert_close(got[key], want[key], rel=1e-9, abs_tol=1e-9, label=key)
            exact = mp.measure_granularity(region, integer_plane, granularity_params)
            naive = granularity_oracle(region, integer_plane, 8, 5)
            assert exact == naive, "granularity must be exact on integer inputs"


def test_criterion_3_invariance_suites():
    with criterion(3, "translation/scaling/rotation invariance suites"):
        rng = np.random.default_rng(7)
        config = mp.ExperimentSpec()

        # Translation: every family with its configured params, as TRANSLATION says.
        for _ in range(5):
            blob = small_blob(rng)
            planes = [smooth_plane(*blob.shape, rng) for _ in "ab"]
            h, w = blob.shape
            big_mask, big = np.zeros((h + 30, w + 30), dtype=bool), np.zeros((2, h + 30, w + 30))
            big_mask[3 : 3 + h, 5 : 5 + w], big[:, 3 : 3 + h, 5 : 5 + w] = blob, planes
            for family in REGISTRY:
                check_translation(family.name, family.params(config), big_mask, big, (9, 13))

        # Scaling by 2.7, not a power of two, within each family's tolerance.
        for _ in range(3):
            blob = small_blob(rng)
            planes = [smooth_plane(*blob.shape, rng) for _ in "ab"]
            for name, abs_tol in (("intensity", 1e-12), ("granularity", 1e-10),
                                  ("radial", 1e-12), ("coloc", 1e-12)):
                params = FAMILIES[name].params(config)
                check_scale_close(name, params, blob, planes, (2.7, 1.0), 1e-12, abs_tol)

        # Quarter rotations, as ROTATION says.  One blob is drawn and not
        # used, so that these examples keep their blobs.
        small_blob(rng)
        for _ in range(5):
            blob = small_blob(rng)
            values = smooth_plane(*blob.shape, rng)
            for family in REGISTRY:
                for turns in (1, 2, 3):
                    check_rotation(family.name, family.params(config), blob, [values, values],
                                   turns)

        # Zernike magnitudes: rotation invariance within 2% on rasterized disks.
        size = 121
        rr, cc = np.ogrid[:size, :size]

        def disk_at(angle):
            cy = 60 + 20 * math.sin(angle)
            cx = 60 + 20 * math.cos(angle)
            return mp.measure_shape(region_of((rr - cy) ** 2 + (cc - cx) ** 2 <= 18.0**2))

        base = disk_at(0.0)
        for angle in (0.5, 1.3, 2.4):
            rotated = disk_at(angle)
            assert_close(rotated["Zernike_0_0"], base["Zernike_0_0"], rel=0.02)
            for n, m in zernike_terms(9):
                key = f"Zernike_{n}_{m}"
                assert abs(rotated[key] - base[key]) < 0.03, key


def test_criterion_4_degenerate_inputs(tmp_path):
    with criterion(4, "degenerate inputs produce specified values, no NaN leakage"):
        size = 48
        mask = np.zeros((size, size), dtype=np.int64)
        mask[5:11, 5:11] = 1      # constant-intensity object
        mask[20, 20] = 2          # single-pixel object
        mask[30:36, 30:36] = 3    # zero-intensity object
        chan_a = np.zeros((size, size))
        chan_a[5:11, 5:11] = 0.5
        chan_a[20, 20] = 0.25
        chan_b = np.full((size, size), 0.125)
        spec = mp.ExperimentSpec(
            channels=(("DNA", mp.ImagePlane(chan_a)), ("RNA", mp.ImagePlane(chan_b))),
            object_sets=(("cells", mp.LabelMask(mask)),),
        )
        (table,) = run(spec)
        path = tmp_path / "degenerate.csv"
        write_table(table, path)
        text = path.read_text()
        assert "nan" not in text.lower()
        assert np.all(np.isfinite(table.values) | np.isnan(table.values))

        constant = row_of(table, 1)
        assert constant["cells_Texture_AngularSecondMoment_DNA_d1_g8"] == 1.0
        assert constant["cells_Texture_Contrast_DNA_d1_g8"] == 0.0
        assert constant["cells_Intensity_StdIntensity_DNA"] == 0.0
        assert math.isnan(constant["cells_Coloc_Pearson_DNA_RNA"])
        for b in range(1, 5):
            assert constant[f"cells_RadialDistribution_MeanFrac_DNA_{b}of4"] in (1.0,) or math.isnan(
                constant[f"cells_RadialDistribution_MeanFrac_DNA_{b}of4"]
            )
        assert all(constant[f"cells_Granularity_{i}_DNA"] == 0.0 for i in range(1, 17))

        single = row_of(table, 2)
        assert single["cells_Shape_Area"] == 1.0
        assert single["cells_Shape_MajorAxisLength"] == 0.0
        assert all(
            math.isnan(single[f"cells_Texture_{name}_DNA_d1_g8"])
            for name in TEXTURE_FEATURES
        )

        dark = row_of(table, 3)
        assert dark["cells_Intensity_IntegratedIntensity_DNA"] == 0.0
        assert dark["cells_Intensity_MassDisplacement_DNA"] == 0.0
        assert all(
            math.isnan(dark[f"cells_RadialDistribution_FracAtD_DNA_{b}of4"])
            for b in range(1, 5)
        )
        assert math.isnan(dark["cells_Coloc_MandersM1_DNA_RNA"])

        with pytest.raises(mp.SpecValidationError):
            mp.ExperimentSpec(
                channels=(("DNA", mp.ImagePlane(chan_a)),),
                object_sets=(("cells", mp.LabelMask(mask)),),
                families=("coloc",),
            )


def test_criterion_5_compare_harness_calibration(tmp_path):
    with criterion(5, "compare harness: self R2=1, analytic SNR within 0.02"):
        spec = experiment(n_objects=40, size=128, seed=5)
        (table,) = run(spec)
        report = mp.compare_tables(table, table)
        assert len(report.fits) == len(table.columns)
        assert all(fit.r2 == 1.0 for fit in report.fits)
        assert report.fraction_above == 1.0

        rng = np.random.default_rng(55)
        n = 10_000
        targets = {"f1": 0.99, "f2": 0.95, "f3": 0.8, "f4": 0.5}
        base_cols = {}
        noisy_cols = {}
        for name, r2 in targets.items():
            x = rng.standard_normal(n)
            sigma = math.sqrt((1.0 - r2) / r2)
            base_cols[name] = x
            noisy_cols[name] = x + sigma * rng.standard_normal(n)
        labels = np.arange(1, n + 1)
        table_a = mp.FeatureTable(
            "cells", tuple(targets), labels, np.column_stack(list(base_cols.values()))
        )
        table_b = mp.FeatureTable(
            "cells", tuple(targets), labels, np.column_stack(list(noisy_cols.values()))
        )
        report = mp.compare_tables(table_a, table_b)
        for fit in report.fits:
            assert_close(fit.r2, targets[fit.feature], rel=0, abs_tol=0.02, label=fit.feature)
        assert report.fraction_above == 0.5  # two of four targets exceed 0.9
        out = tmp_path / "report.csv"
        mp.write_report(report, out)
        assert out.read_text().splitlines()[-1] == "fraction_r2_gt_0.9=0.5"


def test_criterion_6_streaming_memory_bound():
    with criterion(6, "peak RSS at 5000 objects within 20% of 500 objects"):
        # The whole process's peak, inputs included, not what the run adds.
        small, large = (probe_peaks("run", n, timeout=540)[1] for n in (500, 5000))
        assert large <= 1.2 * small, f"500 objects: {small} KiB, 5000 objects: {large} KiB"


def test_criterion_7_tessellation():
    with criterion(7, "hexagon partition, interior areas within 4%, filter monotone"):
        rng = np.random.default_rng(77)
        for _ in range(10):
            params = mp.HexGridParams(
                width=int(rng.integers(8, 80)),
                height=int(rng.integers(8, 80)),
                circumradius=float(rng.uniform(2.0, 12.0)),
            )
            labels = mp.hex_tessellation(params).labels
            assert (labels > 0).all()
            present = np.unique(labels)
            assert present[0] == 1 and present[-1] == present.size

        radius = 10.0
        mask = mp.hex_tessellation(
            mp.HexGridParams(width=140, height=140, circumradius=radius)
        )
        border = np.unique(
            np.concatenate(
                [mask.labels[0], mask.labels[-1], mask.labels[:, 0], mask.labels[:, -1]]
            )
        )
        counts = np.bincount(mask.labels.ravel())
        analytic = 1.5 * math.sqrt(3.0) * radius * radius
        interior = [
            counts[label]
            for label in range(1, counts.size)
            if label not in border and counts[label] > 0
        ]
        assert len(interior) >= 20
        for count in interior:
            assert abs(count - analytic) / analytic <= 0.04

        hexes = mp.hex_tessellation(mp.HexGridParams(width=64, height=64, circumradius=5.0))
        fg = mp.LabelMask((rng.random((64, 64)) < 0.5).astype(np.int64))
        previous = None
        for tau in np.linspace(0.0, 1.0, 6):
            kept = set(np.unique(mp.filter_by_coverage(hexes, fg, float(tau)).labels).tolist())
            kept.discard(0)
            if previous is not None:
                assert kept <= previous
            previous = kept


def test_criterion_8_postprocessing():
    with criterion(8, "robust standardize to 1e-12; correlation filter exhaustive"):
        spec = experiment(n_objects=60, size=128, seed=8)
        (table,) = run(spec)
        standardized = mp.robust_standardize(table, drop_missing_frac=0.2)
        assert len(standardized.columns) > 50
        for j in range(len(standardized.columns)):
            col = standardized.values[:, j]
            med = float(np.median(col))
            mad = float(np.median(np.abs(col - med)))
            assert abs(med) <= 1e-12
            assert abs(1.4826 * mad - 1.0) <= 1e-12
        threshold = 0.9
        filtered = mp.correlation_filter(standardized, threshold)
        assert 0 < len(filtered.columns) < len(standardized.columns)
        n_cols = len(filtered.columns)
        for i in range(n_cols):
            for j in range(i + 1, n_cols):
                x, y = filtered.values[:, i], filtered.values[:, j]
                if x.std() == 0 or y.std() == 0:
                    continue
                corr = abs(float(np.corrcoef(x, y)[0, 1]))
                assert corr <= threshold + 1e-12, (filtered.columns[i], filtered.columns[j])