import math
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import hex_tessellation_oracle

from morphoprof import HexGridParams, LabelMask, filter_by_coverage, hex_tessellation
from morphoprof.tessellate import hex_metric


def brute_force_assignment(height, width, radius):
    """Per-pixel scan over a generous lattice window; lowest (j, i) wins ties."""
    assignment = {}
    j_lo = math.floor(-2 - radius)
    j_hi = math.ceil((height + radius) / (1.5 * radius)) + 2
    i_hi = math.ceil((width + radius) / (math.sqrt(3) * radius)) + 2
    for r in range(height):
        for c in range(width):
            best = None
            for j in range(j_lo, j_hi):
                for i in range(j_lo, i_hi):
                    cy = 1.5 * radius * j
                    cx = math.sqrt(3) * radius * (i + 0.5 * (j % 2))
                    metric = float(hex_metric(np.float64(r - cy), np.float64(c - cx), radius))
                    key = (metric, j, i)
                    if best is None or key < best:
                        best = key
            assignment[(r, c)] = (best[1], best[2])
    return assignment


def test_every_pixel_gets_exactly_one_label(rng):
    for _ in range(5):
        params = HexGridParams(
            width=int(rng.integers(3, 40)),
            height=int(rng.integers(3, 40)),
            circumradius=float(rng.uniform(1.5, 9.0)),
        )
        mask = hex_tessellation(params)
        assert (mask.labels > 0).all()
        labels = np.unique(mask.labels)
        assert labels[0] == 1
        assert labels[-1] == labels.size  # dense from 1


def test_single_pixel_canvas():
    mask = hex_tessellation(HexGridParams(width=1, height=1, circumradius=4.0))
    assert mask.labels.tolist() == [[1]]


def test_assignment_matches_brute_force_oracle():
    params = HexGridParams(width=30, height=26, circumradius=4.0)
    mask = hex_tessellation(params)
    expected = brute_force_assignment(26, 30, 4.0)
    # Dense labels follow (j, i) order, so equal partitions imply equal labels.
    keys = sorted(set(expected.values()))
    label_of = {key: n + 1 for n, key in enumerate(keys)}
    for (r, c), key in expected.items():
        assert mask.labels[r, c] == label_of[key], (r, c)


def test_boundary_ties_go_to_the_lowest_lattice_index():
    # sqrt(3) * R = 2 puts every odd pixel column on a hexagon edge: about a
    # third of the pixel centers are equidistant from two hexagons.
    radius = 2 / math.sqrt(3)
    mask = hex_tessellation(HexGridParams(width=24, height=20, circumradius=radius))
    expected = brute_force_assignment(20, 24, radius)
    label_of = {key: n + 1 for n, key in enumerate(sorted(set(expected.values())))}
    for (r, c), key in expected.items():
        assert mask.labels[r, c] == label_of[key], (r, c)


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 120), st.integers(1, 120), st.floats(0.5, 40))
@example(40, 30, 0.5)  # the smallest radius accepted
@example(1, 28, 0.5)  # lattice box 2.6 times the canvas, the most among small canvases
@example(300, 1, 5.0)  # one row tall
@example(1, 300, 5.0)  # one column wide
@example(100, 400, 3.7)  # row blocks of 163 rows, the last one partial
@example(64, 48, 0.5)  # lattice rows 0.75 px apart, closer than pixel rows
@example(7, 3000, 100.0)  # a tall strip over two row blocks
def test_labels_match_the_sorted_lattice_ranking(width, height, radius):
    mask = hex_tessellation(HexGridParams(width=width, height=height, circumradius=radius))
    assert np.array_equal(mask.labels, hex_tessellation_oracle(height, width, radius))


def test_tessellation_memory_is_bounded_by_row_blocks():
    # A fresh interpreter, so ru_maxrss reflects this one call.
    probe = Path(__file__).parent / "hexprobe.py"
    out = subprocess.run(
        [sys.executable, str(probe), "1024", "1024", "24"],
        capture_output=True, text=True, check=True, timeout=120,
    )
    added_kib = int(out.stdout.strip())
    assert added_kib < 64 * 1024, f"hex_tessellation added {added_kib} KiB"


def test_interior_hexagon_pixel_counts_near_analytic_area():
    radius = 10.0
    params = HexGridParams(width=100, height=100, circumradius=radius)
    mask = hex_tessellation(params)
    # Interior hexagons: none of their pixels touch the canvas border.
    border = np.unique(
        np.concatenate(
            [mask.labels[0], mask.labels[-1], mask.labels[:, 0], mask.labels[:, -1]]
        )
    )
    counts = np.bincount(mask.labels.ravel())
    analytic = 3.0 * math.sqrt(3.0) / 2.0 * radius * radius
    interior = [
        counts[label]
        for label in range(1, counts.size)
        if label not in border and counts[label] > 0
    ]
    assert len(interior) >= 10
    for count in interior:
        assert abs(count - analytic) / analytic <= 0.04


def test_coverage_filter_thresholds(rng):
    params = HexGridParams(width=40, height=40, circumradius=5.0)
    hexes = hex_tessellation(params)
    fg = np.zeros((40, 40), dtype=np.int64)
    fg[:, :20] = 1
    foreground = LabelMask(fg)
    all_kept = filter_by_coverage(hexes, foreground, 0.0)
    assert np.array_equal(all_kept.labels, hexes.labels)
    strict = filter_by_coverage(hexes, foreground, 1.0)
    survivors = set(np.unique(strict.labels).tolist()) - {0}
    for label in survivors:
        assert (fg[hexes.labels == label] > 0).all()


def test_coverage_filter_matches_per_label_tally(rng):
    # Dense hexagon labels, then background plus labels near the top of the
    # RAWU32 range: either way survivors keep their labels.
    hexes = hex_tessellation(HexGridParams(width=32, height=32, circumradius=4.0)).labels
    fg = (rng.random((32, 32)) < 0.4).astype(np.int64)
    tau = 0.45
    sparse = np.where(hexes % 3 == 0, 0, hexes + 2**32 - 100)
    for labels in (hexes, sparse):
        filtered = filter_by_coverage(LabelMask(labels), LabelMask(fg), tau).labels
        assert (filtered[labels == 0] == 0).all()
        for label in np.unique(labels[labels > 0]):
            inside = labels == label
            frac = fg[inside].sum() / inside.sum()
            expected = label if frac >= tau else 0
            assert (filtered[inside] == expected).all()


def test_coverage_monotone_in_threshold(rng):
    params = HexGridParams(width=48, height=48, circumradius=4.5)
    hexes = hex_tessellation(params)
    fg = LabelMask((rng.random((48, 48)) < 0.5).astype(np.int64))
    survivors = []
    for tau in (0.0, 0.25, 0.5, 0.75, 1.0):
        filtered = filter_by_coverage(hexes, fg, tau)
        survivors.append(set(np.unique(filtered.labels).tolist()) - {0})
    for smaller, larger in zip(survivors[1:], survivors[:-1]):
        assert smaller <= larger


def test_lattice_period_translation_permutes_survivors(rng):
    # Vertical lattice period is 3R (two hexagon rows); R = 10 makes it a
    # whole-pixel shift.  Interior foreground far from the border maps onto
    # congruent hexagons, so the survivor count is preserved.
    radius = 10.0
    period = int(3 * radius)
    params = HexGridParams(width=120, height=150, circumradius=radius)
    hexes = hex_tessellation(params)
    fg = np.zeros((150, 120), dtype=np.int64)
    fg[40:70, 35:85] = (rng.random((30, 50)) < 0.7).astype(np.int64)
    shifted = np.roll(fg, period, axis=0)
    base = filter_by_coverage(hexes, LabelMask(fg), 0.4)
    moved = filter_by_coverage(hexes, LabelMask(shifted), 0.4)
    base_set = set(np.unique(base.labels).tolist()) - {0}
    moved_set = set(np.unique(moved.labels).tolist()) - {0}
    assert len(base_set) == len(moved_set)
    base_sizes = sorted(int((base.labels == l).sum()) for l in base_set)
    moved_sizes = sorted(int((moved.labels == l).sum()) for l in moved_set)
    assert base_sizes == moved_sizes


def test_dim_mismatch_rejected():
    hexes = hex_tessellation(HexGridParams(width=10, height=10, circumradius=3.0))
    with pytest.raises(ValueError, match="dims"):
        filter_by_coverage(hexes, LabelMask(np.ones((9, 10), dtype=np.int64)), 0.5)


#: The largest circumradius R whose lattice step sqrt(3)*R is finite.
LARGEST_RADIUS = sys.float_info.max / math.sqrt(3.0)


@pytest.mark.parametrize(
    "radius",
    [0.0, 1e-30, 0.05, 0.3, 0.35, math.nextafter(0.5, 0),
     math.nextafter(LARGEST_RADIUS, math.inf), 1.5e308, math.inf, math.nan],
)
def test_radius_below_half_a_pixel_or_not_finite_is_rejected(radius):
    # Below 0.5 a hexagon bins at most one pixel, and 1e-30 used to wrap the
    # int64 lattice cast into a wrong partition; inf gave a scrambled one,
    # and 1.5e308 (sqrt(3)*R overflows) left every owner unset.
    with pytest.raises(ValueError, match="circumradius"):
        HexGridParams(width=40, height=30, circumradius=radius)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("radius", [1e308, LARGEST_RADIUS])
def test_largest_radii_give_one_hexagon_without_overflow_warnings(radius):
    # Candidates whose centers overflow to infinity lose, silently.
    mask = hex_tessellation(HexGridParams(width=5, height=4, circumradius=radius))
    assert mask.labels.tolist() == [[1] * 5] * 4


def test_param_validation():
    with pytest.raises(ValueError):
        HexGridParams(width=0, height=5, circumradius=3.0)
    hexes = hex_tessellation(HexGridParams(width=20, height=20, circumradius=3.0))
    tissue = LabelMask(np.ones((20, 20), dtype=np.int64))
    for min_coverage in (1.5, math.nan, -1.0):
        with pytest.raises(ValueError, match="min_coverage"):
            filter_by_coverage(hexes, tissue, min_coverage)


def test_coverage_cost_does_not_scale_with_label_value():
    labels = np.zeros((64, 64), dtype=np.int64)
    labels[10, 20] = 4_000_000
    labels[30:40, 5:15] = 17
    fg = np.zeros((64, 64), dtype=np.int64)
    fg[10, 20] = fg[30:34, 5:15] = 1
    hexes, tissue = LabelMask(labels), LabelMask(fg)
    tracemalloc.start()
    try:
        kept = filter_by_coverage(hexes, tissue, 0.5)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2**20
    assert np.array_equal(kept.labels, np.where(labels == 4_000_000, labels, 0))
