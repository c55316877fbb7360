"""Tessellating hexagonal label masks and coverage-based selection.

The lattice is pointy-top with circumradius R and origin at pixel
(0, 0): hexagon (i, j) is centered at column sqrt(3)*R*(i + 0.5*(j % 2))
and row 1.5*R*j.  Every pixel center belongs to exactly one hexagon.
Ties are resolved by scan order: each pixel's candidate hexagons are
visited in ascending (j, i) and only a strictly closer one replaces the
current owner, so a boundary pixel goes to the lexicographically smaller
lattice index, hence the smaller label.  Candidates are scanned one block
of rows at a time, which bounds the temporaries; a pixel meets them in the
same order in any block, so the tie rule is unchanged.  The hexagons that
own at least one pixel are labeled densely from 1 in (j, i) lattice order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabelMask, _check_fraction


@dataclass(frozen=True)
class HexGridParams:
    width: int
    height: int
    circumradius: float

    def __post_init__(self):
        if self.width < 1 or self.height < 1:
            raise ValueError("canvas dims must be positive")
        # Pixel centers are 1 apart, so below 0.5 a hexagon bins at most one
        # pixel; an infinite radius leaves no lattice to scan.
        if not 0.5 <= self.circumradius < math.inf:
            raise ValueError(f"circumradius must be finite and >= 0.5, got {self.circumradius}")


def hex_metric(d_row: np.ndarray, d_col: np.ndarray, circumradius: float) -> np.ndarray:
    """Normalized containment metric for a pointy-top hexagon at the origin.

    <= 1 inside or on the hexagon, with 1 exactly on the boundary.
    """
    r = circumradius
    ax = np.abs(d_col)
    ay = np.abs(d_row)
    return np.maximum(ax / (math.sqrt(3.0) / 2.0 * r), (ax + math.sqrt(3.0) * ay) / (math.sqrt(3.0) * r))


#: Pixels per row block of the candidate scan, which bounds its temporaries.
_BLOCK_PIXELS = 2**14


def hex_tessellation(params: HexGridParams) -> LabelMask:
    """Labeled hexagonal partition of the canvas; every pixel gets a label."""
    r = params.circumradius
    height, width = params.height, params.width
    cols = np.arange(width, dtype=np.float64)[None, :]
    best_j = np.empty((height, width), dtype=np.int64)
    best_i = np.empty((height, width), dtype=np.int64)
    step = max(1, _BLOCK_PIXELS // width)
    for top in range(0, height, step):
        rows = np.arange(top, min(top + step, height), dtype=np.float64)[:, None]
        band = slice(top, top + step)
        # 3x3 lattice neighborhood around each pixel's nearest (j, i) estimate;
        # the owning hexagon's center is always within one lattice step.
        j_base = np.rint(rows / (1.5 * r)).astype(np.int64)
        best_metric = np.full((rows.size, width), np.inf)
        # Each pixel's nine candidates are scanned in ascending (j, i), so
        # strict improvement alone keeps the lowest lattice index on ties.
        for dj in (-1, 0, 1):
            j_cand = j_base + dj
            center_row = 1.5 * r * j_cand
            parity = 0.5 * (j_cand % 2)
            i_base = np.rint(cols / (math.sqrt(3.0) * r) - parity).astype(np.int64)
            for di in (-1, 0, 1):
                i_cand = i_base + di
                center_col = math.sqrt(3.0) * r * (i_cand + parity)
                metric = hex_metric(rows - center_row, cols - center_col, r)
                take = metric < best_metric
                np.copyto(best_metric, metric, where=take)
                np.copyto(best_j[band], j_cand, where=take)
                np.copyto(best_i[band], i_cand, where=take)

    # Dense (j, i) rank: flat lattice indices sort like (j, i) pairs.  With
    # circumradius >= 0.5 the owners' lattice box is a small multiple of the
    # canvas: under 3 times on small canvases, about 1.5 times on large ones.
    j0, i0 = int(best_j.min()), int(best_i.min())
    ni = int(best_i.max()) - i0 + 1
    flat = ((best_j - j0) * ni + (best_i - i0)).ravel()
    labels = np.cumsum(np.bincount(flat) > 0)[flat]
    return LabelMask(labels.reshape(height, width))


def filter_by_coverage(
    hex_mask: LabelMask, foreground: LabelMask, min_coverage: float
) -> LabelMask:
    """Zero out hexagons whose fraction of foreground pixels is below the
    threshold in [0, 1]; survivors keep their labels."""
    _check_fraction("min_coverage", min_coverage)
    if hex_mask.labels.shape != foreground.labels.shape:
        raise ValueError(
            f"foreground dims {foreground.width}x{foreground.height} do not match "
            f"hexagon dims {hex_mask.width}x{hex_mask.height}"
        )
    labels = hex_mask.labels.ravel()
    # Ranked labels, so no bin array outgrows the mask whatever the label values.
    bins = np.unique(labels, return_inverse=True)[1]
    totals = np.bincount(bins)
    covered = np.bincount(bins, weights=foreground.labels.ravel() > 0)
    keep = covered / totals >= min_coverage
    # Background stays 0 whatever its bin decides.
    return LabelMask(np.where(keep[bins], labels, 0).reshape(hex_mask.labels.shape))
