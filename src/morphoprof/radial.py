"""Radial intensity distribution over normalized-radius bins and wedges.

Each object pixel gets a normalized radius rho = Dc / (Dc + De), where
Dc is the distance to the object centroid and De the distance to the
nearest non-object pixel; rho is 0 when both are 0.  Bins partition
[0, 1) into B equal slices; eight angular wedges of pi/4 start at angle
-pi around the centroid and feed the per-bin coefficient of variation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    MISSING,
    ImagePlane,
    ObjectRegion,
    background_distance,
    centered_deviations,
)

WEDGES = 8

STATS = ("FracAtD", "MeanFrac", "RadialCV")


@dataclass(frozen=True)
class RadialParams:
    bins: int = 4

    def __post_init__(self):
        if self.bins < 1:
            raise ValueError("bins must be >= 1")


def feature_keys(params: RadialParams = RadialParams()) -> list[str]:
    return [f"{stat}_{b}of{params.bins}" for stat in STATS for b in range(1, params.bins + 1)]


def bin_geometry(local_mask: np.ndarray, bins: int) -> tuple[np.ndarray, np.ndarray]:
    """(bin index in 1..B, wedge index in 0..7) for each object pixel.

    Returned arrays have the local shape; off-object entries are 0 for
    bins and -1 for wedges.
    """
    # n-scaled integer deviations from the centroid keep the geometry exact.
    count, dr, dc = centered_deviations(local_mask)
    d_center = np.sqrt((dr * dr + dc * dc).astype(np.float64)) / count
    d_edge = background_distance(local_mask)[local_mask]

    denom = d_center + d_edge
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0, d_center / denom, 0.0)
    bin_of = np.minimum(bins, 1 + np.floor(rho * bins).astype(np.int64))

    theta = np.arctan2(dr.astype(np.float64), dc.astype(np.float64))
    wedge_of = np.floor(4.0 * (theta + np.pi) / np.pi).astype(np.int64) % WEDGES

    bin_grid = np.zeros(local_mask.shape, dtype=np.int64)
    wedge_grid = np.full(local_mask.shape, -1, dtype=np.int64)
    bin_grid[local_mask] = bin_of
    wedge_grid[local_mask] = wedge_of
    return bin_grid, wedge_grid


def measure_radial(
    region: ObjectRegion, plane: ImagePlane, params: RadialParams = RadialParams()
) -> dict[str, float]:
    """Radial distribution features, keyed ``<Stat>_<b>of<B>``."""
    local_mask = region.local_mask
    bins = params.bins
    bin_grid, wedge_grid = bin_geometry(local_mask, bins)
    bin_of = bin_grid[local_mask]
    wedge_of = wedge_grid[local_mask]
    values = region.crop(plane.pixels)[local_mask]
    count = values.size
    total = float(values.sum())

    frac, mean_frac, radial_cv = {}, {}, {}
    for b in range(1, bins + 1):
        in_bin = bin_of == b
        bin_count = int(in_bin.sum())
        pixel_frac = bin_count / count
        if total == 0.0:
            frac[b] = MISSING
            mean_frac[b] = MISSING
        else:
            frac[b] = float(values[in_bin].sum()) / total
            mean_frac[b] = frac[b] / pixel_frac if bin_count > 0 else MISSING
        wedge_sums = np.bincount(
            wedge_of[in_bin], weights=values[in_bin], minlength=WEDGES
        )
        wedge_mean = float(wedge_sums.mean())
        radial_cv[b] = float(wedge_sums.std()) / wedge_mean if wedge_mean != 0.0 else MISSING

    out = {}
    for stat, table in (("FracAtD", frac), ("MeanFrac", mean_frac), ("RadialCV", radial_cv)):
        for b in range(1, bins + 1):
            out[f"{stat}_{b}of{bins}"] = table[b]
    return out
