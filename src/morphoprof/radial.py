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
    """(bin index in 1..B, wedge index in 0..7) of each object pixel, in
    ``local_mask[local_mask]`` (row-major) order."""
    # n-scaled integer deviations from the centroid keep the geometry exact.
    count, dr, dc = centered_deviations(local_mask)
    d_center = np.sqrt((dr * dr + dc * dc).astype(np.float64)) / count
    d_edge = background_distance(local_mask)

    denom = d_center + d_edge
    with np.errstate(invalid="ignore", divide="ignore"):
        rho = np.where(denom > 0, d_center / denom, 0.0)
    bin_of = np.minimum(bins, 1 + np.floor(rho * bins).astype(np.int64))

    theta = np.arctan2(dr.astype(np.float64), dc.astype(np.float64))
    wedge_of = np.floor(4.0 * (theta + np.pi) / np.pi).astype(np.int64) % WEDGES
    return bin_of, wedge_of


def measure_radial(
    region: ObjectRegion, plane: ImagePlane, params: RadialParams = RadialParams()
) -> dict[str, float]:
    """Radial distribution features, keyed ``<Stat>_<b>of<B>``."""
    bin_of, wedge_of = bin_geometry(region.local_mask, params.bins)
    values = region.crop(plane.pixels)[region.local_mask]
    count = values.size
    total = float(values.sum())

    frac, mean_frac, radial_cv = [], [], []
    for b in range(1, params.bins + 1):
        in_bin = bin_of == b
        bin_count = int(in_bin.sum())
        if total == 0.0:
            frac.append(MISSING)
            mean_frac.append(MISSING)
        else:
            frac.append(float(values[in_bin].sum()) / total)
            mean_frac.append(frac[-1] / (bin_count / count) if bin_count > 0 else MISSING)
        wedge_sums = np.bincount(
            wedge_of[in_bin], weights=values[in_bin], minlength=WEDGES
        )
        wedge_mean = float(wedge_sums.mean())
        radial_cv.append(float(wedge_sums.std()) / wedge_mean if wedge_mean != 0.0 else MISSING)
    return dict(zip(feature_keys(params), frac + mean_frac + radial_cv))
