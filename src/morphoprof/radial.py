"""Radial intensity distribution over normalized-radius bins and wedges.

Each object pixel's normalized radius rho and angular wedge come from
:func:`~morphoprof.core.mask_geometry`.  Bins partition [0, 1) into B
equal slices of rho; the wedges feed the per-bin coefficient of variation.
Every feature is a ratio of the scaled values of
:func:`~morphoprof.core.object_values`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import MISSING, WEDGES, ImagePlane, ObjectRegion, _check_int, mask_geometry, object_values

STATS = ("FracAtD", "MeanFrac", "RadialCV")


@dataclass(frozen=True)
class RadialParams:
    bins: int = 4

    def __post_init__(self):
        object.__setattr__(self, "bins", _check_int("bins", self.bins, 1, 64))


def feature_keys(params: RadialParams = RadialParams()) -> list[str]:
    return [f"{stat}_{b}of{params.bins}" for stat in STATS for b in range(1, params.bins + 1)]


def measure_radial(
    region: ObjectRegion, plane: ImagePlane, params: RadialParams = RadialParams()
) -> dict[str, float]:
    """Radial distribution features, keyed ``<Stat>_<b>of<B>``."""
    geometry = mask_geometry(region)
    bin_of = np.minimum(params.bins, 1 + np.floor(geometry.rho * params.bins).astype(np.int64))
    _, values, _ = object_values(region, plane)
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
            mean_frac.append(frac[-1] / (bin_count / geometry.count) if bin_count > 0 else MISSING)
        wedge_sums = np.bincount(geometry.wedge[in_bin], weights=values[in_bin], minlength=WEDGES)
        wedge_mean = float(wedge_sums.mean())
        radial_cv.append(float(wedge_sums.std()) / wedge_mean if wedge_mean != 0.0 else MISSING)
    return dict(zip(feature_keys(params), frac + mean_frac + radial_cv))
