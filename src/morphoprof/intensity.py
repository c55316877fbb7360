"""Per-object intensity statistics for a single channel.

Statistics use the population convention (objects are complete pixel
populations, not samples) and quartiles interpolate linearly between
order statistics at h = (n - 1) * p.  Edge pixels are the crack
boundary: object pixels with at least one 4-neighbor outside the mask.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ImagePlane, ObjectRegion, _exponents, edge_mask

FEATURES = (
    "IntegratedIntensity",
    "MeanIntensity",
    "MedianIntensity",
    "StdIntensity",
    "MinIntensity",
    "MaxIntensity",
    "MADIntensity",
    "LowerQuartile",
    "UpperQuartile",
    "IntegratedIntensityEdge",
    "MeanIntensityEdge",
    "MassDisplacement",
)


def measure_intensity(region: ObjectRegion, plane: ImagePlane) -> dict[str, float]:
    """Intensity statistics of one region, keyed by bare feature name."""
    local_mask = region.local_mask
    crop = region.crop(plane.pixels)
    values = crop[local_mask]
    # The std squares deviations: take it at a power-of-two scale where the
    # squares stay in range, then restore that scale exactly.
    exponent = int(_exponents(values))
    std = math.ldexp(float(np.ldexp(values, -exponent).std()), exponent)
    median = float(np.median(values))
    edge_values = crop[edge_mask(local_mask)]

    rr, cc = np.nonzero(local_mask)
    count = rr.size
    centroid_r = float(int(rr.astype(np.int64, copy=False).sum())) / count
    centroid_c = float(int(cc.astype(np.int64, copy=False).sum())) / count
    total = float(values.sum())
    if total == 0.0:
        displacement = 0.0
    else:
        weighted_r = float((rr * values).sum()) / total
        weighted_c = float((cc * values).sum()) / total
        displacement = math.hypot(weighted_r - centroid_r, weighted_c - centroid_c)

    return {
        "IntegratedIntensity": total,
        "MeanIntensity": float(values.mean()),
        "MedianIntensity": median,
        "StdIntensity": std,
        "MinIntensity": float(values.min()),
        "MaxIntensity": float(values.max()),
        "MADIntensity": float(np.median(np.abs(values - median))),
        "LowerQuartile": float(np.percentile(values, 25)),
        "UpperQuartile": float(np.percentile(values, 75)),
        "IntegratedIntensityEdge": float(edge_values.sum()),
        "MeanIntensityEdge": float(edge_values.mean()),
        "MassDisplacement": displacement,
    }
