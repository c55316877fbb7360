"""Per-object intensity statistics for a single channel.

Statistics use the population convention (objects are complete pixel
populations, not samples) and quartiles interpolate linearly between
order statistics at h = (n - 1) * p.  Edge pixels and the centroid come
from :func:`~morphoprof.core.mask_geometry`.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ImagePlane, ObjectRegion, _exponents, mask_geometry

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
    geometry = mask_geometry(region)
    crop = region.crop(plane.pixels)
    values = crop[geometry.mask]
    # The std squares deviations: take it at a power-of-two scale where the
    # squares stay in range, then restore that scale exactly.
    exponent = int(_exponents(values))
    std = math.ldexp(float(np.ldexp(values, -exponent).std()), exponent)
    median = float(np.median(values))
    lower, upper = np.percentile(values, [25, 75]).tolist()
    edge_values = crop[geometry.edge]

    centroid_r = float(geometry.row_sum) / geometry.count
    centroid_c = float(geometry.col_sum) / geometry.count
    total = float(values.sum())
    if total == 0.0:
        displacement = 0.0
    else:
        weighted_r = float((geometry.rows * values).sum()) / total
        weighted_c = float((geometry.cols * values).sum()) / total
        displacement = math.hypot(weighted_r - centroid_r, weighted_c - centroid_c)

    return {
        "IntegratedIntensity": total,
        "MeanIntensity": float(values.mean()),
        "MedianIntensity": median,
        "StdIntensity": std,
        "MinIntensity": float(values.min()),
        "MaxIntensity": float(values.max()),
        "MADIntensity": float(np.median(np.abs(values - median))),
        "LowerQuartile": lower,
        "UpperQuartile": upper,
        "IntegratedIntensityEdge": float(edge_values.sum()),
        "MeanIntensityEdge": float(edge_values.mean()),
        "MassDisplacement": displacement,
    }
