"""Per-object intensity statistics for a single channel.

Statistics use the population convention (objects are complete pixel
populations, not samples) and quartiles interpolate linearly between
order statistics at h = (n - 1) * p.  Edge pixels and the centroid come
from :func:`~morphoprof.core.mask_geometry`.  The sums, means, std and
mass displacement come from the scaled values of
:func:`~morphoprof.core.object_values`, and a sum past the float range is
missing.  The median, MAD and quartiles follow the one order-statistics
rule of :func:`~morphoprof.core._median_and_mad`.  Below a largest
magnitude of 2**1021 they are taken on the values themselves, so the
quartiles keep ``np.percentile``'s bits; from there up, on the values
times at most 2**-3, where no mean of two middle values, deviation or
interpolation can overflow, and restored with ``ldexp`` (the MAD missing
past the float range).
"""

from __future__ import annotations

import math

import numpy as np

from .core import ImagePlane, ObjectRegion, _median_and_mad, _restored, mask_geometry, object_values

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
    values, scaled, exponent = object_values(region, plane)
    on_edge = scaled[geometry.edge]
    part, shift, median, mad = _median_and_mad(values, exponent)
    lower, upper = np.percentile(part, [25, 75]).tolist()

    centroid_r = float(geometry.row_sum) / geometry.count
    centroid_c = float(geometry.col_sum) / geometry.count
    mass = float(scaled.sum())
    if mass == 0.0:
        displacement = 0.0
    else:
        weighted_r = float((geometry.rows * scaled).sum()) / mass
        weighted_c = float((geometry.cols * scaled).sum()) / mass
        displacement = math.hypot(weighted_r - centroid_r, weighted_c - centroid_c)

    return {
        "IntegratedIntensity": _restored(mass, exponent),
        "MeanIntensity": math.ldexp(float(scaled.mean()), exponent),
        "MedianIntensity": math.ldexp(median, shift),
        "StdIntensity": math.ldexp(float(scaled.std()), exponent),
        "MinIntensity": float(values.min()),
        "MaxIntensity": float(values.max()),
        "MADIntensity": _restored(mad, shift),
        "LowerQuartile": math.ldexp(lower, shift),
        "UpperQuartile": math.ldexp(upper, shift),
        "IntegratedIntensityEdge": _restored(float(on_edge.sum()), exponent),
        "MeanIntensityEdge": math.ldexp(float(on_edge.mean()), exponent),
        "MassDisplacement": displacement,
    }
