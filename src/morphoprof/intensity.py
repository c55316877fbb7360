"""Per-object intensity statistics for a single channel.

Statistics use the population convention (objects are complete pixel
populations, not samples) and quartiles interpolate linearly between
order statistics at h = (n - 1) * p.  Edge pixels and the centroid come
from :func:`~morphoprof.core.mask_geometry`.  The sums, means, std and
mass displacement come from the scaled values of
:func:`~morphoprof.core.object_values`, and a sum past the float range is
missing.  The median, MAD and quartiles are taken on the values
themselves: at scale the quartiles lost their bit-for-bit match with
``np.percentile``.  On a plane whose largest magnitude reaches 2**1021
the median and MAD are taken at a scale of at most 2**-3, where neither
the mean of the two middle values nor a deviation can overflow.
"""

from __future__ import annotations

import math

import numpy as np

from .core import ImagePlane, ObjectRegion, _restored, mask_geometry, object_values

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


def _median_and_mad(values: np.ndarray, exponent: int) -> tuple[float, float]:
    """The median and the median absolute deviation from it.  From a largest
    magnitude of 2**1021 up, the mean of the two middle values or a
    deviation can overflow, so both are taken on the values times
    2**-(exponent - 1021), at most 2**-3, and restored (the MAD missing past
    the float range).  That moves no value of 2**-1019 or more below the
    normal range, so each keeps its bits."""
    shift = max(0, exponent - 1021)
    part = np.ldexp(values, -shift) if shift else values
    median = float(np.median(part))
    mad = float(np.median(np.abs(part - median)))
    return math.ldexp(median, shift), _restored(mad, shift)


def measure_intensity(region: ObjectRegion, plane: ImagePlane) -> dict[str, float]:
    """Intensity statistics of one region, keyed by bare feature name."""
    geometry = mask_geometry(region)
    values, scaled, exponent = object_values(region, plane)
    on_edge = geometry.edge[geometry.mask]
    median, mad = _median_and_mad(values, exponent)
    lower, upper = np.percentile(values, [25, 75]).tolist()

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
        "IntegratedIntensity": _restored(float(scaled.sum()), exponent),
        "MeanIntensity": math.ldexp(float(scaled.mean()), exponent),
        "MedianIntensity": median,
        "StdIntensity": math.ldexp(float(scaled.std()), exponent),
        "MinIntensity": float(values.min()),
        "MaxIntensity": float(values.max()),
        "MADIntensity": mad,
        "LowerQuartile": lower,
        "UpperQuartile": upper,
        "IntegratedIntensityEdge": _restored(float(scaled[on_edge].sum()), exponent),
        "MeanIntensityEdge": math.ldexp(float(scaled[on_edge].mean()), exponent),
        "MassDisplacement": displacement,
    }
