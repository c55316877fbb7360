"""Per-object colocalization statistics across an unordered channel pair.

Thresholds for the Manders fractions are a fixed fraction of each
channel's per-object maximum; degenerate inputs (zero variance, zero
mass) yield the missing sentinel rather than a crash or NaN surprise.
Pearson and Overlap are clamped to [-1, 1], which rounding could leave
by one unit in the last place.
Both channels' values are taken at the power-of-two scale of
:func:`~morphoprof.core.object_values`; Slope alone is restored, and is
missing if it lies past the float range.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import MISSING, ImagePlane, ObjectRegion, _check_real, _restored, object_values

FEATURES = ("Pearson", "Overlap", "Slope", "MandersM1", "MandersM2")


@dataclass(frozen=True)
class ColocParams:
    manders_threshold_frac: float = 0.15

    def __post_init__(self):
        tau = _check_real("manders_threshold_frac", self.manders_threshold_frac, 0.0, 1.0)
        if tau == 1.0:
            raise ValueError("manders_threshold_frac must be in [0, 1)")
        object.__setattr__(self, "manders_threshold_frac", tau)


def measure_coloc(
    region: ObjectRegion,
    plane_a: ImagePlane,
    plane_b: ImagePlane,
    params: ColocParams = ColocParams(),
) -> dict[str, float]:
    """Colocalization features of one region over two aligned channels."""
    _, a, e_a = object_values(region, plane_a)
    _, b, e_b = object_values(region, plane_b)
    mean_a = float(a.mean())
    mean_b = float(b.mean())
    var_a = float(((a - mean_a) ** 2).mean())
    var_b = float(((b - mean_b) ** 2).mean())
    cov = float(((a - mean_a) * (b - mean_b)).mean())

    if var_a == 0.0 or var_b == 0.0:
        pearson = MISSING
    else:
        pearson = min(1.0, max(-1.0, cov / math.sqrt(var_a * var_b)))
    slope = _restored(cov / var_a, e_b - e_a) if var_a != 0.0 else MISSING

    sq_a = float((a * a).sum())
    sq_b = float((b * b).sum())
    if sq_a == 0.0 or sq_b == 0.0:
        overlap = MISSING
    else:
        overlap = min(1.0, max(-1.0, float((a * b).sum()) / math.sqrt(sq_a * sq_b)))

    tau = params.manders_threshold_frac
    thresh_a = tau * float(a.max())
    thresh_b = tau * float(b.max())
    sum_a = float(a.sum())
    sum_b = float(b.sum())
    m1 = float(a[b > thresh_b].sum()) / sum_a if sum_a != 0.0 else MISSING
    m2 = float(b[a > thresh_a].sum()) / sum_b if sum_b != 0.0 else MISSING

    return {
        "Pearson": pearson,
        "Overlap": overlap,
        "Slope": slope,
        "MandersM1": m1,
        "MandersM2": m2,
    }
