"""Per-object colocalization statistics across an unordered channel pair.

Thresholds for the Manders fractions are a fixed fraction of each
channel's per-object maximum; degenerate inputs (zero variance, zero
mass) yield the missing sentinel rather than a crash or NaN surprise.

Each channel's crop is first scaled by the power of two 2^-e that brings
its largest magnitude into [0.5, 1) (``core._exponents``), so squares
and products stay in the float range at any finite intensity.
Multiplying by a power of two
commutes with every rounding in the normal range: Pearson, Overlap and
the Manders fractions keep their bits, and Slope is restored exactly
with ``ldexp`` (missing if it lies past the float range).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MISSING, ImagePlane, ObjectRegion, _exponents

FEATURES = ("Pearson", "Overlap", "Slope", "MandersM1", "MandersM2")


@dataclass(frozen=True)
class ColocParams:
    manders_threshold_frac: float = 0.15

    def __post_init__(self):
        if not 0.0 <= self.manders_threshold_frac < 1.0:
            raise ValueError("manders_threshold_frac must be in [0, 1)")


def measure_coloc(
    region: ObjectRegion,
    plane_a: ImagePlane,
    plane_b: ImagePlane,
    params: ColocParams = ColocParams(),
) -> dict[str, float]:
    """Colocalization features of one region over two aligned channels."""
    a = region.crop(plane_a.pixels)[region.local_mask]
    b = region.crop(plane_b.pixels)[region.local_mask]
    e_a, e_b = _exponents(a), _exponents(b)
    a, b = np.ldexp(a, -e_a), np.ldexp(b, -e_b)
    mean_a = float(a.mean())
    mean_b = float(b.mean())
    var_a = float(((a - mean_a) ** 2).mean())
    var_b = float(((b - mean_b) ** 2).mean())
    cov = float(((a - mean_a) * (b - mean_b)).mean())

    if var_a == 0.0 or var_b == 0.0:
        pearson = MISSING
    else:
        pearson = cov / math.sqrt(var_a * var_b)
    slope = cov / var_a if var_a != 0.0 else MISSING
    try:
        slope = math.ldexp(slope, int(e_b - e_a))
    except OverflowError:
        slope = MISSING

    sq_a = float((a * a).sum())
    sq_b = float((b * b).sum())
    if sq_a == 0.0 or sq_b == 0.0:
        overlap = MISSING
    else:
        overlap = float((a * b).sum()) / math.sqrt(sq_a * sq_b)

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
