"""Haralick texture features from object-restricted co-occurrence matrices.

Intensities are quantized per object into equal-width bins between the
object's min and max; the level grid holds -1 off the object, so it alone
says which pixels pair up.  One symmetric GLCM is built for each of the
four standard directions at the configured distance, and the 13 classic
Haralick statistics are averaged over the directions that produced at
least one pixel pair.  A direction whose offset reaches past the bbox
has none, so at a distance of at least the bbox's height and width (or
on a single pixel) every value is missing.  Entropies use log base 2
with 0*log(0) = 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MISSING, ImagePlane, ObjectRegion, _check_int

FEATURES = (
    "AngularSecondMoment",
    "Contrast",
    "Correlation",
    "Variance",
    "InverseDifferenceMoment",
    "SumAverage",
    "SumVariance",
    "SumEntropy",
    "Entropy",
    "DifferenceVariance",
    "DifferenceEntropy",
    "InfoMeas1",
    "InfoMeas2",
)


@dataclass(frozen=True)
class TextureParams:
    distance: int = 1
    gray_levels: int = 8

    def __post_init__(self):
        distance = _check_int("texture distance", self.distance, 1)
        levels = _check_int("gray_levels", self.gray_levels, 2, 256)
        object.__setattr__(self, "distance", distance)
        object.__setattr__(self, "gray_levels", levels)


def directions(distance: int) -> tuple[tuple[int, int], ...]:
    """Pair offsets (drow, dcol) for 0, 45, 90 and 135 degrees."""
    d = distance
    return ((0, d), (-d, d), (-d, 0), (-d, -d))


def quantize(region: ObjectRegion, plane: ImagePlane, gray_levels: int) -> np.ndarray:
    """Per-pixel gray level in {0..G-1} on the region's bbox; -1 off-object.

    Bins are equal-width between the object's min and max intensity; a
    constant object maps entirely to level 0.
    """
    local_mask = region.local_mask
    values = region.crop(plane.pixels)[local_mask]
    lo = float(values.min())
    hi = float(values.max())
    levels = np.full(local_mask.shape, -1, dtype=np.int32)
    if hi == lo:
        levels[local_mask] = 0
        return levels
    scaled = np.floor(gray_levels * (values - lo) / (hi - lo))
    levels[local_mask] = np.minimum(gray_levels - 1, scaled).astype(np.int32)
    return levels


def glcm(levels: np.ndarray, offset: tuple[int, int], gray_levels: int) -> np.ndarray:
    """Symmetric normalized co-occurrence matrix of ``levels`` for one offset.

    ``levels`` is a :func:`quantize` result, so the object is where
    ``levels >= 0``.  Counts pairs (p, p + offset) with both pixels in the
    object, adds the transpose and normalizes to sum 1; with no pairs the
    ``gray_levels`` x ``gray_levels`` matrix is all-zero.
    """
    dr, dc = offset
    h, w = levels.shape
    r0, r1 = max(0, -dr), min(h, h - dr)
    c0, c1 = max(0, -dc), min(w, w - dc)
    if r0 >= r1 or c0 >= c1:  # the offset reaches past the crop
        return np.zeros((gray_levels, gray_levels))
    a = levels[r0:r1, c0:c1]
    b = levels[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
    both = (a >= 0) & (b >= 0)
    counts = np.bincount(a[both] * gray_levels + b[both], minlength=gray_levels * gray_levels)
    counts = counts.reshape(gray_levels, gray_levels)
    counts = counts + counts.T
    return counts / max(int(counts.sum()), 1)


def haralick_features(p: np.ndarray) -> dict[str, float]:
    """The 13 Haralick statistics of one normalized symmetric GLCM."""
    g = p.shape[0]
    idx = np.arange(g, dtype=np.float64)
    px = p.sum(axis=1)
    py = p.sum(axis=0)
    mu_x = float((idx * px).sum())
    mu_y = float((idx * py).sum())
    var_x = float(((idx - mu_x) ** 2 * px).sum())
    var_y = float(((idx - mu_y) ** 2 * py).sum())
    std_x = math.sqrt(var_x)
    std_y = math.sqrt(var_y)

    i_idx = idx[:, None]
    j_idx = idx[None, :]
    diff2 = (i_idx - j_idx) ** 2

    # Distributions of i+j (k = 0..2G-2) and |i-j| (k = 0..G-1).
    ij_sum = np.add.outer(np.arange(g), np.arange(g))
    ij_diff = np.abs(np.subtract.outer(np.arange(g), np.arange(g)))
    p_sum = np.bincount(ij_sum.ravel(), weights=p.ravel(), minlength=2 * g - 1)
    p_diff = np.bincount(ij_diff.ravel(), weights=p.ravel(), minlength=g)
    k_sum = np.arange(2 * g - 1, dtype=np.float64)
    k_diff = np.arange(g, dtype=np.float64)

    sum_average = float((k_sum * p_sum).sum())
    sum_variance = float(((k_sum - sum_average) ** 2 * p_sum).sum())
    diff_mean = float((k_diff * p_diff).sum())
    diff_variance = float(((k_diff - diff_mean) ** 2 * p_diff).sum())

    if std_x == 0.0 or std_y == 0.0:
        correlation = 0.0
    else:
        correlation = (float((i_idx * j_idx * p).sum()) - mu_x * mu_y) / (std_x * std_y)

    hxy = _entropy(p)
    marg = px[:, None] * py[None, :]
    nz = p > 0
    hxy1 = -float((p[nz] * np.log2(marg[nz])).sum())
    hxy2 = _entropy(marg)
    hx = _entropy(px)
    hy = _entropy(py)
    denom = max(hx, hy)
    info1 = 0.0 if denom == 0.0 else (hxy - hxy1) / denom
    info2 = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy))))

    return {
        "AngularSecondMoment": float((p * p).sum()),
        "Contrast": float((diff2 * p).sum()),
        "Correlation": correlation,
        "Variance": var_x,
        "InverseDifferenceMoment": float((p / (1.0 + diff2)).sum()),
        "SumAverage": sum_average,
        "SumVariance": sum_variance,
        "SumEntropy": _entropy(p_sum),
        "Entropy": hxy,
        "DifferenceVariance": diff_variance,
        "DifferenceEntropy": _entropy(p_diff),
        "InfoMeas1": info1,
        "InfoMeas2": info2,
    }


def _entropy(dist: np.ndarray) -> float:
    nz = dist[dist > 0]
    return -float((nz * np.log2(nz)).sum())


def measure_texture(
    region: ObjectRegion, plane: ImagePlane, params: TextureParams = TextureParams()
) -> dict[str, float]:
    """Direction-averaged Haralick features; all missing when no direction
    has a co-occurring pixel pair."""
    levels = quantize(region, plane, params.gray_levels)
    per_direction = []
    for offset in directions(params.distance):
        p = glcm(levels, offset, params.gray_levels)
        if p.any():
            per_direction.append(haralick_features(p))
    if not per_direction:
        return {name: MISSING for name in FEATURES}
    # fsum makes the average independent of direction enumeration order,
    # so 90-degree rotations reproduce it bit for bit.
    return {
        name: math.fsum(d[name] for d in per_direction) / len(per_direction)
        for name in FEATURES
    }
