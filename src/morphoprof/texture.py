"""Haralick texture features from object-restricted co-occurrence matrices.

Intensities are quantized per object into equal-width bins between the
min and max of its scaled values (:func:`~morphoprof.core.object_values`);
the level grid holds -1 off the object, so it alone says which pixels
pair up.  One (4, G, G) stack holds the symmetric GLCMs of the four
standard directions at the configured distance, one bincount each; a
direction whose offset reaches past the bbox has no pair and leaves its
matrix zero.  The 13 classic Haralick statistics of the matrices with
pairs come back as one row each, their marginals reduced over the stack
at once, and each column is averaged over those directions.  So at a
distance of at least the bbox's height and width (or on a single pixel)
every value is missing.  Entropies use log base 2 with 0*log(0) = 0,
each over its own matrix's nonzero entries.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MISSING, ImagePlane, ObjectRegion, _check_int, object_values

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


def _levels(region: ObjectRegion, plane: ImagePlane, gray_levels: int) -> np.ndarray:
    """Per-pixel gray level in {0..G-1} on the region's bbox; -1 off-object.

    Bins are equal-width between the object's min and max intensity; a
    constant object maps entirely to level 0.
    """
    local_mask = region.local_mask
    _, values, _ = object_values(region, plane)
    lo, hi = float(values.min()), float(values.max())
    levels = np.full(local_mask.shape, -1, dtype=np.int32)
    scaled = 0.0 if hi == lo else np.floor(gray_levels * (values - lo) / (hi - lo))
    levels[local_mask] = np.minimum(gray_levels - 1, scaled)
    return levels


def _glcms(levels: np.ndarray, distance: int, gray_levels: int) -> np.ndarray:
    """The (4, G, G) stack of symmetric normalized co-occurrence matrices of
    ``levels`` (a :func:`_levels` grid) at 0, 45, 90 and 135 degrees.

    Matrix k counts the pairs (p, p + offset k), offsets (0, d), (-d, d),
    (-d, 0) and (-d, -d), with both pixels on the object, adds its
    transpose and sums to 1; an offset with no such pair, as one reaching
    past the crop, leaves its matrix zero.
    """
    h, w = levels.shape
    d = distance
    counts = np.zeros((4, gray_levels * gray_levels), dtype=np.int64)
    for row, (dr, dc) in zip(counts, ((0, d), (-d, d), (-d, 0), (-d, -d))):
        r0, c0 = max(0, -dr), max(0, -dc)
        r1, c1 = max(r0, min(h, h - dr)), max(c0, min(w, w - dc))  # empty past the crop
        a = levels[r0:r1, c0:c1]
        b = levels[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        both = (a >= 0) & (b >= 0)
        row[:] = np.bincount(a[both] * gray_levels + b[both], minlength=row.size)
    counts = counts.reshape(4, gray_levels, gray_levels)
    counts = counts + counts.transpose(0, 2, 1)
    return counts / np.maximum(counts.sum(axis=(1, 2)), 1)[:, None, None]


def _haralick(p: np.ndarray) -> np.ndarray:
    """The 13 Haralick statistics, in ``FEATURES`` order, of each matrix of
    the (n, G, G) stack ``p`` of normalized symmetric GLCMs: one row each.

    ASM, contrast, IDM, sum(i*j*p) and the marginals with their means and
    variances are reduced over the stack; the rest is taken matrix by
    matrix, each entropy over that matrix's own nonzero entries.
    """
    g = p.shape[1]
    idx = np.arange(g, dtype=np.float64)
    px, py = p.sum(axis=2), p.sum(axis=1)
    mu_x, mu_y = (idx * px).sum(axis=1), (idx * py).sum(axis=1)
    var_x = ((idx - mu_x[:, None]) ** 2 * px).sum(axis=1)
    var_y = ((idx - mu_y[:, None]) ** 2 * py).sum(axis=1)
    # Tables of G alone: (i - j)^2, i * j, and the bins of i + j and |i - j|.
    diff2 = np.subtract.outer(idx, idx) ** 2
    idm_weight = 1.0 + diff2
    ij = np.multiply.outer(idx, idx)
    ij_sum = np.add.outer(np.arange(g), np.arange(g)).ravel()
    ij_diff = np.abs(np.subtract.outer(np.arange(g), np.arange(g))).ravel()
    k_sum = np.arange(2 * g - 1, dtype=np.float64)
    asm = (p * p).sum(axis=(1, 2))
    contrast = (diff2 * p).sum(axis=(1, 2))
    idm = (p / idm_weight).sum(axis=(1, 2))
    covariance = (ij * p).sum(axis=(1, 2)) - mu_x * mu_y
    rows = np.empty((len(p), len(FEATURES)))
    for k, m in enumerate(p):
        p_sum = np.bincount(ij_sum, weights=m.ravel(), minlength=2 * g - 1)
        p_diff = np.bincount(ij_diff, weights=m.ravel(), minlength=g)
        sum_average = float((k_sum * p_sum).sum())
        diff_mean = float((idx * p_diff).sum())
        std_x, std_y = math.sqrt(var_x[k]), math.sqrt(var_y[k])
        correlation = 0.0 if std_x == 0.0 or std_y == 0.0 else covariance[k] / (std_x * std_y)
        marg = np.multiply.outer(px[k], py[k])
        nz = m > 0
        hxy = _entropy(m)
        hxy1 = -float((m[nz] * np.log2(marg[nz])).sum())
        hxy2 = _entropy(marg)
        denom = max(_entropy(px[k]), _entropy(py[k]))
        rows[k] = (
            asm[k],
            contrast[k],
            correlation,
            var_x[k],
            idm[k],
            sum_average,
            ((k_sum - sum_average) ** 2 * p_sum).sum(),
            _entropy(p_sum),
            hxy,
            ((idx - diff_mean) ** 2 * p_diff).sum(),
            _entropy(p_diff),
            0.0 if denom == 0.0 else (hxy - hxy1) / denom,
            math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy)))),
        )
    return rows


def _entropy(dist: np.ndarray) -> float:
    nz = dist[dist > 0]
    return -float((nz * np.log2(nz)).sum())


def measure_texture(
    region: ObjectRegion, plane: ImagePlane, params: TextureParams = TextureParams()
) -> dict[str, float]:
    """Direction-averaged Haralick features; all missing when no direction
    has a co-occurring pixel pair."""
    levels = _levels(region, plane, params.gray_levels)
    p = _glcms(levels, params.distance, params.gray_levels)
    p = p[p.any(axis=(1, 2))]
    if not len(p):
        return dict.fromkeys(FEATURES, MISSING)
    rows = _haralick(p)
    # fsum makes the average independent of direction enumeration order,
    # so 90-degree rotations reproduce it bit for bit.
    return {name: math.fsum(column) / len(rows) for name, column in zip(FEATURES, rows.T)}
