"""Object-geometry measurements computed from a region's mask alone.

Conventions, fixed so outputs are reproducible across tools and runs:

* Pixels are unit squares whose centers sit at integer coordinates;
  moments treat pixels as point masses at their centers (population
  covariance, no continuous-pixel correction).
* Perimeter is crack length: the number of unit edges between an object
  pixel and a background/outside pixel.
* The convex hull is taken over the four corner points of every object
  pixel, with area by the shoelace formula.
* Second-moment features are derived from exact integer coordinate sums,
  which makes them bitwise invariant under translation and multiples of
  90-degree rotation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
import scipy.ndimage

from .core import ObjectRegion, background_distance, centered_deviations, edge_mask

_EIGHT_CONNECTED = np.ones((3, 3), dtype=bool)

BASE_FEATURES = (
    "Area",
    "Perimeter",
    "Extent",
    "Centroid_Row",
    "Centroid_Col",
    "MajorAxisLength",
    "MinorAxisLength",
    "Eccentricity",
    "Orientation",
    "FormFactor",
    "Solidity",
    "EulerNumber",
    "BoundingBoxArea",
    "MaxRadius",
)


@dataclass(frozen=True)
class ShapeParams:
    """Parameters for shape measurement; only the Zernike order is tunable."""

    zernike_max_order: int = 9

    def __post_init__(self):
        if not 0 <= self.zernike_max_order <= 20:
            raise ValueError("zernike_max_order must be in [0, 20]")


def zernike_indexes(max_order: int) -> list[tuple[int, int]]:
    """(n, m) pairs with 0 <= m <= n <= max_order and n - m even."""
    return [(n, m) for n in range(max_order + 1) for m in range(n % 2, n + 1, 2)]


def feature_keys(params: ShapeParams = ShapeParams()) -> list[str]:
    keys = list(BASE_FEATURES)
    keys.extend(f"Zernike_{n}_{m}" for n, m in zernike_indexes(params.zernike_max_order))
    return keys


def crack_perimeter(local_mask: np.ndarray) -> int:
    """Count of exposed unit pixel edges (4-neighborhood, outside = background)."""
    padded = np.pad(local_mask, 1)
    exposed = 0
    for shifted in (
        padded[:-2, 1:-1],
        padded[2:, 1:-1],
        padded[1:-1, :-2],
        padded[1:-1, 2:],
    ):
        exposed += int((local_mask & ~shifted).sum())
    return exposed


def convex_hull_area(local_mask: np.ndarray) -> float:
    """Area of the convex hull of all object pixel corners.

    Corners live on the half-integer grid; doubling them keeps the whole
    computation in exact integer arithmetic (Andrew monotone chain plus
    shoelace), so the result is exact.
    """
    # The hull of all corners equals the hull of boundary-pixel corners.
    rr, cc = np.nonzero(edge_mask(local_mask))
    pts = set()
    for r, c in zip(rr.tolist(), cc.tolist()):
        u, v = 2 * r, 2 * c
        pts.update(((u - 1, v - 1), (u - 1, v + 1), (u + 1, v - 1), (u + 1, v + 1)))
    points = sorted(pts)
    if len(points) <= 2:
        raise ValueError("degenerate corner set")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list[tuple[int, int]] = []
    for p in points:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list[tuple[int, int]] = []
    for p in reversed(points):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    twice_area = 0
    for (u0, v0), (u1, v1) in zip(hull, hull[1:] + hull[:1]):
        twice_area += u0 * v1 - u1 * v0
    # Doubled coordinates scale the area by 4; shoelace gives twice the area.
    return float(abs(twice_area)) / 8.0


def euler_number(local_mask: np.ndarray) -> int:
    """8-connected object components minus enclosed 4-connected holes."""
    _, n_objects = scipy.ndimage.label(local_mask, structure=_EIGHT_CONNECTED)
    padded = np.pad(local_mask, 1)
    bg_labels, n_bg = scipy.ndimage.label(~padded)
    border = np.unique(
        np.concatenate(
            [bg_labels[0], bg_labels[-1], bg_labels[:, 0], bg_labels[:, -1]]
        )
    )
    n_open = int((border > 0).sum())
    return int(n_objects) - (int(n_bg) - n_open)


def _second_moments(local_mask: np.ndarray) -> tuple[int, int, int, int, int, int]:
    """Exact integer sums (n, Sr, Sc, Srr, Scc, Src) over object pixel centers."""
    rr, cc = np.nonzero(local_mask)
    r = rr.astype(np.int64)
    c = cc.astype(np.int64)
    return (
        int(r.size),
        int(r.sum()),
        int(c.sum()),
        int((r * r).sum()),
        int((c * c).sum()),
        int((r * c).sum()),
    )


def _eigen_features(n, s_r, s_c, s_rr, s_cc, s_rc) -> tuple[float, float, float, float]:
    """(major, minor, eccentricity, orientation) from integer moment sums.

    Covariance entries share the exact integer numerator scale n^2, so the
    closed-form 2x2 eigenvalues are computed from integers and stay bitwise
    stable under coordinate reflections and transposes.
    """
    a_num = n * s_rr - s_r * s_r  # var(row) * n^2
    c_num = n * s_cc - s_c * s_c  # var(col) * n^2
    b_num = n * s_rc - s_r * s_c  # cov(row, col) * n^2
    trace = a_num + c_num
    disc = (a_num - c_num) ** 2 + 4 * b_num * b_num
    root = math.sqrt(float(disc))
    denom = 2.0 * float(n) * float(n)
    lam_max = (float(trace) + root) / denom
    lam_min = max(0.0, (float(trace) - root) / denom)
    major = 4.0 * math.sqrt(lam_max)
    minor = 4.0 * math.sqrt(lam_min)
    if lam_max <= 0.0:
        return 0.0, 0.0, 0.0, 0.0
    eccentricity = math.sqrt(max(0.0, 1.0 - lam_min / lam_max))
    if disc == 0:
        orientation = 0.0
    elif b_num == 0:
        orientation = math.pi / 2.0 if a_num > c_num else 0.0
    else:
        # Major eigenvector of [[a, b], [b, c]] is (b, lam*n^2 - a) up to scale;
        # angle measured from the +col axis toward +row, folded into (-pi/2, pi/2].
        lam_num = (float(trace) + root) / 2.0
        orientation = math.atan2(float(b_num), lam_num - float(a_num))
        if orientation > math.pi / 2.0:
            orientation -= math.pi
        elif orientation <= -math.pi / 2.0:
            orientation += math.pi
    return major, minor, eccentricity, orientation


@lru_cache(maxsize=None)
def _radial_poly_coeffs(n: int, m: int) -> tuple[float, ...]:
    """Coefficients of R_nm as a polynomial in rho^2 (highest power first),
    excluding the common rho^m factor.

    The s-th is (-1)^s (n-s)! / (s! ((n+m)/2-s)! ((n-m)/2-s)!), which is the
    integer C(n-s, s) C(n-2s, (n-m)/2-s).
    """
    half = (n - m) // 2
    return tuple(
        float((-1) ** s * math.comb(n - s, s) * math.comb(n - 2 * s, half - s))
        for s in range(half + 1)
    )


def _zernike_magnitudes(local_mask: np.ndarray, max_order: int) -> dict[str, float]:
    """|z_nm| on the unit disk centered at the centroid, keyed
    ``Zernike_<n>_<m>`` in :func:`zernike_indexes` order.

    The disk radius is the largest centroid-to-pixel-center distance
    (1 if that is 0); radii beyond 1 are clamped.  Deviations are kept as
    n-scaled integers and per-term sums use math.fsum, so the magnitudes
    are bitwise invariant under translation and 90-degree rotation.
    """
    count, dr, dc = centered_deviations(local_mask)
    d2 = dr * dr + dc * dc
    d2_max = float(d2.max())
    if d2_max == 0:
        rho2 = np.zeros(count)
        rho = np.zeros(count)
    else:
        rho2 = np.minimum(1.0, d2.astype(np.float64) / d2_max)
        rho = np.sqrt(rho2)
    norm = np.sqrt(d2.astype(np.float64))
    # exp(-i*theta) held as separate real/imag arrays: complex-array products
    # may be FMA-contracted, which would break the bitwise rotation symmetry.
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_re = np.where(norm > 0, dc / norm, 1.0)
        unit_im = np.where(norm > 0, -(dr / norm), 0.0)

    area = float(count)
    out = {}
    pow_re = np.ones(count)
    pow_im = np.zeros(count)
    rho_pow = np.ones(count)
    for m in range(max_order + 1):
        if m > 0:
            pow_re, pow_im = (
                pow_re * unit_re - pow_im * unit_im,
                pow_re * unit_im + pow_im * unit_re,
            )
            rho_pow = rho_pow * rho
        for order in range(m, max_order + 1, 2):
            coeffs = _radial_poly_coeffs(order, m)
            radial = np.full(count, coeffs[0])
            for coef in coeffs[1:]:
                radial = radial * rho2 + coef
            radial = radial * rho_pow
            total_re = math.fsum((radial * pow_re).tolist())
            total_im = math.fsum((radial * pow_im).tolist())
            scale = (order + 1) / (math.pi * area)
            out[order, m] = math.hypot(total_re, total_im) * scale
    return {f"Zernike_{n}_{m}": out[n, m] for n, m in zernike_indexes(max_order)}


def measure_shape(region: ObjectRegion, params: ShapeParams = ShapeParams()) -> dict[str, float]:
    """All shape features for one region, keyed by bare feature name."""
    mask = region.local_mask
    n, s_r, s_c, s_rr, s_cc, s_rc = _second_moments(mask)
    area = float(n)
    perimeter = crack_perimeter(mask)
    bbox_area = mask.shape[0] * mask.shape[1]
    major, minor, eccentricity, orientation = _eigen_features(n, s_r, s_c, s_rr, s_cc, s_rc)
    hull_area = convex_hull_area(mask)

    features = {
        "Area": area,
        "Perimeter": float(perimeter),
        "Extent": float(n) / float(bbox_area),
        "Centroid_Row": float(s_r) / n + region.bbox[0],
        "Centroid_Col": float(s_c) / n + region.bbox[1],
        "MajorAxisLength": major,
        "MinorAxisLength": minor,
        "Eccentricity": eccentricity,
        "Orientation": orientation,
        "FormFactor": 4.0 * math.pi * area / float(perimeter * perimeter),
        "Solidity": area / hull_area,
        "EulerNumber": float(euler_number(mask)),
        "BoundingBoxArea": float(bbox_area),
        "MaxRadius": float(background_distance(mask).max()),
    }
    features.update(_zernike_magnitudes(mask, params.zernike_max_order))
    return features
