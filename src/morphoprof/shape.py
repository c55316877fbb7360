"""Object-geometry measurements computed from a region's mask alone.

Conventions, fixed so outputs are reproducible across tools and runs:

* Pixels are unit squares whose centers sit at integer coordinates;
  moments treat pixels as point masses at their centers (population
  covariance, no continuous-pixel correction).
* Perimeter is crack length: the number of unit edges between an object
  pixel and a background/outside pixel, counted as 4 * Area less 2 per
  pair of 4-adjacent object pixels.
* The Euler number is 8-connected objects minus 4-connected holes, from
  Gray's bit-quad counts over the 2x2 windows of the padded mask:
  (Q1 - Q3 - 2 QD) / 4.
* The convex hull is taken over the four corner points of every object
  pixel (those of each row's end pixels suffice), with area by the
  shoelace formula.
* Second-moment features are derived from exact integer coordinate sums
  (:func:`~morphoprof.core.mask_geometry`), which makes them bitwise
  invariant under translation and multiples of 90-degree rotation.
* Each Zernike term's sum over the pixels is correctly rounded (equal to
  math.fsum): each block of pixels' products is split exactly into limbs
  whose sums cannot round, and one math.fsum joins a term's limb sums from
  every block.  The order in which pixels are summed cannot change a bit,
  so the magnitudes share that invariance, and the sums need one block of
  products plus one partial sum per term, block and limb level.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import MaskGeometry, ObjectRegion, _check_int, mask_geometry

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
        order = _check_int("zernike_max_order", self.zernike_max_order, 0, 20)
        object.__setattr__(self, "zernike_max_order", order)


def _zernike_indexes(max_order: int) -> list[tuple[int, int]]:
    """(n, m) pairs with 0 <= m <= n <= max_order and n - m even."""
    return [(n, m) for n in range(max_order + 1) for m in range(n % 2, n + 1, 2)]


def feature_keys(params: ShapeParams = ShapeParams()) -> list[str]:
    keys = list(BASE_FEATURES)
    keys.extend(f"Zernike_{n}_{m}" for n, m in _zernike_indexes(params.zernike_max_order))
    return keys


def _crack_perimeter(local_mask: np.ndarray) -> int:
    """Count of exposed unit pixel edges (4-neighborhood, outside = background)."""
    shared = np.count_nonzero(local_mask[1:] & local_mask[:-1])
    shared += np.count_nonzero(local_mask[:, 1:] & local_mask[:, :-1])
    return 4 * np.count_nonzero(local_mask) - 2 * shared


def _convex_hull_area(local_mask: np.ndarray) -> float:
    """Area of the convex hull of all object pixel corners.

    Only the outer corners of each row's end pixels are taken; rows without
    pixels are skipped.  Corners live on the half-integer grid; doubling
    them keeps the whole computation in exact integer arithmetic (Andrew
    monotone chain plus shoelace), so the result is exact.
    """
    rows = np.flatnonzero(local_mask.any(axis=1))
    first = local_mask.argmax(axis=1)[rows]
    last = local_mask.shape[1] - 1 - local_mask[:, ::-1].argmax(axis=1)[rows]
    pts = set()
    for r, lo, hi in zip(rows.tolist(), first.tolist(), last.tolist()):
        u, v0, v1 = 2 * r, 2 * lo - 1, 2 * hi + 1
        pts.update(((u - 1, v0), (u - 1, v1), (u + 1, v0), (u + 1, v1)))
    points = sorted(pts)
    if len(points) <= 2:
        raise ValueError("degenerate corner set")

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    hull: list[tuple[int, int]] = []
    for ordered in (points, points[::-1]):  # the lower chain, then the upper
        chain: list[tuple[int, int]] = []
        for p in ordered:
            while len(chain) >= 2 and cross(chain[-2], chain[-1], p) <= 0:
                chain.pop()
            chain.append(p)
        hull += chain[:-1]
    twice_area = sum(u0 * v1 - u1 * v0 for (u0, v0), (u1, v1) in zip(hull, hull[1:] + hull[:1]))
    # Doubled coordinates scale the area by 4; shoelace gives twice the area.
    return float(abs(twice_area)) / 8.0


def _euler_number(local_mask: np.ndarray) -> int:
    """8-connected object components minus enclosed 4-connected holes:
    (Q1 - Q3 - 2 QD) / 4, where Q1 and Q3 count the 2x2 windows of the
    padded mask holding one and three pixels, and QD those holding a lone
    diagonal pair (Gray, IEEE Trans. Computers, 1971)."""
    padded = np.zeros((local_mask.shape[0] + 2, local_mask.shape[1] + 2), dtype=np.uint8)
    padded[1:-1, 1:-1] = local_mask
    quads = padded[:-1, :-1] + 2 * padded[:-1, 1:] + 4 * padded[1:, :-1] + 8 * padded[1:, 1:]
    q = np.bincount(quads.ravel(), minlength=16).tolist()
    return (q[1] + q[2] + q[4] + q[8] - q[7] - q[11] - q[13] - q[14] - 2 * (q[6] + q[9])) // 4


def _eigen_features(geometry: MaskGeometry) -> tuple[float, float, float, float]:
    """(major, minor, eccentricity, orientation) from exact integer sums
    over the object's pixel centers.

    Covariance entries share the exact integer numerator scale n^2, so the
    closed-form 2x2 eigenvalues are computed from integers and stay bitwise
    stable under coordinate reflections and transposes.
    """
    n, s_r, s_c = geometry.count, geometry.row_sum, geometry.col_sum
    r, c = geometry.rows, geometry.cols
    a_num = n * int((r * r).sum()) - s_r * s_r  # var(row) * n^2
    c_num = n * int((c * c).sum()) - s_c * s_c  # var(col) * n^2
    b_num = n * int((r * c).sum()) - s_r * s_c  # cov(row, col) * n^2
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


@lru_cache(maxsize=21)  # one entry per order ShapeParams admits
def _radial_poly_table(max_order: int) -> tuple[list[int], np.ndarray, np.ndarray, list[int]]:
    """(row per term, m per row, coefficients, prefix) for the terms
    of :func:`_zernike_indexes`, one row per term, the rows ordered by their
    number of coefficients, most first (ties keep the terms' order).

    Row r holds the coefficients of R_nm as a polynomial in rho^2 (highest
    power first), excluding the common rho^m factor, then zeros.  The s-th
    is (-1)^s (n-s)! / (s! ((n+m)/2-s)! ((n-m)/2-s)!), which is the integer
    C(n-s, s) C(n-2s, (n-m)/2-s).  Horner's rule starts each row at its
    first coefficient, which is bitwise the rule over a table right-aligned
    after zeros: over a leading zero it gives 0 * rho2 + 0, which is 0,
    then 0 * rho2 + c, which is c.  Column k is a coefficient of the first
    ``prefix[k - 1]`` rows only.
    """
    terms = _zernike_indexes(max_order)
    order = sorted(range(len(terms)), key=lambda t: terms[t][1] - terms[t][0])
    coeffs = np.zeros((len(terms), max_order // 2 + 1))
    halves = []
    for row, t in enumerate(order):
        n, m = terms[t]
        halves.append((n - m) // 2)
        for s in range(halves[-1] + 1):
            coeffs[row, s] = (-1) ** s * math.comb(n - s, s) * math.comb(n - 2 * s, halves[-1] - s)
    prefix = [sum(half >= k for half in halves) for k in range(1, coeffs.shape[1])]
    term_m = np.array([terms[t][1] for t in order])
    # Cached and shared by every call, so read-only.
    term_m.flags.writeable = coeffs.flags.writeable = False
    return np.argsort(order).tolist(), term_m, coeffs, prefix


#: Pixels per block of the Zernike sums, which bounds their temporaries.
_BLOCK_PIXELS = 1024


def _limb_sums(block: np.ndarray) -> list[np.ndarray]:
    """Exact row sums of the limbs of a (rows, k) float64 block, one array
    per limb level, highest first; together they sum to the block's rows.
    The block is overwritten with its residue.

    Needs finite values below 2**960 in magnitude.  Each value is split
    exactly into limbs on a ladder of binary exponents b, by error-free
    extraction (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 2008): with
    sigma = 1.5 * 2**(b + 52), q = (x + sigma) - sigma is x rounded to a
    multiple of 2**b and x - q is exact.  Limbs are 52 - bit_length(k - 1)
    bits wide and the top one holds the block's largest magnitude, so the
    float sum of a row's k limbs on one level is exact in any order.  The
    ladder runs down to 2**-1074, the unit of every float64, so no residue
    is lost; it stops once the residue is zero.  ``math.fsum`` over a row's
    limb sums from every block is then the row's correctly rounded sum,
    bitwise ``math.fsum`` of the row up to the sign of a zero sum, from one
    block of products plus one partial sum per row, block and limb level.
    """
    width = 52 - (block.shape[1] - 1).bit_length()
    top = math.frexp(max(block.max(), -block.min()))[1] - width + 1
    q = np.empty_like(block)
    sums = []
    for b in [*range(top, -1074, -width), -1074]:
        sigma = math.ldexp(1.5, b + 52)
        np.add(block, sigma, out=q)
        q -= sigma
        block -= q
        sums.append(q.sum(axis=1))
        if not block.any():
            break
    return sums


def _zernike_magnitudes(geometry: MaskGeometry, max_order: int) -> dict[str, float]:
    """|z_nm| on the unit disk centered at the centroid, keyed
    ``Zernike_<n>_<m>`` in :func:`_zernike_indexes` order.

    The disk radius is the largest centroid-to-pixel-center distance
    (1 if that is 0); radii beyond 1 are clamped.  The geometry's exact
    deviations and each term's correctly rounded sum over the pixels (equal
    to math.fsum) make the magnitudes bitwise invariant under translation
    and 90-degree rotation.  Pixels are taken in blocks: each block's term
    products go to one array, split by :func:`_limb_sums`, and each term's
    sum is one ``math.fsum`` over its limb sums from every block.
    """
    count, (dr, dc) = geometry.count, geometry.deviations
    d2 = dr * dr + dc * dc
    # A lone pixel has d2 = 0 everywhere, so any divisor gives rho = 0.
    d2_max = float(d2.max()) or 1.0
    row_of, term_m, coeffs, prefix = _radial_poly_table(max_order)
    terms = term_m.size
    products = np.empty((2 * terms, min(count, _BLOCK_PIXELS)))
    partials = []
    for start in range(0, count, _BLOCK_PIXELS):
        part = slice(start, start + _BLOCK_PIXELS)
        d2_part = d2[part]
        size = d2_part.size
        rho2 = np.minimum(1.0, d2_part.astype(np.float64) / d2_max)
        rho = np.sqrt(rho2)
        norm = np.sqrt(d2_part.astype(np.float64))
        # exp(-i*theta) held as separate real/imag arrays: complex-array
        # products may be FMA-contracted, which would break the bitwise
        # rotation symmetry.
        with np.errstate(invalid="ignore", divide="ignore"):
            unit_re = np.where(norm > 0, dc[part] / norm, 1.0)
            unit_im = np.where(norm > 0, -(dr[part] / norm), 0.0)
        # Row m: rho^m and exp(-i*m*theta), each by one product per step.
        rho_pow = np.ones((max_order + 1, size))
        pow_re = np.ones((max_order + 1, size))
        pow_im = np.zeros((max_order + 1, size))
        for m in range(1, max_order + 1):
            np.multiply(rho_pow[m - 1], rho, out=rho_pow[m])
            np.subtract(pow_re[m - 1] * unit_re, pow_im[m - 1] * unit_im, out=pow_re[m])
            np.add(pow_re[m - 1] * unit_im, pow_im[m - 1] * unit_re, out=pow_im[m])
        # R_nm by Horner's rule in the imaginary half, each row from its
        # first coefficient, then both products.
        out = products[:, :size]
        radial = out[terms:]
        radial[:] = coeffs[:, :1]
        for column, rows in enumerate(prefix, 1):
            lead = radial[:rows]
            lead *= rho2
            lead += coeffs[:rows, column, None]
        radial *= rho_pow[term_m]
        np.multiply(radial, pow_re[term_m], out=out[:terms])
        radial *= pow_im[term_m]
        partials += _limb_sums(out)
    sums = [math.fsum(row) for row in np.array(partials).T.tolist()]
    pi_area = math.pi * float(count)
    return {
        f"Zernike_{n}_{m}": math.hypot(sums[row], sums[terms + row]) * ((n + 1) / pi_area)
        for row, (n, m) in zip(row_of, _zernike_indexes(max_order))
    }


def measure_shape(region: ObjectRegion, params: ShapeParams = ShapeParams()) -> dict[str, float]:
    """All shape features for one region, keyed by bare feature name."""
    mask = region.local_mask
    geometry = mask_geometry(region)
    n = geometry.count
    area = float(n)
    perimeter = _crack_perimeter(mask)
    bbox_area = mask.shape[0] * mask.shape[1]
    major, minor, eccentricity, orientation = _eigen_features(geometry)
    hull_area = _convex_hull_area(mask)

    features = {
        "Area": area,
        "Perimeter": float(perimeter),
        "Extent": float(n) / float(bbox_area),
        "Centroid_Row": float(geometry.row_sum) / n + region.bbox[0],
        "Centroid_Col": float(geometry.col_sum) / n + region.bbox[1],
        "MajorAxisLength": major,
        "MinorAxisLength": minor,
        "Eccentricity": eccentricity,
        "Orientation": orientation,
        "FormFactor": 4.0 * math.pi * area / float(perimeter * perimeter),
        "Solidity": area / hull_area,
        "EulerNumber": float(_euler_number(mask)),
        "BoundingBoxArea": float(bbox_area),
        "MaxRadius": float(geometry.distance.max()),
    }
    features.update(_zernike_magnitudes(geometry, params.zernike_max_order))
    return features
