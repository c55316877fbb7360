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
* Second-moment features are derived from exact integer coordinate sums,
  which makes them bitwise invariant under translation and multiples of
  90-degree rotation.
* Each Zernike term's sum over the pixels is correctly rounded (equal to
  math.fsum), computed by exact limb extraction over blocks of pixels, so
  the order in which pixels are summed cannot change a bit and the
  magnitudes share that invariance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ObjectRegion, _check_int, background_distance, centered_deviations

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


def zernike_indexes(max_order: int) -> list[tuple[int, int]]:
    """(n, m) pairs with 0 <= m <= n <= max_order and n - m even."""
    return [(n, m) for n in range(max_order + 1) for m in range(n % 2, n + 1, 2)]


def feature_keys(params: ShapeParams = ShapeParams()) -> list[str]:
    keys = list(BASE_FEATURES)
    keys.extend(f"Zernike_{n}_{m}" for n, m in zernike_indexes(params.zernike_max_order))
    return keys


def crack_perimeter(local_mask: np.ndarray) -> int:
    """Count of exposed unit pixel edges (4-neighborhood, outside = background)."""
    shared = np.count_nonzero(local_mask[1:] & local_mask[:-1])
    shared += np.count_nonzero(local_mask[:, 1:] & local_mask[:, :-1])
    return 4 * np.count_nonzero(local_mask) - 2 * shared


def convex_hull_area(local_mask: np.ndarray) -> float:
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


def euler_number(local_mask: np.ndarray) -> int:
    """8-connected object components minus enclosed 4-connected holes:
    (Q1 - Q3 - 2 QD) / 4, where Q1 and Q3 count the 2x2 windows of the
    padded mask holding one and three pixels, and QD those holding a lone
    diagonal pair (Gray, IEEE Trans. Computers, 1971)."""
    padded = np.pad(local_mask, 1).view(np.uint8)
    quads = padded[:-1, :-1] + 2 * padded[:-1, 1:] + 4 * padded[1:, :-1] + 8 * padded[1:, 1:]
    q = np.bincount(quads.ravel(), minlength=16).tolist()
    return (q[1] + q[2] + q[4] + q[8] - q[7] - q[11] - q[13] - q[14] - 2 * (q[6] + q[9])) // 4


def _second_moments(local_mask: np.ndarray) -> tuple[int, int, int, int, int, int]:
    """Exact integer sums (n, Sr, Sc, Srr, Scc, Src) over object pixel centers."""
    r, c = (idx.astype(np.int64, copy=False) for idx in np.nonzero(local_mask))
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
def _radial_poly_table(max_order: int) -> tuple[np.ndarray, np.ndarray, float]:
    """(m per term, coefficients, bound) for the terms of
    :func:`zernike_indexes`, one row per term.

    Row t holds the coefficients of R_nm as a polynomial in rho^2 (highest
    power first), excluding the common rho^m factor, right-aligned after
    zeros.  The s-th is (-1)^s (n-s)! / (s! ((n+m)/2-s)! ((n-m)/2-s)!),
    which is the integer C(n-s, s) C(n-2s, (n-m)/2-s).  A leading zero
    leaves Horner's rule unchanged bit for bit: 0 * rho2 + 0 is 0, and
    0 * rho2 + c is c.  ``bound`` is twice the largest sum of |coeffs|,
    which bounds every |R_nm * exp(-i*m*theta)| on rho <= 1 with room for
    rounding.
    """
    terms = zernike_indexes(max_order)
    coeffs = np.zeros((len(terms), max_order // 2 + 1))
    for t, (n, m) in enumerate(terms):
        half = (n - m) // 2
        for s in range(half + 1):
            coeffs[t, s - half - 1] = (-1) ** s * math.comb(n - s, s) * math.comb(n - 2 * s, half - s)
    bound = 2.0 * float(np.abs(coeffs).sum(axis=1).max())
    term_m = np.array([m for _, m in terms])
    # Cached and shared by every call, so read-only.
    term_m.flags.writeable = coeffs.flags.writeable = False
    return term_m, coeffs, bound


#: Pixels per block of the Zernike sums, which bounds their temporaries.
_BLOCK_PIXELS = 1024


def _exact_row_sums(blocks, count: int, bound: float) -> list[float]:
    """Correctly rounded sum of each row of ``count`` columns that arrive as
    (rows, k) float64 blocks: bitwise ``math.fsum`` of the row, up to the
    sign of a zero sum.  Each block is overwritten with its residue.

    Needs 1 <= count < 2**40 and every value of magnitude at most
    ``bound``, with 0 < bound <= 2**960.  Each value is split exactly into
    limbs on one ladder of binary exponents b, by error-free extraction
    (Rump, Ogita and Oishi, SIAM J. Sci. Comput. 2008): with
    sigma = 1.5 * 2**(b + 52), q = (x + sigma) - sigma is x rounded to a
    multiple of 2**b and x - q is exact.  Limbs are
    52 - bit_length(count - 1) bits wide, so every float sum of one limb's
    q over any blocks in any order is exact.  The ladder runs down to
    2**-1074, the unit of every float64, so no residual is lost; a block
    stops once its residual is zero.  The limb sums are joined as one
    integer and rounded once, by int / int division.
    """
    width = 52 - (count - 1).bit_length()
    top = math.frexp(bound)[1] - width + 1
    ladder = [*range(top, -1074, -width), -1074]
    sigmas = [math.ldexp(1.5, b + 52) for b in ladder]
    limbs = None
    used = 0
    for residual in blocks:
        if limbs is None:
            limbs = np.zeros((len(ladder), residual.shape[0]))
        q = np.empty_like(residual)
        for level, sigma in enumerate(sigmas):
            np.add(residual, sigma, out=q)
            q -= sigma
            residual -= q
            limbs[level] += q.sum(axis=1)
            if not residual.any():
                break
        used = max(used, level + 1)
    exps = np.array(ladder[:used])
    ints = np.ldexp(limbs[:used], -exps[:, None]).astype(np.int64).tolist()
    totals = ints[0]
    for level in range(1, used):
        shift = ladder[level - 1] - ladder[level]
        totals = [(t << shift) + v for t, v in zip(totals, ints[level])]
    low = ladder[used - 1]
    scale = min(low, 0)
    return [(t << (low - scale)) / (1 << -scale) for t in totals]


def _zernike_magnitudes(local_mask: np.ndarray, max_order: int) -> dict[str, float]:
    """|z_nm| on the unit disk centered at the centroid, keyed
    ``Zernike_<n>_<m>`` in :func:`zernike_indexes` order.

    The disk radius is the largest centroid-to-pixel-center distance
    (1 if that is 0); radii beyond 1 are clamped.  Deviations are kept as
    n-scaled integers and each term's sum over the pixels is correctly
    rounded (equal to math.fsum), so the magnitudes are bitwise invariant
    under translation and 90-degree rotation.  Pixels are taken in blocks:
    each block's term products go to one array whose rows are summed
    exactly by :func:`_exact_row_sums`.
    """
    count, dr, dc = centered_deviations(local_mask)
    d2 = dr * dr + dc * dc
    # A lone pixel has d2 = 0 everywhere, so any divisor gives rho = 0.
    d2_max = float(d2.max()) or 1.0
    term_m, coeffs, bound = _radial_poly_table(max_order)
    terms = term_m.size

    def blocks():
        products = np.empty((2 * terms, min(count, _BLOCK_PIXELS)))
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
            # R_nm by Horner's rule in the imaginary half, then both products.
            out = products[:, :size]
            radial = out[terms:]
            radial[:] = coeffs[:, :1]
            for column in coeffs.T[1:]:
                radial *= rho2
                radial += column[:, None]
            radial *= rho_pow[term_m]
            np.multiply(radial, pow_re[term_m], out=out[:terms])
            radial *= pow_im[term_m]
            yield out

    sums = _exact_row_sums(blocks(), count, bound)
    pi_area = math.pi * float(count)
    return {
        f"Zernike_{n}_{m}": math.hypot(sums[t], sums[terms + t]) * ((n + 1) / pi_area)
        for t, (n, m) in enumerate(zernike_indexes(max_order))
    }


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
