"""Naive direct-definition reference implementations.

Every function here recomputes a measurement family from first
principles (explicit loops, brute-force distance scans, literal formula
transcription) without touching the library's optimized kernels, so the
library can be checked against an independent route.  The exceptions
are references for one step each: ``granularity_float64_reference`` runs
the library's kernels on float64 values, so it checks the rank keys, not
the kernels; ``zernike_full_table_reference`` reuses the exact row sums;
``texture_per_direction_reference`` is the earlier texture route, one
GLCM and one dict per direction, kept bit for bit.
"""

from __future__ import annotations

import csv
import math

import numpy as np
import scipy.ndimage
import scipy.spatial

from morphoprof.raster_io import format_cell


# ---------------------------------------------------------------- core


def extract_objects_oracle(labels):
    """(label, bbox, local_mask) per distinct nonzero label, sorted by label,
    from ``scipy.ndimage.find_objects`` on the labels ranked 1..n: the route
    ``extract_objects`` took while the runtime depended on scipy."""
    labels = np.asarray(labels).astype(np.int64)
    foreground = labels > 0
    present, rank = np.unique(labels[foreground], return_inverse=True)
    ranked = np.zeros(labels.shape, dtype=np.int64)
    ranked[foreground] = rank + 1
    slices = scipy.ndimage.find_objects(ranked, max_label=present.size)
    return [
        (label, (sl[0].start, sl[1].start, sl[0].stop - 1, sl[1].stop - 1), labels[sl] == label)
        for label, sl in zip(present.tolist(), slices)
    ]


# ---------------------------------------------------------------- shape


def _pixel_set(local_mask):
    return {(int(r), int(c)) for r, c in zip(*np.nonzero(local_mask))}


def _perimeter(pixels):
    edges = 0
    for r, c in pixels:
        for nr, nc in ((r - 1, c), (r + 1, c), (r, c - 1), (r, c + 1)):
            if (nr, nc) not in pixels:
                edges += 1
    return edges


def _components(cells, neighbors):
    seen = set()
    count = 0
    for start in cells:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            r, c = stack.pop()
            for dr, dc in neighbors:
                nxt = (r + dr, c + dc)
                if nxt in cells and nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
    return count


def _euler(local_mask):
    eight = [(-1, -1), (-1, 0), (-1, 1), (0, -1), (0, 1), (1, -1), (1, 0), (1, 1)]
    four = [(-1, 0), (1, 0), (0, -1), (0, 1)]
    pixels = _pixel_set(local_mask)
    n_obj = _components(pixels, eight)
    h, w = local_mask.shape
    background = {
        (r, c)
        for r in range(-1, h + 1)
        for c in range(-1, w + 1)
        if (r, c) not in pixels
    }
    # Background components not reachable from the pad ring are holes.
    ring = {(r, c) for r, c in background if r in (-1, h) or c in (-1, w)}
    reachable = set()
    stack = list(ring)
    reachable.update(ring)
    while stack:
        r, c = stack.pop()
        for dr, dc in four:
            nxt = (r + dr, c + dc)
            if nxt in background and nxt not in reachable:
                reachable.add(nxt)
                stack.append(nxt)
    holes = _components(background - reachable, four)
    return n_obj - holes


def _max_radius(local_mask):
    obj = np.argwhere(local_mask)
    padded = np.pad(local_mask, 1)
    bg = np.argwhere(~padded) - 1
    dists = scipy.spatial.distance.cdist(obj, bg)
    return float(dists.min(axis=1).max())


def zernike_terms(max_order):
    """The (n, m) of every Zernike term up to ``max_order``: 0 <= m <= n
    and n - m even, by n, then m."""
    return [(n, m) for n in range(max_order + 1) for m in range(n % 2, n + 1, 2)]


def _zernike(local_mask, max_order):
    rr, cc = np.nonzero(local_mask)
    area = rr.size
    cy, cx = rr.mean(), cc.mean()
    dy = rr - cy
    dx = cc - cx
    radius = np.sqrt(dy**2 + dx**2)
    rmax = radius.max()
    if rmax == 0:
        rmax = 1.0
    rho = np.minimum(1.0, radius / rmax)
    theta = np.arctan2(dy, dx)
    out = {}
    for n, m in zernike_terms(max_order):
        radial = np.zeros_like(rho)
        for s in range((n - m) // 2 + 1):
            coef = (
                (-1) ** s
                * math.factorial(n - s)
                / (
                    math.factorial(s)
                    * math.factorial((n + m) // 2 - s)
                    * math.factorial((n - m) // 2 - s)
                )
            )
            radial = radial + coef * rho ** (n - 2 * s)
        moment = (radial * np.exp(-1j * m * theta)).sum() * (n + 1) / (math.pi * area)
        out[f"Zernike_{n}_{m}"] = abs(moment)
    return out


def zernike_fsum_oracle(local_mask, max_order):
    """Frozen earlier Zernike magnitudes, bit for bit: the library's
    elementwise formulas over whole-object arrays, one math.fsum per term
    and part, keyed ``Zernike_<n>_<m>``."""
    rr, cc = np.nonzero(local_mask)
    count = rr.size
    dr = count * rr.astype(np.int64) - int(rr.sum())
    dc = count * cc.astype(np.int64) - int(cc.sum())
    d2 = dr * dr + dc * dc
    d2_max = float(d2.max())
    if d2_max == 0:
        rho2 = np.zeros(count)
        rho = np.zeros(count)
    else:
        rho2 = np.minimum(1.0, d2.astype(np.float64) / d2_max)
        rho = np.sqrt(rho2)
    norm = np.sqrt(d2.astype(np.float64))
    with np.errstate(invalid="ignore", divide="ignore"):
        unit_re = np.where(norm > 0, dc / norm, 1.0)
        unit_im = np.where(norm > 0, -(dr / norm), 0.0)
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
        for n in range(m, max_order + 1, 2):
            half = (n - m) // 2
            coeffs = [
                float((-1) ** s * math.comb(n - s, s) * math.comb(n - 2 * s, half - s))
                for s in range(half + 1)
            ]
            radial = np.full(count, coeffs[0])
            for coef in coeffs[1:]:
                radial = radial * rho2 + coef
            radial = radial * rho_pow
            total_re = math.fsum((radial * pow_re).tolist())
            total_im = math.fsum((radial * pow_im).tolist())
            scale = (n + 1) / (math.pi * float(count))
            out[f"Zernike_{n}_{m}"] = math.hypot(total_re, total_im) * scale
    return out


def zernike_full_table_reference(geometry, max_order):
    """The library's Zernike magnitudes with Horner's rule run over every
    column of one table, each term's coefficients right-aligned after
    zeros and the rows in :func:`zernike_terms` order: the route before
    each row started at its first coefficient.

    Like ``granularity_float64_reference`` it reuses a library kernel, the
    exact limb sums joined by ``math.fsum`` (which
    ``test_exact_row_sums_equal_fsum`` checks): it is the reference for the
    Horner steps alone.
    """
    from morphoprof.shape import _BLOCK_PIXELS, _limb_sums

    terms = zernike_terms(max_order)
    coeffs = np.zeros((len(terms), max_order // 2 + 1))
    for t, (n, m) in enumerate(terms):
        half = (n - m) // 2
        for s in range(half + 1):
            coeffs[t, s - half - 1] = (-1) ** s * math.comb(n - s, s) * math.comb(n - 2 * s, half - s)
    term_m = np.array([m for _, m in terms])
    count, (dr, dc) = geometry.count, geometry.deviations
    d2 = dr * dr + dc * dc
    d2_max = float(d2.max()) or 1.0

    partials = []
    for start in range(0, count, _BLOCK_PIXELS):
        part = slice(start, start + _BLOCK_PIXELS)
        rho2 = np.minimum(1.0, d2[part].astype(np.float64) / d2_max)
        rho = np.sqrt(rho2)
        norm = np.sqrt(d2[part].astype(np.float64))
        with np.errstate(invalid="ignore", divide="ignore"):
            unit_re = np.where(norm > 0, dc[part] / norm, 1.0)
            unit_im = np.where(norm > 0, -(dr[part] / norm), 0.0)
        rho_pow = np.ones((max_order + 1, rho.size))
        pow_re = np.ones((max_order + 1, rho.size))
        pow_im = np.zeros((max_order + 1, rho.size))
        for m in range(1, max_order + 1):
            rho_pow[m] = rho_pow[m - 1] * rho
            pow_re[m] = pow_re[m - 1] * unit_re - pow_im[m - 1] * unit_im
            pow_im[m] = pow_re[m - 1] * unit_im + pow_im[m - 1] * unit_re
        radial = np.empty((len(terms), rho.size))
        radial[:] = coeffs[:, :1]
        for column in coeffs.T[1:]:
            radial = radial * rho2 + column[:, None]
        radial = radial * rho_pow[term_m]
        partials += _limb_sums(np.concatenate([radial * pow_re[term_m], radial * pow_im[term_m]]))

    sums = [math.fsum(row) for row in np.array(partials).T.tolist()]
    pi_area = math.pi * float(count)
    return {
        f"Zernike_{n}_{m}": math.hypot(sums[t], sums[len(terms) + t]) * ((n + 1) / pi_area)
        for t, (n, m) in enumerate(terms)
    }


def convex_hull_oracle(local_mask):
    """Frozen earlier convex hull area, bit for bit: the four corners of
    every crack-boundary pixel, doubled to integers, an Andrew monotone
    chain and the shoelace sum."""
    padded = np.pad(local_mask, 1)
    interior = padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    rr, cc = np.nonzero(local_mask & ~interior)
    pts = set()
    for r, c in zip(rr.tolist(), cc.tolist()):
        u, v = 2 * r, 2 * c
        pts.update(((u - 1, v - 1), (u - 1, v + 1), (u + 1, v - 1), (u + 1, v + 1)))
    points = sorted(pts)

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in points:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(points):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    twice_area = 0
    for (u0, v0), (u1, v1) in zip(hull, hull[1:] + hull[:1]):
        twice_area += u0 * v1 - u1 * v0
    return float(abs(twice_area)) / 8.0


def shape_oracle(region, max_order=9):
    local_mask = region.local_mask
    pixels = _pixel_set(local_mask)
    rr, cc = np.nonzero(local_mask)
    area = rr.size
    perimeter = _perimeter(pixels)
    coords = np.column_stack([rr, cc]).astype(float)
    cov = np.cov(coords.T, bias=True) if area > 1 else np.zeros((2, 2))
    eigvals, eigvecs = np.linalg.eigh(cov)
    lam_min, lam_max = float(eigvals[0]), float(eigvals[1])
    if lam_max <= 0:
        major = minor = ecc = orientation = 0.0
    else:
        major = 4.0 * math.sqrt(lam_max)
        minor = 4.0 * math.sqrt(max(0.0, lam_min))
        ecc = math.sqrt(1.0 - lam_min / lam_max)
        if np.isclose(lam_min, lam_max):
            orientation = 0.0
        else:
            v_r, v_c = eigvecs[:, 1]
            orientation = math.atan2(v_r, v_c)
            if orientation > math.pi / 2:
                orientation -= math.pi
            elif orientation <= -math.pi / 2:
                orientation += math.pi
    corners = []
    for r, c in pixels:
        corners.extend(
            [(r - 0.5, c - 0.5), (r - 0.5, c + 0.5), (r + 0.5, c - 0.5), (r + 0.5, c + 0.5)]
        )
    hull_area = scipy.spatial.ConvexHull(np.asarray(corners)).volume
    bbox_h, bbox_w = local_mask.shape
    out = {
        "Area": float(area),
        "Perimeter": float(perimeter),
        "Extent": area / (bbox_h * bbox_w),
        "Centroid_Row": rr.mean() + region.bbox[0],
        "Centroid_Col": cc.mean() + region.bbox[1],
        "MajorAxisLength": major,
        "MinorAxisLength": minor,
        "Eccentricity": ecc,
        "Orientation": orientation,
        "FormFactor": 4.0 * math.pi * area / perimeter**2,
        "Solidity": area / hull_area,
        "EulerNumber": float(_euler(local_mask)),
        "BoundingBoxArea": float(bbox_h * bbox_w),
        "MaxRadius": _max_radius(local_mask),
    }
    out.update(_zernike(local_mask, max_order))
    return out


# ------------------------------------------------------------- intensity


def _quantile(sorted_values, p):
    n = len(sorted_values)
    h = (n - 1) * p
    lo = math.floor(h)
    hi = math.ceil(h)
    return sorted_values[lo] + (h - lo) * (sorted_values[hi] - sorted_values[lo])


def intensity_oracle(region, plane):
    r0, c0 = region.bbox[0], region.bbox[1]
    pixels = sorted(_pixel_set(region.local_mask))
    values = [float(plane.pixels[r + r0, c + c0]) for r, c in pixels]
    ordered = sorted(values)
    n = len(values)
    mean = sum(values) / n
    median = _quantile(ordered, 0.5)
    std = math.sqrt(sum((v - mean) ** 2 for v in values) / n)
    mad = _quantile(sorted(abs(v - median) for v in values), 0.5)
    pixel_set = set(pixels)
    edge = [
        (r, c)
        for r, c in pixels
        if any(
            (r + dr, c + dc) not in pixel_set
            for dr, dc in ((-1, 0), (1, 0), (0, -1), (0, 1))
        )
    ]
    edge_values = [float(plane.pixels[r + r0, c + c0]) for r, c in edge]
    total = sum(values)
    cy = sum(r for r, _ in pixels) / n
    cx = sum(c for _, c in pixels) / n
    if total == 0:
        displacement = 0.0
    else:
        wy = sum(r * v for (r, _), v in zip(pixels, values)) / total
        wx = sum(c * v for (_, c), v in zip(pixels, values)) / total
        displacement = math.hypot(wy - cy, wx - cx)
    return {
        "IntegratedIntensity": total,
        "MeanIntensity": mean,
        "MedianIntensity": median,
        "StdIntensity": std,
        "MinIntensity": ordered[0],
        "MaxIntensity": ordered[-1],
        "MADIntensity": mad,
        "LowerQuartile": _quantile(ordered, 0.25),
        "UpperQuartile": _quantile(ordered, 0.75),
        "IntegratedIntensityEdge": sum(edge_values),
        "MeanIntensityEdge": sum(edge_values) / len(edge_values),
        "MassDisplacement": displacement,
    }


# --------------------------------------------------------------- texture


_TEXTURE_FEATURES = (
    "AngularSecondMoment", "Contrast", "Correlation", "Variance",
    "InverseDifferenceMoment", "SumAverage", "SumVariance", "SumEntropy",
    "Entropy", "DifferenceVariance", "DifferenceEntropy", "InfoMeas1", "InfoMeas2",
)


def quantize_oracle(region, plane, gray_levels):
    r0, c0 = region.bbox[0], region.bbox[1]
    pixels = _pixel_set(region.local_mask)
    values = {p: float(plane.pixels[p[0] + r0, p[1] + c0]) for p in pixels}
    lo = min(values.values())
    hi = max(values.values())
    if hi == lo:
        return {p: 0 for p in pixels}
    return {
        p: min(gray_levels - 1, math.floor(gray_levels * (v - lo) / (hi - lo)))
        for p, v in values.items()
    }


def glcm_oracle(levels, offset, gray_levels):
    counts = np.zeros((gray_levels, gray_levels))
    for (r, c), a in levels.items():
        other = (r + offset[0], c + offset[1])
        if other in levels:
            counts[a, levels[other]] += 1
    counts = counts + counts.T
    total = counts.sum()
    return (counts / total if total else counts), bool(total)


def haralick_oracle(p):
    g = p.shape[0]
    px = [sum(p[i, j] for j in range(g)) for i in range(g)]
    py = [sum(p[i, j] for i in range(g)) for j in range(g)]
    mu_x = sum(i * px[i] for i in range(g))
    mu_y = sum(j * py[j] for j in range(g))
    std_x = math.sqrt(sum((i - mu_x) ** 2 * px[i] for i in range(g)))
    std_y = math.sqrt(sum((j - mu_y) ** 2 * py[j] for j in range(g)))
    p_sum = [0.0] * (2 * g - 1)
    p_diff = [0.0] * g
    for i in range(g):
        for j in range(g):
            p_sum[i + j] += p[i, j]
            p_diff[abs(i - j)] += p[i, j]

    def entropy(dist):
        return -sum(v * math.log2(v) for v in dist if v > 0)

    asm = sum(p[i, j] ** 2 for i in range(g) for j in range(g))
    contrast = sum((i - j) ** 2 * p[i, j] for i in range(g) for j in range(g))
    if std_x == 0 or std_y == 0:
        correlation = 0.0
    else:
        correlation = (
            sum(i * j * p[i, j] for i in range(g) for j in range(g)) - mu_x * mu_y
        ) / (std_x * std_y)
    variance = sum((i - mu_x) ** 2 * p[i, j] for i in range(g) for j in range(g))
    idm = sum(p[i, j] / (1 + (i - j) ** 2) for i in range(g) for j in range(g))
    sum_avg = sum(k * p_sum[k] for k in range(2 * g - 1))
    sum_var = sum((k - sum_avg) ** 2 * p_sum[k] for k in range(2 * g - 1))
    diff_mean = sum(k * p_diff[k] for k in range(g))
    diff_var = sum((k - diff_mean) ** 2 * p_diff[k] for k in range(g))
    hxy = entropy(p.ravel())
    hxy1 = -sum(
        p[i, j] * math.log2(px[i] * py[j])
        for i in range(g)
        for j in range(g)
        if p[i, j] > 0
    )
    hxy2 = entropy([px[i] * py[j] for i in range(g) for j in range(g)])
    hx, hy = entropy(px), entropy(py)
    denom = max(hx, hy)
    info1 = 0.0 if denom == 0 else (hxy - hxy1) / denom
    info2 = math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy))))
    return {
        "AngularSecondMoment": asm,
        "Contrast": contrast,
        "Correlation": correlation,
        "Variance": variance,
        "InverseDifferenceMoment": idm,
        "SumAverage": sum_avg,
        "SumVariance": sum_var,
        "SumEntropy": entropy(p_sum),
        "Entropy": hxy,
        "DifferenceVariance": diff_var,
        "DifferenceEntropy": entropy(p_diff),
        "InfoMeas1": info1,
        "InfoMeas2": info2,
    }


def texture_oracle(region, plane, distance, gray_levels):
    levels = quantize_oracle(region, plane, gray_levels)
    d = distance
    per_direction = []
    for offset in ((0, d), (-d, d), (-d, 0), (-d, -d)):
        p, had = glcm_oracle(levels, offset, gray_levels)
        if had:
            per_direction.append(haralick_oracle(p))
    if not per_direction:
        return dict.fromkeys(_TEXTURE_FEATURES, math.nan)
    return {
        name: math.fsum(d[name] for d in per_direction) / len(per_direction)
        for name in _TEXTURE_FEATURES
    }


def texture_per_direction_reference(region, plane, params):
    """Frozen earlier ``measure_texture``, bit for bit: one GLCM and one
    dict of the 13 statistics per direction, each matrix reduced on its
    own, then the fsum mean over the directions with a pixel pair.  It
    reads the object's values through the library's accessor."""
    from morphoprof.core import object_values

    g = params.gray_levels
    local_mask = region.local_mask
    _, values, _ = object_values(region, plane)
    lo = float(values.min())
    hi = float(values.max())
    levels = np.full(local_mask.shape, -1, dtype=np.int32)
    if hi == lo:
        levels[local_mask] = 0
    else:
        scaled = np.floor(g * (values - lo) / (hi - lo))
        levels[local_mask] = np.minimum(g - 1, scaled).astype(np.int32)

    def glcm(dr, dc):
        h, w = levels.shape
        r0, r1 = max(0, -dr), min(h, h - dr)
        c0, c1 = max(0, -dc), min(w, w - dc)
        if r0 >= r1 or c0 >= c1:  # the offset reaches past the crop
            return np.zeros((g, g))
        a = levels[r0:r1, c0:c1]
        b = levels[r0 + dr : r1 + dr, c0 + dc : c1 + dc]
        both = (a >= 0) & (b >= 0)
        counts = np.bincount(a[both] * g + b[both], minlength=g * g).reshape(g, g)
        counts = counts + counts.T
        return counts / max(int(counts.sum()), 1)

    def entropy(dist):
        nz = dist[dist > 0]
        return -float((nz * np.log2(nz)).sum())

    def haralick(p):
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
        hxy = entropy(p)
        marg = px[:, None] * py[None, :]
        nz = p > 0
        hxy1 = -float((p[nz] * np.log2(marg[nz])).sum())
        hxy2 = entropy(marg)
        denom = max(entropy(px), entropy(py))
        return {
            "AngularSecondMoment": float((p * p).sum()),
            "Contrast": float((diff2 * p).sum()),
            "Correlation": correlation,
            "Variance": var_x,
            "InverseDifferenceMoment": float((p / (1.0 + diff2)).sum()),
            "SumAverage": sum_average,
            "SumVariance": sum_variance,
            "SumEntropy": entropy(p_sum),
            "Entropy": hxy,
            "DifferenceVariance": diff_variance,
            "DifferenceEntropy": entropy(p_diff),
            "InfoMeas1": 0.0 if denom == 0.0 else (hxy - hxy1) / denom,
            "InfoMeas2": math.sqrt(max(0.0, 1.0 - math.exp(-2.0 * (hxy2 - hxy)))),
        }

    d = params.distance
    per_direction = []
    for dr, dc in ((0, d), (-d, d), (-d, 0), (-d, -d)):
        p = glcm(dr, dc)
        if p.any():
            per_direction.append(haralick(p))
    if not per_direction:
        return dict.fromkeys(_TEXTURE_FEATURES, math.nan)
    return {
        name: math.fsum(f[name] for f in per_direction) / len(per_direction)
        for name in _TEXTURE_FEATURES
    }


# ----------------------------------------------------------- granularity


def disk_footprint(radius):
    """Boolean disk {(dr, dc): dr^2 + dc^2 <= radius^2}."""
    span = np.arange(-radius, radius + 1)
    return span[:, None] ** 2 + span[None, :] ** 2 <= radius * radius


def _disk_offsets(radius):
    return [
        (dr, dc)
        for dr in range(-radius, radius + 1)
        for dc in range(-radius, radius + 1)
        if dr * dr + dc * dc <= radius * radius
    ]


def _masked_filter(values, mask, offsets, op, identity):
    h, w = mask.shape
    out = np.zeros_like(values)
    for r in range(h):
        for c in range(w):
            if not mask[r, c]:
                continue
            acc = identity
            for dr, dc in offsets:
                rr, cc = r + dr, c + dc
                if 0 <= rr < h and 0 <= cc < w and mask[rr, cc]:
                    acc = op(acc, values[rr, cc])
            out[r, c] = acc
    return out


def gray_erode_oracle(values, mask, radius):
    return _masked_filter(values, mask, _disk_offsets(radius), min, math.inf)


def gray_dilate_oracle(values, mask, radius):
    return _masked_filter(values, mask, _disk_offsets(radius), max, -math.inf)


def gray_open_oracle(values, mask, radius):
    return gray_dilate_oracle(gray_erode_oracle(values, mask, radius), mask, radius)


def gray_reconstruct_oracle(marker, limit, mask):
    neighborhood = [(dr, dc) for dr in (-1, 0, 1) for dc in (-1, 0, 1)]
    cur = np.where(mask, marker, 0.0)
    while True:
        grown = _masked_filter(cur, mask, neighborhood, max, -math.inf)
        nxt = np.where(mask, np.minimum(grown, limit), 0.0)
        if np.array_equal(nxt, cur):
            return cur
        cur = nxt


def granularity_oracle(region, plane, spectrum_length, background_radius):
    mask = region.local_mask
    crop = region.crop(plane.pixels)
    opened = gray_open_oracle(crop, mask, background_radius)
    residue = np.where(mask, np.maximum(0.0, crop - opened), 0.0)
    start = float(residue[mask].mean())
    keys = [str(i) for i in range(1, spectrum_length + 1)]
    if start == 0.0:
        return {k: 0.0 for k in keys}
    out = {}
    prev = start
    cur = residue
    for key in keys:
        entering = cur
        cur = gray_erode_oracle(cur, mask, 1)
        cur = np.where(mask, cur, 0.0)
        rec = gray_reconstruct_oracle(cur, entering, mask)
        mean = float(rec[mask].mean())
        out[key] = min(100.0, 100.0 * (prev - mean) / start)
        prev = mean
    return out


def granularity_float64_reference(region, plane, params):
    """measure_granularity's pipeline with its kernels run on the object's
    float64 values, guarded by +-inf, where the library runs them on ranks.

    Unlike the rest of this module it reuses the library's kernels: it is
    the reference for the rank keys alone.  The tests check the kernels
    against scipy's filters and a dense iteration.
    """
    from morphoprof.core import object_values
    from morphoprof.granularity import _disk_filter, _guarded, _reconstruct

    mask = region.local_mask
    _, values, _ = object_values(region, plane)
    radius = min(params.background_radius, sum(mask.shape))
    padded = _guarded(values, mask, radius, np.inf)
    opened = np.empty(mask.shape)
    _disk_filter(padded, radius, np.minimum, opened)
    padded = _guarded(opened[mask], mask, radius, -np.inf)
    _disk_filter(padded, radius, np.maximum, opened)
    residue = np.maximum(0.0, values - opened[mask])
    start = float(residue.mean())
    keys = [str(i) for i in range(1, params.spectrum_length + 1)]
    if start == 0.0:
        return {k: 0.0 for k in keys}
    out, prev, image = {}, start, residue
    for key in keys:
        eroded = np.empty(mask.shape)
        _disk_filter(_guarded(image, mask, 1, np.inf), 1, np.minimum, eroded)
        state = _guarded(eroded[mask], mask, 1, -np.inf)
        _reconstruct(state, _guarded(image, mask, 1, -np.inf))
        mean = float(state[1:-1, 1:-1][mask].mean())
        out[key] = min(100.0, 100.0 * (prev - mean) / start)
        prev, image = mean, eroded[mask]
    return out


# ---------------------------------------------------------------- radial


def radial_oracle(region, plane, bins):
    mask = region.local_mask
    crop = region.crop(plane.pixels)
    rr, cc = np.nonzero(mask)
    n = rr.size
    cy, cx = rr.mean(), cc.mean()
    obj = np.column_stack([rr, cc])
    padded = np.pad(mask, 1)
    bg = np.argwhere(~padded) - 1
    d_edge = scipy.spatial.distance.cdist(obj, bg).min(axis=1)
    d_center = np.hypot(rr - cy, cc - cx)
    values = crop[mask]
    total = values.sum()

    out = {}
    bin_of = []
    wedge_of = []
    for k in range(n):
        denom = d_center[k] + d_edge[k]
        rho = d_center[k] / denom if denom > 0 else 0.0
        bin_of.append(min(bins, 1 + math.floor(rho * bins)))
        theta = math.atan2(rr[k] - cy, cc[k] - cx)
        wedge_of.append(math.floor(4.0 * (theta + math.pi) / math.pi) % 8)
    for b in range(1, bins + 1):
        members = [k for k in range(n) if bin_of[k] == b]
        if total == 0:
            out[f"FracAtD_{b}of{bins}"] = math.nan
            out[f"MeanFrac_{b}of{bins}"] = math.nan
        else:
            frac = sum(values[k] for k in members) / total
            out[f"FracAtD_{b}of{bins}"] = frac
            out[f"MeanFrac_{b}of{bins}"] = (
                frac / (len(members) / n) if members else math.nan
            )
        sums = [0.0] * 8
        for k in members:
            sums[wedge_of[k]] += values[k]
        mean = sum(sums) / 8.0
        if mean == 0:
            out[f"RadialCV_{b}of{bins}"] = math.nan
        else:
            std = math.sqrt(sum((s - mean) ** 2 for s in sums) / 8.0)
            out[f"RadialCV_{b}of{bins}"] = std / mean
    return out


# ----------------------------------------------------------------- coloc


def coloc_oracle(region, plane_a, plane_b, tau):
    mask = region.local_mask
    a = region.crop(plane_a.pixels)[mask].tolist()
    b = region.crop(plane_b.pixels)[mask].tolist()
    n = len(a)
    mean_a = sum(a) / n
    mean_b = sum(b) / n
    var_a = sum((v - mean_a) ** 2 for v in a) / n
    var_b = sum((v - mean_b) ** 2 for v in b) / n
    cov = sum((x - mean_a) * (y - mean_b) for x, y in zip(a, b)) / n
    pearson = (
        cov / math.sqrt(var_a * var_b) if var_a > 0 and var_b > 0 else math.nan
    )
    slope = cov / var_a if var_a > 0 else math.nan
    sq_a = sum(v * v for v in a)
    sq_b = sum(v * v for v in b)
    overlap = (
        sum(x * y for x, y in zip(a, b)) / math.sqrt(sq_a * sq_b)
        if sq_a > 0 and sq_b > 0
        else math.nan
    )
    ta, tb = tau * max(a), tau * max(b)
    sum_a, sum_b = sum(a), sum(b)
    m1 = sum(x for x, y in zip(a, b) if y > tb) / sum_a if sum_a != 0 else math.nan
    m2 = sum(y for x, y in zip(a, b) if x > ta) / sum_b if sum_b != 0 else math.nan
    return {
        "Pearson": pearson,
        "Overlap": overlap,
        "Slope": slope,
        "MandersM1": m1,
        "MandersM2": m2,
    }


# ------------------------------------------------------------- raster_io


def write_table_oracle(table, path):
    """A FeatureTable as CSV through ``csv.writer``, one ``format_cell``
    per value: the bytes ``write_table`` must give for a finite table."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["object_set", "label", *table.columns])
        for label, values in zip(table.labels.tolist(), table.values.tolist()):
            writer.writerow([table.object_set, label, *map(format_cell, values)])


# ------------------------------------------------------------ tessellate


def hex_metric(d_row, d_col, circumradius):
    """Containment metric of a pointy-top hexagon at the origin: <= 1
    inside or on the hexagon, exactly 1 on its boundary, with the operands
    ``hex_tessellation`` uses, in its order."""
    r = circumradius
    ax = np.abs(d_col)
    ay = np.abs(d_row)
    return np.maximum(ax / (math.sqrt(3.0) / 2.0 * r), (ax + math.sqrt(3.0) * ay) / (math.sqrt(3.0) * r))


def hex_tessellation_oracle(height, width, radius):
    """Frozen earlier hexagon labeling: keeps the explicit tie-break and
    ranks the (j, i) owners with ``np.unique(axis=0)``."""
    r = radius
    s3 = math.sqrt(3.0)
    rows = np.arange(height, dtype=np.float64)[:, None, None]
    cols = np.arange(width, dtype=np.float64)[None, :, None]
    j_base = np.rint(rows / (1.5 * r)).astype(np.int64)
    candidates_j = j_base + np.array([-1, 0, 1], dtype=np.int64).reshape(1, 1, 3)
    best_metric = np.full((height, width), np.inf)
    best_j = np.zeros((height, width), dtype=np.int64)
    best_i = np.zeros((height, width), dtype=np.int64)
    for dj in range(3):
        j_cand = candidates_j[:, :, dj]
        center_row = 1.5 * r * j_cand
        parity = 0.5 * (j_cand % 2)
        i_base = np.rint(cols[:, :, 0] / (s3 * r) - parity).astype(np.int64)
        for di in (-1, 0, 1):
            i_cand = i_base + di
            ax = np.abs(cols[:, :, 0] - s3 * r * (i_cand + parity))
            ay = np.abs(rows[:, :, 0] - center_row)
            metric = np.maximum(ax / (s3 / 2.0 * r), (ax + s3 * ay) / (s3 * r))
            better = metric < best_metric
            tie = metric == best_metric
            lower = (j_cand < best_j) | ((j_cand == best_j) & (i_cand < best_i))
            take = better | (tie & lower)
            best_metric = np.where(take, metric, best_metric)
            best_j = np.where(take, j_cand, best_j)
            best_i = np.where(take, i_cand, best_i)
    keys = np.stack([best_j.ravel(), best_i.ravel()], axis=1)
    inverse = np.unique(keys, axis=0, return_inverse=True)[1]
    return (inverse.ravel() + 1).reshape(height, width).astype(np.int64)


# ----------------------------------------------------------- postprocess


def abs_corr_oracle(x, y):
    both = np.isfinite(x) & np.isfinite(y)
    if both.sum() < 2:
        return 0.0
    xv, yv = x[both], y[both]
    sx, sy = float(xv.std()), float(yv.std())
    if sx == 0.0 or sy == 0.0:
        return 0.0
    cov = float(((xv - xv.mean()) * (yv - yv.mean())).mean())
    return abs(cov / (sx * sy))


def correlation_filter_oracle(values, threshold):
    """Frozen earlier greedy filter: one pairwise-complete |r| per (column,
    kept column) pair, undefined ones as 0; returns the kept column indices."""
    kept = []
    for j in range(values.shape[1]):
        col = values[:, j]
        if any(abs_corr_oracle(values[:, k], col) > threshold for k in kept):
            continue
        kept.append(j)
    return kept


def robust_standardize_oracle(values, drop_missing_frac):
    """Frozen column-by-column robust z-score: the kept column indices and
    their standardized columns stacked, missing cells 0."""
    kept, stacked = [], []
    for j in range(values.shape[1]):
        col = values[:, j]
        present = np.isfinite(col)
        missing_frac = 1.0 - present.sum() / col.size
        if not present.any() or missing_frac > drop_missing_frac:
            continue
        med = float(np.median(col[present]))
        mad = float(np.median(np.abs(col[present] - med)))
        if mad == 0.0:
            continue
        standardized = (col - med) / (1.4826 * mad)
        standardized[~present] = 0.0
        kept.append(j)
        stacked.append(standardized)
    out = np.column_stack(stacked) if stacked else np.empty((values.shape[0], 0))
    return kept, out
