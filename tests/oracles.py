"""Naive direct-definition reference implementations.

Every function here recomputes a measurement family from first
principles (explicit loops, brute-force distance scans, literal formula
transcription) without touching the library's optimized kernels, so the
library can be checked against an independent route.
"""

from __future__ import annotations

import math

import numpy as np
import scipy.spatial


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
    for n in range(max_order + 1):
        for m in range(n % 2, n + 1, 2):
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
    names = (
        "AngularSecondMoment", "Contrast", "Correlation", "Variance",
        "InverseDifferenceMoment", "SumAverage", "SumVariance", "SumEntropy",
        "Entropy", "DifferenceVariance", "DifferenceEntropy", "InfoMeas1", "InfoMeas2",
    )
    if not per_direction:
        return {name: math.nan for name in names}
    return {
        name: math.fsum(d[name] for d in per_direction) / len(per_direction)
        for name in names
    }


# ----------------------------------------------------------- granularity


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
        out[key] = 100.0 * (prev - mean) / start
        prev = mean
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


# ------------------------------------------------------------ tessellate


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
