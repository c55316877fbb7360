"""Tessellating hexagonal label masks and coverage-based selection.

The lattice is pointy-top with circumradius R and origin at pixel
(0, 0): hexagon (i, j) is centered at column sqrt(3)*R*(i + 0.5*(j % 2))
and row 1.5*R*j.  A pixel center (dr, dc) away from a hexagon's center
has the containment metric max(|dc| / (sqrt(3)/2*R), (|dc| + sqrt(3)*|dr|)
/ (sqrt(3)*R)), at most 1 inside or on the hexagon and exactly 1 on its
boundary, and belongs to the hexagon whose metric is least, so every
pixel center belongs to exactly one hexagon.
Ties are resolved by scan order: each pixel's candidate hexagons are
visited in ascending (j, i) and only a strictly closer one replaces the
current owner, so a boundary pixel goes to the lexicographically smaller
lattice index, hence the smaller label.  Candidates are scanned one band
of rows at a time: a band is the rows of one block of ``_BLOCK_PIXELS``
pixels, which bounds the temporaries, whose nearest lattice rows share a
parity.  A candidate's column offset depends only on its lattice row's
parity, so its column terms are computed once, in 1-D; its row terms are
1-D per band, and only the metric itself is 2-D.  A pixel meets its
candidates in the same order in any band, so the tie rule is unchanged.
Each band writes its pixels' owners as flat indices into a lattice box
bounded before the scan, and the hexagons that own at least one pixel
are labeled densely from 1 in (j, i) lattice order.

``filter_by_coverage`` bins each pixel by its label when every label is
below the pixel count, and by the label's rank otherwise, so its bin
arrays never outgrow the mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import LabelMask, _check_int, _check_real


@dataclass(frozen=True)
class HexGridParams:
    width: int
    height: int
    circumradius: float

    def __post_init__(self):
        for name in ("width", "height"):
            object.__setattr__(self, name, _check_int(f"canvas {name}", getattr(self, name), 1))
        # Pixel centers are 1 apart, so below 0.5 a hexagon bins at most one
        # pixel; if the lattice step sqrt(3)*R overflows there is no lattice.
        r = _check_real("circumradius", self.circumradius, 0.5)
        if math.sqrt(3.0) * r == math.inf:
            raise ValueError(f"circumradius must be >= 0.5 with sqrt(3)*R finite, got {r}")
        object.__setattr__(self, "circumradius", r)


#: Pixels per row band of the candidate scan, which bounds its temporaries.
_BLOCK_PIXELS = 2**14


def hex_tessellation(params: HexGridParams) -> LabelMask:
    """Labeled hexagonal partition of the canvas; every pixel gets a label."""
    r = params.circumradius
    height, width = params.height, params.width
    s3 = math.sqrt(3.0)
    rows = np.arange(height, dtype=np.float64)
    cols = np.arange(width, dtype=np.float64)
    # 3x3 lattice neighborhood around each pixel's nearest (j, i) estimate;
    # the owning hexagon's center is always within one lattice step.
    j_base = np.rint(rows / (1.5 * r)).astype(np.int64)
    # A candidate's column terms depend only on its lattice row's parity and
    # its di, so they are computed once, in 1-D, indexed [j % 2, di + 1].
    # The metric's operands and their order are fixed, which fixes its bits.
    # A huge radius puts far candidates at infinity, where they lose.
    shift = np.array([0.0, 0.5])[:, None, None]  # a lattice row's offset, in steps
    with np.errstate(over="ignore"):
        i_cand = np.rint(cols / (s3 * r) - shift).astype(np.int64) + np.array([[-1], [0], [1]])
        ax = np.abs(cols - s3 * r * (i_cand + shift))
        t1 = ax / (s3 / 2.0 * r)
    # Every candidate lies in the lattice box j >= j_base.min() - 1, i in
    # [i_cand.min(), i_cand.max()], so each pixel's owner is stored as one
    # flat index (j - j0) * ni + (i - i0), which sorts like its (j, i) pair.
    j0, i0 = int(j_base.min()) - 1, int(i_cand.min())
    ni = int(i_cand.max()) - i0 + 1
    owner = np.empty((height, width), dtype=np.int64)
    step = max(1, _BLOCK_PIXELS // width)
    for top in range(0, height, step):
        for parity in (0, 1):
            # A band: the block's rows whose j_base has this parity.  Their
            # candidates' lattice rows share a parity, hence column terms.
            band = np.flatnonzero(j_base[top:top + step] % 2 == parity) + top
            if not band.size:
                continue
            jb = j_base[band, None]
            best_metric = np.full((band.size, width), np.inf)
            best_k = np.zeros((band.size, width), dtype=np.uint8)  # 3 * (dj + 1) + di + 1
            metric, take = np.empty_like(best_metric), np.empty(best_k.shape, dtype=bool)
            # Each pixel's nine candidates are scanned in ascending (j, i), so
            # strict improvement alone keeps the lowest lattice index on ties.
            with np.errstate(over="ignore"):
                for dj in (-1, 0, 1):
                    s3_ay = s3 * np.abs(rows[band, None] - 1.5 * r * (jb + dj))
                    q = (parity + dj) % 2
                    for di in (-1, 0, 1):
                        np.add(ax[q, di + 1], s3_ay, out=metric)
                        np.divide(metric, s3 * r, out=metric)
                        np.maximum(t1[q, di + 1], metric, out=metric)
                        np.less(metric, best_metric, out=take)
                        np.copyto(best_metric, metric, where=take)
                        np.copyto(best_k, 3 * dj + di + 4, where=take)
            band_i = i_cand[[(parity + dj) % 2 for dj in (-1, 0, 1)]].reshape(9, width) - i0
            band_j = best_k // 3 + (jb - 1 - j0)
            owner[band] = band_j * ni + np.take_along_axis(band_i, best_k, 0)

    # Dense (j, i) rank.  With circumradius >= 0.5 the lattice box, hence the
    # bincount, is a small multiple of the canvas: at most 9 times (on a 1x1
    # canvas), about 1.5 times on large ones.
    return LabelMask(np.cumsum(np.bincount(owner.ravel()) > 0)[owner])


def filter_by_coverage(
    hex_mask: LabelMask, foreground: LabelMask, min_coverage: float
) -> LabelMask:
    """Zero out hexagons whose fraction of foreground pixels is below the
    threshold in [0, 1]; survivors keep their labels."""
    min_coverage = _check_real("min_coverage", min_coverage, 0.0, 1.0)
    if hex_mask.labels.shape != foreground.labels.shape:
        raise ValueError(
            f"foreground dims {foreground.width}x{foreground.height} do not match "
            f"hexagon dims {hex_mask.width}x{hex_mask.height}"
        )
    labels = hex_mask.labels.ravel()
    # Labels below the pixel count are their own bins; larger ones are ranked,
    # so no bin array outgrows the mask whatever the label values.
    if labels.max(initial=0) < labels.size:
        bins = labels
    else:
        bins = np.unique(labels, return_inverse=True)[1]
    totals = np.bincount(bins)
    covered = np.bincount(bins, weights=foreground.labels.ravel() > 0)
    with np.errstate(invalid="ignore"):  # 0 / 0 for labels that do not occur
        keep = covered / totals >= min_coverage
    # Background stays 0 whatever its bin decides.
    return LabelMask(np.where(keep[bins], labels, 0).reshape(hex_mask.labels.shape))
