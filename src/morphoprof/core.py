"""Core data model: image planes, label masks, per-object regions, feature tables.

Each type checks its values in its constructor, is immutable after it
(backing arrays are marked read-only), compares and hashes by identity,
and is safe to share across worker processes.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np
import scipy.ndimage

#: Sentinel for feature values that are undefined for a given object
#: (for example the Pearson correlation of a constant channel).  NaN is
#: distinct from every finite value; the CSV writer renders it as an
#: empty cell, never as the string "nan".
MISSING = math.nan


def _grid(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr``, made read-only; ValueError unless it is 2-D with positive dims."""
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{what} must be 2-D with positive dims, got shape {arr.shape}")
    arr.flags.writeable = False
    return arr


def _int64_labels(labels) -> np.ndarray:
    """A fresh int64 copy of integer ``labels``; an empty array may have any dtype."""
    labels = np.asarray(labels)
    if labels.size and not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    # Only uint64 holds labels that int64 cannot.
    if labels.dtype == np.uint64 and labels.size and labels.max() > np.iinfo(np.int64).max:
        raise ValueError(f"label {labels.max()} does not fit in int64")
    return labels.astype(np.int64)


@dataclass(frozen=True, eq=False)
class ImagePlane:
    """One imaging channel: a 2-D grid of finite real intensities.

    Values loaded from integer file formats are normalized to [0, 1];
    in-memory construction accepts any finite floats.
    """

    pixels: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.pixels)
        # Complex would lose its imaginary part and strings would be parsed.
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"image values must be real numbers, got dtype {arr.dtype}")
        arr = _grid(arr.astype(np.float64), "image")
        if not np.all(np.isfinite(arr)):
            raise ValueError("image contains non-finite values")
        object.__setattr__(self, "pixels", arr)

    @property
    def height(self) -> int:
        return self.pixels.shape[0]

    @property
    def width(self) -> int:
        return self.pixels.shape[1]


@dataclass(frozen=True, eq=False)
class LabelMask:
    """Object labels on a 2-D grid; 0 is background.

    Labels are opaque positive identifiers: they need not be contiguous,
    and pixels sharing a label form one object even when disconnected.
    """

    labels: np.ndarray

    def __post_init__(self):
        arr = _grid(_int64_labels(self.labels), "mask")
        if arr.min(initial=0) < 0:
            raise ValueError("labels must be non-negative")
        object.__setattr__(self, "labels", arr)

    @property
    def height(self) -> int:
        return self.labels.shape[0]

    @property
    def width(self) -> int:
        return self.labels.shape[1]


@dataclass(frozen=True, eq=False)
class ObjectRegion:
    """One object: its label, tight bounding box, and local boolean mask.

    ``bbox`` is (row_min, col_min, row_max, col_max), inclusive, in global
    mask coordinates.  ``local_mask`` has the bbox's shape and is True on
    the object's pixels.
    """

    label: int
    bbox: tuple[int, int, int, int]
    local_mask: np.ndarray

    def __post_init__(self):
        mask = np.ascontiguousarray(self.local_mask, dtype=bool)
        label = _check_int("object label", self.label, 1)
        r0, c0, r1, c1 = bbox = tuple(_check_int("bbox", v, 0) for v in self.bbox)
        if mask.shape != (r1 - r0 + 1, c1 - c0 + 1):
            raise ValueError("local_mask shape does not match bbox")
        if not mask.any():
            raise ValueError("object region must contain at least one pixel")
        if not (mask[0].any() and mask[-1].any() and mask[:, 0].any() and mask[:, -1].any()):
            raise ValueError("bbox is not tight around local_mask")
        mask.flags.writeable = False
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "bbox", bbox)
        object.__setattr__(self, "local_mask", mask)

    def crop(self, arr: np.ndarray) -> np.ndarray:
        """View of a full-image array restricted to this region's bbox."""
        r0, c0, r1, c1 = self.bbox
        h, w = arr.shape
        if r1 >= h or c1 >= w:
            raise ValueError(f"object {self.label} (bbox {self.bbox}) is beyond the {w}x{h} image")
        return arr[r0 : r1 + 1, c0 : c1 + 1]


@dataclass(frozen=True, eq=False)
class FeatureTable:
    """Per-object feature values for one object set.

    Rows are sorted by ascending label and all share the same ordered
    column set.  Missing cells hold the :data:`MISSING` sentinel.
    """

    object_set: str
    columns: tuple[str, ...]
    labels: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        cols = tuple(self.columns)
        labels = _int64_labels(self.labels)
        values = np.array(self.values, dtype=np.float64, copy=True)
        if len(set(cols)) != len(cols):
            raise ValueError("duplicate column names")
        if labels.ndim != 1:
            raise ValueError("labels must be 1-D")
        if values.shape != (labels.size, len(cols)):
            raise ValueError(
                f"values shape {values.shape} does not match "
                f"{labels.size} rows x {len(cols)} columns"
            )
        if labels.size > 1 and not np.all(np.diff(labels) > 0):
            raise ValueError("labels must be strictly ascending")
        labels.flags.writeable = values.flags.writeable = False
        object.__setattr__(self, "columns", cols)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "values", values)

    @property
    def n_rows(self) -> int:
        return int(self.labels.size)


def extract_objects(mask: LabelMask) -> list[ObjectRegion]:
    """Extract one region per distinct nonzero label, sorted by label.

    Disconnected pixels sharing a label form a single region whose bbox
    spans all of them; no connectivity split is performed.
    """
    labels = mask.labels
    foreground = labels > 0
    values = labels[foreground]
    present, rank = np.unique(values, return_inverse=True)
    if present.size == 0:
        return []
    # find_objects sizes its output by the largest label, so rank the labels
    # 1..n first: the cost then follows the object count, not label values.
    ranked = np.zeros(labels.shape, dtype=np.min_scalar_type(present.size))
    ranked[foreground] = rank + 1
    slices = scipy.ndimage.find_objects(ranked, max_label=present.size)
    regions = []
    for label, sl in zip(present.tolist(), slices):
        local = labels[sl] == label
        r0, c0 = sl[0].start, sl[1].start
        r1, c1 = sl[0].stop - 1, sl[1].stop - 1
        regions.append(ObjectRegion(label=label, bbox=(r0, c0, r1, c1), local_mask=local))
    return regions


def max_project(stack: list[ImagePlane]) -> ImagePlane:
    """Per-pixel maximum across a non-empty stack of same-sized planes."""
    if len(stack) == 0:
        raise ValueError("cannot project an empty stack")
    shape = stack[0].pixels.shape
    for i, plane in enumerate(stack):
        if plane.pixels.shape != shape:
            raise ValueError(
                f"plane {i} has dims {plane.width}x{plane.height}, "
                f"expected {shape[1]}x{shape[0]}"
            )
    return ImagePlane(np.maximum.reduce([p.pixels for p in stack]))


def _check_fraction(name: str, value: float) -> None:
    """Raise ValueError unless ``value`` is in [0, 1]; NaN is not."""
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{name} must be in [0, 1]")


def _check_int(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as a Python int; ValueError unless it is an integer
    (anything ``operator.index`` takes, NumPy integers too) in [low, high]."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not low <= value <= high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}")
    return value


def _exponents(rows: np.ndarray) -> np.ndarray:
    """Binary exponent e of each row's largest finite magnitude (0 if none):
    scaled by 2**-e that magnitude is in [0.5, 1), so squares stay in range,
    and a power of two changes no bit of a result in the normal range."""
    return np.frexp(np.abs(rows).max(axis=-1, initial=0.0, where=np.isfinite(rows)))[1]


def centered_deviations(local_mask: np.ndarray) -> tuple[int, np.ndarray, np.ndarray]:
    """(n, n*row - sum(rows), n*col - sum(cols)) over True pixels.

    The n-scaled deviations are exact integers, which keeps geometry
    derived from them bitwise reproducible under translation and
    90-degree rotation.  Falls back to float64 when the scaled values
    could overflow int64 (enormous objects), trading only that guarantee.
    """
    rr, cc = (idx.astype(np.int64, copy=False) for idx in np.nonzero(local_mask))
    n = rr.size
    s_r = int(rr.sum())
    s_c = int(cc.sum())
    if n * max(local_mask.shape) < 2**31:
        return n, n * rr - s_r, n * cc - s_c
    return n, n * rr.astype(np.float64) - s_r, n * cc.astype(np.float64) - s_c


def edge_mask(local_mask: np.ndarray) -> np.ndarray:
    """Object pixels on the crack boundary: any 4-neighbor outside the mask."""
    padded = np.pad(local_mask, 1)
    interior = (
        padded[:-2, 1:-1] & padded[2:, 1:-1] & padded[1:-1, :-2] & padded[1:-1, 2:]
    )
    return local_mask & ~interior


def background_distance(local_mask: np.ndarray) -> np.ndarray:
    """Euclidean distance from each object pixel to the nearest background
    pixel, in ``local_mask[local_mask]`` (row-major) order.

    Everything outside the bbox counts as background (the mask is padded by
    one before the transform).
    """
    dist = scipy.ndimage.distance_transform_edt(np.pad(local_mask, 1))
    return dist[1:-1, 1:-1][local_mask]
