"""Core data model: image planes, label masks, object regions and their geometry, feature tables.

Each type checks its values in its constructor, is immutable after it
(backing arrays are marked read-only), compares and hashes by identity,
and is safe to share across worker processes.

Rasters stay at their width: a plane keeps float32 or float64 samples
and a mask uint8, uint16 or uint32 labels, so a loaded file is held as
it was read.  :func:`object_values` widens only an object's own values
to float64, which changes no value: every narrower sample is exact there.
"""

from __future__ import annotations

import math
import numbers
import operator
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

#: Sentinel for feature values that are undefined for a given object
#: (for example the Pearson correlation of a constant channel).  NaN is
#: distinct from every finite value; the CSV writer renders it as an
#: empty cell, never as the string "nan".
MISSING = math.nan


def _frozen(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


def _grid(arr: np.ndarray, what: str) -> np.ndarray:
    """``arr``, made read-only; ValueError unless it is 2-D with positive dims."""
    if arr.ndim != 2 or arr.shape[0] < 1 or arr.shape[1] < 1:
        raise ValueError(f"{what} must be 2-D with positive dims, got shape {arr.shape}")
    return _frozen(arr)


def _int64_labels(labels) -> np.ndarray:
    """A fresh int64 copy of integer ``labels``; an empty array may have any dtype."""
    labels = np.asarray(labels)
    if labels.size and not np.issubdtype(labels.dtype, np.integer):
        raise ValueError(f"labels must be integers, got dtype {labels.dtype}")
    # Only uint64 holds labels that int64 cannot.
    if labels.dtype == np.uint64 and labels.size and labels.max() > np.iinfo(np.int64).max:
        raise ValueError(f"label {labels.max()} does not fit in int64")
    return labels.astype(np.int64)


#: Sample dtypes a plane keeps; it widens every other real dtype to float64.
_PIXEL_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))
#: Label dtypes a mask keeps; it widens every other integer dtype to int64.
_LABEL_DTYPES = (np.dtype(np.uint8), np.dtype(np.uint16), np.dtype(np.uint32))


def _adopt(cls, arr: np.ndarray):
    """A ``cls`` (:class:`ImagePlane` or :class:`LabelMask`) that holds
    ``arr`` itself: checked alike, but without the copy that keeps a
    caller's array from changing under it.  Only for an array nothing else
    holds, such as a raster loader's fresh read."""
    obj = object.__new__(cls)
    obj._hold(arr, copy=False)
    return obj


@dataclass(frozen=True, eq=False)
class ImagePlane:
    """One imaging channel: a 2-D grid of finite real intensities.

    float32 and float64 values keep their width; other real dtypes are
    widened to float64.  Values loaded from integer file formats are
    normalized to [0, 1]; in-memory construction accepts any finite floats.
    """

    pixels: np.ndarray

    def __post_init__(self):
        self._hold(self.pixels, copy=True)

    def _hold(self, pixels, copy: bool) -> None:
        arr = np.asarray(pixels)
        # Complex would lose its imaginary part and strings would be parsed.
        if arr.dtype.kind not in "biuf":
            raise ValueError(f"image values must be real numbers, got dtype {arr.dtype}")
        dtype = arr.dtype if arr.dtype in _PIXEL_DTYPES else np.float64
        with np.errstate(invalid="ignore"):  # a signalling NaN warns; it is rejected below
            arr = _grid(arr.astype(dtype, copy=copy), "image")
            # The extremes carry any NaN or infinity, without an image-sized mask.
            if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
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
    uint8, uint16 and uint32 labels keep their width; other integer dtypes
    are widened to int64.
    """

    labels: np.ndarray

    def __post_init__(self):
        self._hold(self.labels, copy=True)

    def _hold(self, labels, copy: bool) -> None:
        arr = np.asarray(labels)
        if arr.dtype in _LABEL_DTYPES:
            arr = arr.astype(arr.dtype, copy=copy)
        else:
            arr = _int64_labels(arr)
        arr = _grid(arr, "mask")
        if arr.dtype.kind == "i" and arr.min(initial=0) < 0:
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
        mask = np.array(self.local_mask, dtype=bool, order="C")
        label = _check_int("object label", self.label, 1)
        r0, c0, r1, c1 = bbox = tuple(_check_int("bbox", v, 0) for v in self.bbox)
        if mask.shape != (r1 - r0 + 1, c1 - c0 + 1):
            raise ValueError("local_mask shape does not match bbox")
        if not mask.any():
            raise ValueError("object region must contain at least one pixel")
        if not (mask[0].any() and mask[-1].any() and mask[:, 0].any() and mask[:, -1].any()):
            raise ValueError("bbox is not tight around local_mask")
        object.__setattr__(self, "label", label)
        object.__setattr__(self, "bbox", bbox)
        object.__setattr__(self, "local_mask", _frozen(mask))

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
        if not np.all(labels[1:] > labels[:-1]):
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
    spans all of them; no connectivity split is performed.  The cost
    follows the count of foreground pixels, never the label values.
    """
    labels = mask.labels
    # Flat indices of a boolean are faster to find than 2-D ones of labels.
    flat = np.flatnonzero(labels.ravel() > 0)
    if flat.size == 0:
        return []
    # A stable sort by label keeps each label's pixels in row-major order, so
    # the first pixel of a label's run holds its smallest row.
    values = labels.ravel()[flat]
    order = np.argsort(values, kind="stable")
    values = values[order]
    rows, cols = np.divmod(flat[order], mask.width)
    starts = np.flatnonzero(np.diff(values, prepend=0))
    boxes = zip(values[starts].tolist(), rows[starts].tolist(),
                np.minimum.reduceat(cols, starts).tolist(),
                np.maximum.reduceat(rows, starts).tolist(),
                np.maximum.reduceat(cols, starts).tolist())
    return [
        ObjectRegion(label=label, bbox=(r0, c0, r1, c1),
                     local_mask=labels[r0 : r1 + 1, c0 : c1 + 1] == label)
        for label, r0, c0, r1, c1 in boxes
    ]


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
    # One running maximum in the planes' common dtype, so float32 stays float32.
    out = np.array(stack[0].pixels, dtype=np.result_type(*(p.pixels for p in stack)))
    for plane in stack[1:]:
        np.maximum(out, plane.pixels, out=out)
    return _adopt(ImagePlane, out)


def _check_int(name: str, value, low: int, high: float = math.inf) -> int:
    """``value`` as a Python int; ValueError unless it is an integer but no
    bool (anything else ``operator.index`` takes) in [low, high]."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if not low <= value <= high:
        bound = f">= {low}" if high == math.inf else f"in [{low}, {high}]"
        raise ValueError(f"{name} must be {bound}")
    return value


def _check_real(name: str, value, low: float = -math.inf, high: float = math.inf) -> float:
    """``value`` as a Python float; ValueError unless it is a Python or NumPy
    real or a ``Fraction`` but no bool (an int past the float range is an
    infinity) in [low, high], which NaN never is."""
    if isinstance(value, (bool, np.bool_)) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    try:
        value = float(value)
    except OverflowError:
        value = math.inf if value > 0 else -math.inf
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low:g}, {high:g}], got {value!r}")
    return value


def _top_exponent(rows: np.ndarray) -> np.ndarray:
    """The binary exponent of each row's largest finite magnitude, 0 if none."""
    return np.frexp(np.abs(rows).max(axis=-1, initial=0.0, where=np.isfinite(rows)))[1]


def _scaled(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``rows`` times 2**-e, C-ordered, and e, :func:`_top_exponent`: scaled,
    the largest magnitude is in [0.5, 1), so squares stay in range, and a
    power of two changes no bit of a result in the normal range."""
    exponent = _top_exponent(rows)
    return np.ldexp(rows, -exponent[..., None], order="C"), exponent


def _restored(value: float, exponent: int) -> float:
    """``value`` times 2**exponent, the inverse of :func:`_scaled`'s factor;
    :data:`MISSING` when the product is past the float range."""
    try:
        return math.ldexp(value, exponent)
    except OverflowError:
        return MISSING


def _median_and_mad(values: np.ndarray, exponent: int) -> tuple[np.ndarray, int, float, float]:
    """``values`` times 2**-shift, the shift, and their median and median
    absolute deviation from it, at that scale: the one order-statistics
    rule.  From a largest magnitude of 2**1021 up, the mean of the two
    middle values, a deviation, a quartile's interpolation or 1.4826 * MAD
    can overflow, so the shift is e - 1021 (at most 3) for e, the ``exponent``
    of that magnitude; below, it is 0.  It moves no value of 2**-1019 or
    more below the normal range, so each keeps its bits and a power of two
    changes no bit of a result.  Callers restore a median or quartile with
    ``math.ldexp`` and the MAD with :func:`_restored`."""
    shift = max(0, exponent - 1021)
    part = np.ldexp(values, -shift) if shift else values
    median = float(np.median(part))
    return part, shift, median, float(np.median(np.abs(part - median)))


def object_values(region: ObjectRegion, plane: ImagePlane) -> tuple[np.ndarray, np.ndarray, int]:
    """``plane``'s values on ``region``'s mask, in row-major order and
    widened to float64, and the same values times 2**-e with e, the
    exponent of their largest magnitude: see :func:`_scaled`.  Features
    that scale with the plane are restored from the scaled values with
    ``math.ldexp``."""
    values = region.crop(plane.pixels)[region.local_mask].astype(np.float64, copy=False)
    scaled, exponent = _scaled(values)
    return values, scaled, int(exponent)


def _column_distance(padded: np.ndarray, dtype) -> np.ndarray:
    """Distance from each pixel of ``padded``, whose first and last rows are
    False, to the nearest False pixel in its column."""
    n = padded.shape[0]
    index = np.arange(n, dtype=dtype)[:, None]
    above = np.maximum.accumulate(np.where(padded, 0, index), axis=0)
    below = np.minimum.accumulate(np.where(padded, n - 1, index)[::-1], axis=0)[::-1]
    return np.minimum(index - above, below - index)


#: Rows per strip of :func:`_edt`, each of which bounds its own offsets.
_EDT_STRIP = 128


def _band(line_max: np.ndarray, offsets: np.ndarray) -> tuple[list[int], list[int]]:
    """For each offset o, the first index of ``line_max`` above o and one
    past the last, from its running maxima from either end."""
    first = np.searchsorted(np.maximum.accumulate(line_max), offsets, "right")
    past = line_max.size - np.searchsorted(np.maximum.accumulate(line_max[::-1]), offsets, "right")
    return first.tolist(), past.tolist()


def _edt(padded: np.ndarray) -> np.ndarray:
    """Exact Euclidean distance from each True pixel of ``padded``, a mask
    inside a one-pixel False border, in row-major order, to the nearest
    False one: integer squared distances, then one square root."""
    height, stride = padded.shape
    dtype = np.int32 if height**2 + stride**2 < 2**31 else np.int64
    g = _column_distance(padded, dtype)
    # d2 = min over offsets o of g*g at columns c +- o, plus o*o.  With h the
    # distance to the nearest False pixel in the row, the bound b = min(g, h)
    # gives d2 <= b*b, so only offsets below b can lower it.
    bound = np.minimum(g, _column_distance(padded.T, dtype).T)
    d2 = (bound * bound).ravel()
    g *= g
    g2 = g.ravel()
    near = np.empty(_EDT_STRIP * stride, dtype)
    # Each offset runs over one contiguous flat range per strip of rows, from
    # the first row and column of the strip whose bound exceeds it to the
    # last.  A read at flat index p -+ o may wrap into the next or previous
    # row only where the column is within o of the False border, so h < o:
    # the candidate, at least o*o, leaves such a pixel's d2 as it is.  Every
    # other candidate is a squared distance to a False pixel.
    for start in range(0, height, _EDT_STRIP):
        strip = bound[start : start + _EDT_STRIP]
        top = int(strip.max())
        if top < 2:
            continue
        offsets = np.arange(1, top)
        rows = zip(*_band(strip.max(axis=1), offsets))
        cols = zip(*_band(strip.max(axis=0), offsets))
        for offset, (r0, r1), (c0, c1) in zip(offsets.tolist(), rows, cols):
            lo, hi = (start + r0) * stride + c0, (start + r1 - 1) * stride + c1
            out = near[: hi - lo]
            np.minimum(g2[lo - offset : hi - offset], g2[lo + offset : hi + offset], out=out)
            out += offset * offset
            np.minimum(d2[lo:hi], out, out=d2[lo:hi])
    return np.sqrt(d2.reshape(padded.shape)[padded], dtype=np.float64)


#: Angular wedges of pi/4 around the centroid, starting at angle -pi.
WEDGES = 8


def _octant(dr: np.ndarray, dc: np.ndarray) -> np.ndarray:
    """The index of the :data:`WEDGES` that holds the direction (dr, dc),
    each wedge closed at its start; (0, 0) is in wedge 4.  Exact on integers
    and floats alike: signs and comparisons only, no angle."""
    # A half turn maps the angles in [-pi, 0), and pi with them, onto [0, pi).
    lower = (dr < 0) | ((dr == 0) & (dc < 0))
    y, x = np.where(lower, -dr, dr), np.where(lower, -dc, dc)
    # Count the wedge starts at pi/4, pi/2 and 3pi/4 that the angle has passed.
    passed = (y >= x).astype(np.int64) + (x <= 0) + (y <= -x)
    return np.where(y > 0, passed, 0) + 4 * ~lower


class MaskGeometry:
    """Every mask-only value of one object, from its boolean ``mask``.

    Arrays are read-only; per-pixel ones are in ``mask[mask]`` (row-major)
    order.  ``rows`` and ``cols`` are the int64 pixel coordinates, and
    ``count``, ``row_sum`` and ``col_sum`` their exact count and sums.
    The rest are computed on first use:

    * ``deviations``: (n*row - row_sum, n*col - col_sum) with n = count,
      exact integers that keep geometry derived from them bitwise
      reproducible under translation and 90-degree rotation; float64,
      without that guarantee, where they could overflow int64.
    * ``padded``: the mask inside a one-pixel False border.
    * ``edge``: whether each pixel is on the crack boundary: has a 4-neighbor outside the mask.
    * ``distance``: Euclidean distance to the nearest background pixel,
      counting everything outside the bbox as background; exact, the
      square root of an integer squared distance.
    * ``rho``: the normalized radius Dc / (Dc + De), Dc the distance to
      the centroid and De ``distance``; 0 when both are 0.
    * ``wedge``: the index in 0..7 of the :data:`WEDGES` around the centroid,
      an exact octant from the deviations' signs and magnitudes.
    """

    def __init__(self, mask: np.ndarray):
        self.mask = _frozen(mask.view())
        self.rows, self.cols = (_frozen(i.astype(np.int64, copy=False)) for i in np.nonzero(mask))
        self.count = self.rows.size
        self.row_sum, self.col_sum = int(self.rows.sum()), int(self.cols.sum())

    @cached_property
    def deviations(self) -> tuple[np.ndarray, np.ndarray]:
        n = self.count
        dtype = np.int64 if n * max(self.mask.shape) < 2**31 else np.float64
        return (_frozen(n * self.rows.astype(dtype, copy=False) - self.row_sum),
                _frozen(n * self.cols.astype(dtype, copy=False) - self.col_sum))

    @cached_property
    def padded(self) -> np.ndarray:
        padded = np.zeros((self.mask.shape[0] + 2, self.mask.shape[1] + 2), dtype=bool)
        padded[1:-1, 1:-1] = self.mask  # np.pad costs more on small masks
        return _frozen(padded)

    @cached_property
    def edge(self) -> np.ndarray:
        p = self.padded
        interior = p[:-2, 1:-1] & p[2:, 1:-1] & p[1:-1, :-2] & p[1:-1, 2:]
        return _frozen(~interior[self.mask])

    @cached_property
    def distance(self) -> np.ndarray:
        return _frozen(_edt(self.padded))

    @cached_property
    def rho(self) -> np.ndarray:
        dr, dc = self.deviations
        d_center = np.sqrt((dr * dr + dc * dc).astype(np.float64)) / self.count
        denom = d_center + self.distance
        with np.errstate(invalid="ignore", divide="ignore"):
            return _frozen(np.where(denom > 0, d_center / denom, 0.0))

    @cached_property
    def wedge(self) -> np.ndarray:
        return _frozen(_octant(*self.deviations))


@lru_cache(maxsize=1)
def mask_geometry(region: ObjectRegion) -> MaskGeometry:
    """The :class:`MaskGeometry` of ``region``'s mask.  The last one is kept,
    so the families measuring one region share it."""
    return MaskGeometry(region.local_mask)
