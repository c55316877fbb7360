"""Granular spectrum via iterative grayscale erosion with reconstruction.

The object's background is first removed with a grayscale opening
(tophat); the residue is then eroded one disk-radius step at a time,
each erosion is reconstructed under the image that entered the step,
and the spectrum records the percentage of the starting mean intensity
lost at each step.

All operators are mask-aware: pixels outside the object behave as +inf
for erosion and -inf for dilation, so values never leak across the
object boundary.  They run on guarded buffers: the crop with a band of
the operator's identity (+inf or -inf) on every side and off the mask,
so every neighbour is a plain array slice.

Two kernels carry the cost, and both give exactly the values of the
plain definitions, because min and max only select values:

* Disk erosion and dilation build centered row runs of half-width
  h = 0..R one step at a time, run_h[j] = op(run_{h-1}[j-1],
  run_{h-1}[j+1]) (the centre is folded in at h = 1), and as each
  half-width is reached fold in the row-shifted run of every disk row
  that wide.  Only the current run and the output are alive.
* Reconstruction iterates dense 3x3 dilations, each two three-way max
  passes over slices of the -inf-guarded state, while many pixels
  change.  On crops of at least ``_SPARSE_MIN_SIZE`` pixels it then
  switches to a sparse front that revisits only the neighbours of the
  pixels changed by the last iteration, in the manner of L. Vincent's
  hybrid algorithm (IEEE TIP 2(2), 1993).  A pixel with no changed
  neighbour cannot change, so the front goes through the same sequence
  of states as the dense iteration.

``measure_granularity`` allocates one set of guarded buffers per object
and channel (the image entering the step, the limit it sets and the
reconstruction state) and runs every step in place on it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ImagePlane, ObjectRegion, _check_int


#: Reconstruction switches to the sparse front on crops of at least this
#: many pixels (dense iteration was faster below about 1,000 px) ...
_SPARSE_MIN_SIZE = 1024
#: ... once fewer than one pixel in this many changed in an iteration.
_SPARSE_RATIO = 16


@dataclass(frozen=True)
class GranularityParams:
    spectrum_length: int = 16
    background_radius: int = 10

    def __post_init__(self):
        length = _check_int("spectrum_length", self.spectrum_length, 1, 64)
        radius = _check_int("background_radius", self.background_radius, 1)
        object.__setattr__(self, "spectrum_length", length)
        object.__setattr__(self, "background_radius", radius)


@lru_cache(maxsize=None)
def disk_footprint(radius: int) -> np.ndarray:
    """Boolean disk {(dr, dc): dr^2 + dc^2 <= radius^2}, built once per
    radius and read-only."""
    span = np.arange(-radius, radius + 1)
    disk = span[:, None] ** 2 + span[None, :] ** 2 <= radius * radius
    disk.flags.writeable = False
    return disk


@lru_cache(maxsize=None)
def _disk_rows(radius: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """For each half-width h = 0..radius: (reach, rows), where rows are the
    disk rows dr spanning columns -h..h and every row with |dr| <= reach
    is at least that wide."""
    halves = disk_footprint(radius).sum(axis=1) // 2
    span = np.arange(-radius, radius + 1)
    return tuple(
        (
            int(np.abs(span[halves >= h]).max()),
            tuple(span[halves == h].tolist()),
        )
        for h in range(radius + 1)
    )


def _guarded(values: np.ndarray, mask: np.ndarray, pad: int, fill: float) -> np.ndarray:
    """``values`` on the mask, ``fill`` off it and in a band ``pad`` pixels
    wide on every side."""
    height, width = mask.shape
    out = np.full((height + 2 * pad, width + 2 * pad), fill)
    np.copyto(out[pad : pad + height, pad : pad + width], values, where=mask)
    return out


def _disk_filter(padded: np.ndarray, radius: int, op, out: np.ndarray) -> None:
    """Write into ``out`` the ``op`` (np.minimum or np.maximum) of ``padded``
    over the disk; ``padded`` is ``out``'s shape plus a ``radius`` guard
    band of op's identity on every side."""
    height, width = out.shape
    run, top = padded, 0  # run[i, k] = op(padded[top + i, k : k + 2h + 1])
    first = True
    for h, (reach, rows) in enumerate(_disk_rows(radius)):
        if h:
            # Rows further than reach from the output rows are never read again.
            prev = run[radius - reach - top : radius + reach + height - top]
            top = radius - reach
            run = op(prev[:, :-2], prev[:, 2:])
            if h == 1:
                op(run, prev[:, 1:-1], out=run)
        for dr in rows:
            row = radius + dr - top
            block = run[row : row + height, radius - h : radius - h + width]
            if first:
                np.copyto(out, block)
                first = False
            else:
                op(out, block, out=out)


def gray_erode(values: np.ndarray, mask: np.ndarray, radius: int) -> np.ndarray:
    """Masked grayscale erosion by a disk; off-mask output is 0."""
    radius = min(radius, sum(mask.shape))  # holds every offset within the crop
    eroded = np.empty(mask.shape)
    _disk_filter(_guarded(values, mask, radius, np.inf), radius, np.minimum, eroded)
    return np.where(mask, eroded, 0.0)


def gray_dilate(values: np.ndarray, mask: np.ndarray, radius: int) -> np.ndarray:
    """Masked grayscale dilation by a disk; off-mask output is 0."""
    radius = min(radius, sum(mask.shape))  # holds every offset within the crop
    dilated = np.empty(mask.shape)
    _disk_filter(_guarded(values, mask, radius, -np.inf), radius, np.maximum, dilated)
    return np.where(mask, dilated, 0.0)


def gray_open(values: np.ndarray, mask: np.ndarray, radius: int) -> np.ndarray:
    """Masked grayscale opening (erosion then dilation) by a disk."""
    return gray_dilate(gray_erode(values, mask, radius), mask, radius)


def gray_reconstruct(marker: np.ndarray, limit: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Reconstruction by dilation: iterate marker <- min(dilate3x3(marker), limit)
    until stable.  Requires marker <= limit (no NaN) on the mask; off-mask output is 0.

    The iterations run dense over the whole crop, then, once few pixels
    change on a large crop, as a sparse front over the changed pixels'
    neighbours (see the module docstring); both produce the same states.
    """
    state = _guarded(marker, mask, 1, -np.inf)
    _reconstruct(state, _guarded(limit, mask, 1, -np.inf))
    return np.where(mask, state[1:-1, 1:-1], 0.0)


def _reconstruct(state: np.ndarray, limit: np.ndarray) -> None:
    """Reconstruct in place: ``state`` and ``limit`` are -inf off the mask
    and in a one-pixel band around the crop."""
    # NaN fails the comparison too; with it the iteration would never settle.
    if not np.all(state <= limit):
        raise ValueError("marker must not exceed limit, and neither may be NaN, on the mask")
    inner, bound = state[1:-1, 1:-1], limit[1:-1, 1:-1]
    size = inner.size
    across = np.empty((state.shape[0], inner.shape[1]))
    grown = np.empty(inner.shape)
    moved = np.empty(inner.shape, dtype=bool)
    while True:
        np.maximum(state[:, :-2], state[:, 2:], out=across)
        np.maximum(across, state[:, 1:-1], out=across)
        np.maximum(across[:-2], across[2:], out=grown)
        np.maximum(grown, across[1:-1], out=grown)
        np.minimum(grown, bound, out=grown)
        np.not_equal(grown, inner, out=moved)
        count = np.count_nonzero(moved)
        if count == 0:
            return
        inner[...] = grown
        if size >= _SPARSE_MIN_SIZE and count * _SPARSE_RATIO < size:
            _reconstruct_front(state, limit, moved)
            return


def _reconstruct_front(state: np.ndarray, limit: np.ndarray, moved: np.ndarray) -> None:
    """Continue the dense iteration in place from ``state``, in which the
    pixels ``moved`` changed.

    Values only rise, and after one dense step each pixel below its limit
    holds the max of its previous neighbourhood, so the next value of q is
    max(q, min(p, limit(q)) for each neighbour p changed last).  Each
    changed pixel offers its value to its 8 neighbours; only offers that
    raise a neighbour are applied, and those neighbours form the next front.
    """
    stride = state.shape[1]
    flat, bound = state.reshape(-1), limit.reshape(-1)
    slot = np.empty(flat.size, dtype=np.intp)
    around = (np.arange(-1, 2)[:, None] * stride + np.arange(-1, 2)).ravel()
    around = around[around != 0]
    rows, cols = np.nonzero(moved)
    changed = (rows + 1) * stride + cols + 1
    while changed.size:
        targets = (changed[:, None] + around).ravel()
        offers = np.minimum(np.repeat(flat[changed], around.size), bound[targets])
        rise = offers > flat[targets]
        targets, offers = targets[rise], offers[rise]
        np.maximum.at(flat, targets, offers)
        # Deduplicate without sorting: one occurrence of each target keeps its slot.
        order = np.arange(targets.size)
        slot[targets] = order
        changed = targets[slot[targets] == order]


def measure_granularity(
    region: ObjectRegion, plane: ImagePlane, params: GranularityParams = GranularityParams()
) -> dict[str, float]:
    """Granular spectrum of one region; keys are the step indexes "1".."L"."""
    local_mask = region.local_mask
    crop = region.crop(plane.pixels)
    length = params.spectrum_length
    keys = [str(i) for i in range(1, length + 1)]
    # Each step erodes the entering image (+inf off the mask) into the
    # state, which becomes the next entering image and is reconstructed
    # under the limit (the image that entered, -inf off the mask).  The
    # first limit is the residue of the opening, which lives only there.
    limit = _guarded(
        np.maximum(0.0, crop - gray_open(crop, local_mask, params.background_radius)),
        local_mask, 1, -np.inf,
    )
    inner_limit = limit[1:-1, 1:-1]
    start = float(inner_limit[local_mask].mean())
    if start == 0.0:
        return {k: 0.0 for k in keys}

    entering = np.full_like(limit, np.inf)
    inner_entering = entering[1:-1, 1:-1]
    np.copyto(inner_entering, inner_limit, where=local_mask)
    state = np.full_like(limit, -np.inf)
    inner = state[1:-1, 1:-1]
    outside = ~local_mask
    out = {}
    prev_mean = start
    for key in keys:
        _disk_filter(entering, 1, np.minimum, inner)
        np.copyto(inner, -np.inf, where=outside)
        np.copyto(inner_entering, inner, where=local_mask)
        _reconstruct(state, limit)
        mean = float(inner[local_mask].mean())
        out[key] = 100.0 * (prev_mean - mean) / start
        prev_mean = mean
        np.copyto(inner_limit, inner_entering, where=local_mask)
    return out
