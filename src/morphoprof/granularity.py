"""Granular spectrum via iterative grayscale erosion with reconstruction.

The object's background is first removed with a grayscale opening
(tophat); the residue is then eroded one disk-radius step at a time,
each erosion is reconstructed under the image that entered the step,
and the spectrum records the percentage of the starting mean intensity
lost at each step.

All operators are mask-aware: pixels outside the object behave as +inf
for erosion and -inf for dilation, so values never leak across the
object boundary.  The values are the scaled ones of
:func:`~morphoprof.core.object_values`: the spectrum is a ratio.

Erosion, dilation and reconstruction only compare and select, so they
run on the values' integer ranks (:func:`_ranks`), int16 or int32, which
move a quarter or half of float64's bytes: each ranking's table turns
ranks back into float64 values for the opening's subtraction and for the
step means, which are therefore bitwise those of float64 kernels.  The
kernels run on guarded buffers: the object's ranks with a band of the
operator's identity (a rank above or below every other) on every side
and off the mask, so every neighbour is a plain array slice.

Two kernels carry the cost, and both give exactly the values of the
plain definitions, because min and max only select values:

* Disk erosion and dilation build centered row runs of half-width
  h = 0..R one step at a time, run_h[j] = op(run_{h-1}[j-1],
  run_{h-1}[j+1]) (the centre is folded in at h = 1), and as each
  half-width is reached fold in the row-shifted run of every disk row
  that wide.  Only the current run and the output are alive.
* Reconstruction iterates dense 3x3 dilations, each two three-way max
  passes over slices of the bottom-guarded state, while many pixels
  change.  On crops of at least ``_SPARSE_MIN_SIZE`` pixels it then
  switches to a sparse front that revisits only the neighbours of the
  pixels changed by the last iteration, in the manner of L. Vincent's
  hybrid algorithm (IEEE TIP 2(2), 1993).  A pixel with no changed
  neighbour cannot change, so the front goes through the same sequence
  of states as the dense iteration.

``measure_granularity`` allocates every buffer and runs the kernels in
place: the opening on its own buffer of the values' ranks, guarded as
wide as the disk (top, then bottom), the steps on one set of one-pixel
guarded buffers of the residue's ranks (the image entering the step, the
limit it sets and the reconstruction state).  A step whose erosion
changed nothing, tested before reconstructing, ends the iteration: each
later step would erode the same image, so records 0.0.  Reconstruction
runs only here, on ranks: marker <= limit, and no NaN on the mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .core import ImagePlane, ObjectRegion, _check_int, object_values


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


def feature_keys(params: GranularityParams = GranularityParams()) -> list[str]:
    return [str(i) for i in range(1, params.spectrum_length + 1)]


# Bounded: a background_radius past the crops gives each crop size its own
# opening radius, height + width.  Default settings use at most 10 radii:
# 1 for the steps and 2..10 for the opening.
@lru_cache(maxsize=16)
def _disk_rows(radius: int) -> tuple[tuple[int, tuple[int, ...]], ...]:
    """For each half-width h = 0..radius: (reach, rows), where rows are the
    disk rows dr spanning columns -h..h and every row with |dr| <= reach
    is at least that wide.  In the disk {dr^2 + dc^2 <= radius^2}, row dr
    spans isqrt(radius^2 - dr^2) columns on each side, so reach is
    isqrt(radius^2 - h^2)."""
    rows = [[] for _ in range(radius + 1)]
    for dr in range(-radius, radius + 1):
        rows[math.isqrt(radius * radius - dr * dr)].append(dr)
    return tuple((math.isqrt(radius * radius - h * h), tuple(rows[h])) for h in range(radius + 1))


def _ranks(values: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.integer, np.integer]:
    """(keys, table, top, bottom): the ranks of ``values``, int16 below
    32,767 distinct values and int32 above, the sorted distinct values that
    map them back (``table[keys]`` is ``values``), and guards above and
    below every rank.

    -0.0 and 0.0 compare equal and share a rank, which the spectrum cannot
    tell: values that differ only in the sign of zeros give sums that
    differ only when they are zero, and a step whose previous and current
    means are both zero records +0.0 either way.
    """
    order = np.argsort(values)
    ordered = values[order]
    new = np.empty(values.size, dtype=bool)
    new[:1] = True
    np.not_equal(ordered[1:], ordered[:-1], out=new[1:])
    table = ordered[new]
    dtype = next(t for t in (np.int16, np.int32, np.int64) if table.size < np.iinfo(t).max)
    keys = np.empty(values.size, dtype)
    keys[order] = np.cumsum(new, dtype=dtype) - 1
    info = np.iinfo(dtype)
    return keys, table, dtype(info.max), dtype(info.min)


def _guarded(keys: np.ndarray, mask: np.ndarray, pad: int, fill) -> np.ndarray:
    """The on-mask ``keys`` (row-major) on the mask, ``fill`` off it and
    in a band ``pad`` pixels wide on every side."""
    height, width = mask.shape
    out = np.full((height + 2 * pad, width + 2 * pad), fill, dtype=keys.dtype)
    out[pad : pad + height, pad : pad + width][mask] = keys
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


def _reconstruct(state: np.ndarray, limit: np.ndarray) -> None:
    """Reconstruct in place: ``state`` and ``limit`` hold a value below
    every on-mask one (-inf, or a rank's bottom guard) off the mask and in
    a one-pixel band around the crop.  The caller guarantees ``state`` <=
    ``limit`` and no NaN on the mask; with a NaN it would never settle."""
    inner, bound = state[1:-1, 1:-1], limit[1:-1, 1:-1]
    across = np.empty((state.shape[0], inner.shape[1]), state.dtype)
    grown = np.empty(inner.shape, state.dtype)
    # Guarded like ``state``, so the front reads padded flat indices off it.
    changed = np.zeros(state.shape, dtype=bool)
    moved = changed[1:-1, 1:-1]
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
        if inner.size >= _SPARSE_MIN_SIZE and count * _SPARSE_RATIO < inner.size:
            _reconstruct_front(state, limit, np.flatnonzero(changed))
            return


def _reconstruct_front(state: np.ndarray, limit: np.ndarray, changed: np.ndarray) -> None:
    """Continue the dense iteration in place from ``state``, in which the
    pixels at flat indices ``changed`` changed.

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
    while changed.size:
        targets = changed[:, None] + around
        offers = np.minimum(flat[changed][:, None], bound[targets]).ravel()
        targets = targets.ravel()
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
    _, values, _ = object_values(region, plane)
    out = dict.fromkeys(feature_keys(params), 0.0)
    # The background is the opening: an erosion, then a dilation, by the
    # disk on one buffer guarded as wide as the disk.  A radius of height +
    # width holds every offset within the crop, so larger ones cost no more.
    radius = min(params.background_radius, sum(local_mask.shape))
    ranks, table, top, bottom = _ranks(values)
    padded = _guarded(ranks, local_mask, radius, top)
    opened = np.empty(local_mask.shape, ranks.dtype)
    _disk_filter(padded, radius, np.minimum, opened)
    padded.fill(bottom)
    np.copyto(padded[radius:-radius, radius:-radius], opened, where=local_mask)
    _disk_filter(padded, radius, np.maximum, opened)
    values -= table.take(opened[local_mask])
    np.maximum(0.0, values, out=values)
    # Each step erodes the entering image (top off the mask) into the state,
    # which becomes the next entering image and is reconstructed under the
    # limit (the image that entered, bottom off the mask).  The first limit
    # is the residue of the opening, which lives only there.
    ranks, table, top, bottom = _ranks(values)
    limit = _guarded(ranks, local_mask, 1, bottom)
    count = values.size
    start = float(values.sum()) / count
    del padded, opened, values, ranks  # freed before the steps, so they add nothing to the peak
    inner_limit = limit[1:-1, 1:-1]
    if start == 0.0:
        return out

    entering = np.full_like(limit, top)
    inner_entering = entering[1:-1, 1:-1]
    np.copyto(inner_entering, inner_limit, where=local_mask)
    state = np.full_like(limit, bottom)
    inner = state[1:-1, 1:-1]
    outside = ~local_mask
    mean = start
    for key in out:
        _disk_filter(entering, 1, np.minimum, inner)
        np.copyto(inner, bottom, where=outside)
        np.copyto(inner_entering, inner, where=local_mask)
        # An erosion that changed nothing is its own reconstruction, and each
        # later step would record 100 * (mean - mean) / start, the 0.0 it holds.
        settled = np.array_equal(state, limit)
        if not settled:
            _reconstruct(state, limit)
        # np.mean's own arithmetic, the sum over the count, without its wrapper.
        prev_mean, mean = mean, float(table.take(inner[local_mask]).sum()) / count
        # Rounding can carry a step that takes all that is left past 100.
        out[key] = min(100.0, 100.0 * (prev_mean - mean) / start)
        if settled:
            break
        np.copyto(inner_limit, inner_entering, where=local_mask)
    return out
