"""Family registry and deterministic, memory-bounded batch executor.

Each measurement family is one :class:`Family` record in ``REGISTRY``.
One generator, ``_steps``, expands an experiment into its measurements,
(family, params, channels) in column order; table columns and per-object
values both read it and the same key list, so they cannot drift apart.
The feature catalog and experiment validation loop over the same records.

Objects are measured in ascending-label batches.  Determinism is
structural: labels ascend, families keep registry order, a family of
arity k runs over ``itertools.combinations(channels, k)`` in declaration
order, and every measurement is a pure function of one object's region
and the pixels in its bbox.  A batch comes back as one block of value rows, written at its
first row's index whatever order batches finish in, so the output tables
are byte-identical for any worker count or batch size.

A :class:`Family` names its module, and the engine calls that module's
one entry point, ``measure_<name>``, on the object's own region, the
spec's planes and its ``<name>_params``, so the pipeline and a direct call
measure the same way and no pixel is copied up front.  A batch carries
the object set name, the expanded steps as (family name, params, channel
names) and the batch's regions, never pixels; each pool worker gets the
planes once, when it starts.  A family that fails names the object set,
label, family and channels it failed on.
"""

from __future__ import annotations

import dataclasses
import itertools
import os
import re
from dataclasses import dataclass, field
from types import ModuleType
from typing import Any, Callable

import numpy as np

from . import coloc, granularity, intensity, radial, shape, texture
from .core import FeatureTable, ImagePlane, LabelMask, ObjectRegion, _check_int, extract_objects

#: One value of a family: (dict key, column feature, column suffix, catalog param text).
Key = tuple[str, str, str, str]


@dataclass(frozen=True)
class Family:
    """One measurement family: its module and how its values become columns."""

    #: ``morphoprof.<name>``, whose ``measure_<name>`` measures the family.
    module: ModuleType
    #: Column token, e.g. ``RadialDistribution``.
    token: str
    #: Channels per measurement: 0 mask only, 1 one channel, 2 a channel pair.
    arity: int
    keys: Callable[[Any], list[Key]]

    @property
    def name(self) -> str:
        return self.module.__name__.rpartition(".")[2]

    def params(self, spec: ExperimentSpec):
        """This family's ``<name>_params`` in ``spec``; None if it has none."""
        return getattr(spec, f"{self.name}_params", None)

    def measure(self, region: ObjectRegion, planes: tuple[ImagePlane, ...], params):
        """``measure_<name>(region, *planes[, params])``: {dict key: value}."""
        measure = getattr(self.module, f"measure_{self.name}")
        return measure(region, *planes, *([] if params is None else [params]))


def _param_text(params) -> str:
    return ";".join(f"{f.name}={getattr(params, f.name)}" for f in dataclasses.fields(params))


def _plain(names, suffix: str = "", text: str = "") -> list[Key]:
    return [(name, name, suffix, text) for name in names]


def _shape_keys(params: shape.ShapeParams) -> list[Key]:
    text = _param_text(params)
    return [
        (key, key, "", text if key.startswith("Zernike") else "")
        for key in shape.feature_keys(params)
    ]


REGISTRY = (
    Family(shape, "Shape", 0, _shape_keys),
    Family(intensity, "Intensity", 1, lambda p: _plain(intensity.FEATURES)),
    Family(
        texture, "Texture", 1,
        lambda p: _plain(texture.FEATURES, f"d{p.distance}_g{p.gray_levels}", _param_text(p)),
    ),
    Family(
        granularity, "Granularity", 1,
        lambda p: _plain(granularity.feature_keys(p), text=_param_text(p)),
    ),
    Family(
        radial, "RadialDistribution", 1,
        # Key "FracAtD_1of4" is column feature "FracAtD" with suffix "1of4".
        lambda p: [(key, *key.split("_"), _param_text(p)) for key in radial.feature_keys(p)],
    ),
    Family(coloc, "Coloc", 2, lambda p: _plain(coloc.FEATURES, text=_param_text(p))),
)

_BY_NAME = {family.name: family for family in REGISTRY}
FAMILIES = tuple(_BY_NAME)
_INPUT_KINDS = ("object", "object+channel", "object+channel_pair")
_NEEDS = ("", "one channel", "two channels")

_NAME_RE = re.compile(r"^[A-Za-z][A-Za-z0-9]*$")


class SpecValidationError(ValueError):
    """An ExperimentSpec violates its invariants (bad names, dims, families)."""


def _canonical(families) -> tuple[str, ...]:
    """Known family names in registry order, however the caller listed them."""
    families = tuple(families)
    unknown = [f for f in families if f not in _BY_NAME]
    if unknown:
        raise SpecValidationError(f"unknown measurement families: {unknown}")
    return tuple(f for f in FAMILIES if f in families)


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the engine needs to featurize one experiment.

    With no channels and no object sets it is a configuration, the one
    source of defaults: ``feature_catalog`` reads it, and
    ``dataclasses.replace`` adds the data to it.
    """

    channels: tuple[tuple[str, ImagePlane], ...] = ()
    object_sets: tuple[tuple[str, LabelMask], ...] = ()
    families: tuple[str, ...] = FAMILIES
    shape_params: shape.ShapeParams = field(default_factory=shape.ShapeParams)
    texture_params: texture.TextureParams = field(default_factory=texture.TextureParams)
    granularity_params: granularity.GranularityParams = field(
        default_factory=granularity.GranularityParams
    )
    radial_params: radial.RadialParams = field(default_factory=radial.RadialParams)
    coloc_params: coloc.ColocParams = field(default_factory=coloc.ColocParams)
    batch_size: int = 256
    workers: int = 1

    def __post_init__(self):
        object.__setattr__(self, "channels", tuple(self.channels))
        object.__setattr__(self, "object_sets", tuple(self.object_sets))
        object.__setattr__(self, "families", _canonical(self.families))
        for name in ("batch_size", "workers"):
            try:
                object.__setattr__(self, name, _check_int(name, getattr(self, name), 1))
            except ValueError as exc:
                raise SpecValidationError(str(exc)) from None
        self._validate()

    def _validate(self):
        names = [name for name, _ in self.channels] + [name for name, _ in self.object_sets]
        for name in names:
            if not _NAME_RE.match(name):
                raise SpecValidationError(
                    f"name {name!r} must match [A-Za-z][A-Za-z0-9]*"
                )
        channel_names = [name for name, _ in self.channels]
        if len(set(channel_names)) != len(channel_names):
            raise SpecValidationError("channel names must be unique")
        set_names = [name for name, _ in self.object_sets]
        if len(set(set_names)) != len(set_names):
            raise SpecValidationError("object set names must be unique")
        dims = [(f"channel {name}", plane.pixels.shape) for name, plane in self.channels]
        dims += [(f"object set {name}", mask.labels.shape) for name, mask in self.object_sets]
        for what, (h, w) in dims[1:]:
            if (h, w) != dims[0][1]:
                first, (h0, w0) = dims[0]
                raise SpecValidationError(
                    f"{what} is {w}x{h}, not aligned with {first} ({w0}x{h0})"
                )
        # Only a spec with object sets measures, so only it needs the channels.
        for name in self.families if self.object_sets else ():
            arity = _BY_NAME[name].arity
            if arity > len(self.channels):
                raise SpecValidationError(f"{name} needs at least {_NEEDS[arity]}")

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.channels)


def _steps(spec: ExperimentSpec):
    """(record, its params, channel names) per measurement, in column order."""
    for family in map(_BY_NAME.get, spec.families):
        for chans in itertools.combinations(spec.channel_names, family.arity):
            yield family, family.params(spec), chans


def feature_name(
    object_set: str,
    family_token: str,
    feature: str,
    channels: tuple[str, ...] = (),
    params: str = "",
) -> str:
    """Column name grammar: ObjectSet_Family_Feature[_Chan[_Chan2]][_params]."""
    parts = [object_set, family_token, feature, *channels]
    if params:
        parts.append(params)
    return "_".join(parts)


def table_columns(spec: ExperimentSpec, object_set: str) -> list[str]:
    """Full canonical column list for one object set's table."""
    return [
        feature_name(object_set, family.token, feature, chans, suffix)
        for family, params, chans in _steps(spec)
        for _, feature, suffix, _ in family.keys(params)
    ]


def _measure_batch(planes: dict[str, ImagePlane], payload) -> np.ndarray:
    """Measure a batch of objects into one float64 block of rows, in batch order.

    ``payload`` is (object set name, steps, regions); each step is (family
    name, params, channel names), and ``planes`` maps channel names to
    the spec's planes.  An error inside a family is raised again as a
    RuntimeError naming the object set, label, family and channels,
    chained to the original.
    """
    set_name, named_steps, regions = payload
    steps = []
    for name, family_params, chans in named_steps:
        family = _BY_NAME[name]
        keys = [key for key, *_ in family.keys(family_params)]
        steps.append((family, family_params, keys, tuple(planes[ch] for ch in chans), chans))
    block = []
    for region in regions:
        row: list[float] = []
        for family, family_params, keys, step_planes, chans in steps:
            try:
                values = family.measure(region, step_planes, family_params)
                row.extend(values[key] for key in keys)
            except Exception as exc:
                where = f"object set {set_name}, label {region.label}, family {family.name}"
                if chans:
                    where += f", channel{'s' * (len(chans) > 1)} {','.join(chans)}"
                raise RuntimeError(f"{where}: {type(exc).__name__}: {exc}") from exc
        block.append(row)
    return np.array(block, dtype=np.float64)


#: A pool worker's planes, set once by ``_start_worker``.
_worker_planes: dict[str, ImagePlane] = {}


def _start_worker(planes: dict[str, ImagePlane]) -> None:
    global _worker_planes
    _worker_planes = planes


def _measure_in_worker(payload) -> np.ndarray:
    return _measure_batch(_worker_planes, payload)


def _blocks(workers: int, planes: dict[str, ImagePlane], payloads):
    """(batch start, value block) per (start, payload), as batches finish.

    One worker measures in-process.  Pool workers get the planes once, at
    start; at most workers + 1 batches are in flight, so memory tracks
    batch_size, and the first to finish is taken, so no worker idles.
    """
    if workers <= 1:
        for start, payload in payloads:
            yield start, _measure_batch(planes, payload)
        return
    # Imported here: the pool's imports (multiprocessing, logging, socket, ...)
    # are about a quarter of the package's import time.
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait

    with ProcessPoolExecutor(workers, initializer=_start_worker, initargs=(planes,)) as pool:
        pending = {}
        while True:
            for start, payload in itertools.islice(payloads, workers + 1 - len(pending)):
                pending[pool.submit(_measure_in_worker, payload)] = start
            if not pending:
                return
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield pending.pop(future), future.result()


def _usable_cpus() -> int | None:
    """The CPUs this process may run on: its CPU affinity where the OS
    reports one, else the machine's count (None if unknown)."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count()


def run(spec: ExperimentSpec) -> list[FeatureTable]:
    """Measure every object set; one table per set, rows by ascending label.

    Output is identical (to the byte, after serialization) for any
    (batch_size, workers) combination.
    """
    steps = [(family.name, params, chans) for family, params, chans in _steps(spec)]
    planes = dict(spec.channels)
    tables = []
    for set_name, mask in spec.object_sets:
        regions = extract_objects(mask)
        columns = table_columns(spec, set_name)
        values = np.empty((len(regions), len(columns)), dtype=np.float64)
        starts = range(0, len(regions), spec.batch_size)
        payloads = ((s, (set_name, steps, regions[s : s + spec.batch_size])) for s in starts)
        # No more workers than batches or CPUs; one worker measures in-process.
        workers = min(spec.workers, len(starts), _usable_cpus() or 1)
        for start, block in _blocks(workers, planes, payloads):
            values[start : start + len(block)] = block
        tables.append(FeatureTable(set_name, columns, [r.label for r in regions], values))
    return tables


def feature_catalog(spec: ExperimentSpec = ExperimentSpec()) -> list[tuple[str, str, str, str]]:
    """(name, family, input kind, params) rows describing every feature
    the spec's families produce with its params, channel placeholders elided."""
    return [
        (f"{family.token}_{key}", family.token, _INPUT_KINDS[family.arity], text)
        for family in map(_BY_NAME.get, spec.families)
        for key, _, _, text in family.keys(family.params(spec))
    ]
