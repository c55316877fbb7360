"""Family registry and deterministic, memory-bounded batch executor.

Each measurement family is one :class:`Family` record in ``REGISTRY``.
One generator, ``_steps``, expands an experiment into its measurements,
(family, params, channels) in column order; table columns and per-object
values both read it and the same key list, so they cannot drift apart.
The feature catalog and experiment validation loop over the same records.

Objects are measured in ascending-label batches.  Determinism is
structural: labels ascend, families keep registry order, a family of
arity k runs over ``itertools.combinations(channels, k)`` in declaration
order, and every measurement is a pure function of one object's cropped
data.  A batch comes back as one block of value rows, written at its
first row's index whatever order batches finish in, so the output tables
are byte-identical for any worker count or batch size.

Workers receive the object set name, family names, their params, the
channel names and, per object, its region and its bbox crops as image
planes rather than whole images, which bounds the peak working set by
batch size and image size instead of the total object count.  A family
that fails names the object set, label, family and channels it failed
on.  Channel families run the public ``measure_X`` functions on the
object's region in its crop's frame, so the pipeline and a direct call
measure the same way.
"""

from __future__ import annotations

import dataclasses
import itertools
import re
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from . import coloc, granularity, intensity, radial, shape, texture
from .core import FeatureTable, ImagePlane, LabelMask, ObjectRegion, extract_objects

#: One value of a family: (dict key, column feature, column suffix, catalog param text).
Key = tuple[str, str, str, str]


@dataclass(frozen=True)
class Family:
    """One measurement family: everything the engine knows about it."""

    name: str
    #: Column token, e.g. ``RadialDistribution``.
    token: str
    #: Channels per measurement: 0 mask only, 1 one channel, 2 a channel pair.
    arity: int
    #: The ExperimentSpec field holding the family's params; None if it has none.
    params_field: str | None
    keys: Callable[[Any], list[Key]]
    #: (region, planes of the measured channels, params) -> {dict key: value}.
    #: Channel families get crop planes and the region in the crop's frame.
    measure: Callable[[ObjectRegion, tuple[ImagePlane, ...], Any], dict[str, float]]


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
    Family(
        "shape", "Shape", 0, "shape_params", _shape_keys,
        lambda region, planes, p: shape.measure_shape(region, p),
    ),
    Family(
        "intensity", "Intensity", 1, None, lambda p: _plain(intensity.FEATURES),
        lambda region, planes, p: intensity.measure_intensity(region, *planes),
    ),
    Family(
        "texture", "Texture", 1, "texture_params",
        lambda p: _plain(texture.FEATURES, f"d{p.distance}_g{p.gray_levels}", _param_text(p)),
        lambda region, planes, p: texture.measure_texture(region, *planes, p),
    ),
    Family(
        "granularity", "Granularity", 1, "granularity_params",
        lambda p: _plain(map(str, range(1, p.spectrum_length + 1)), text=_param_text(p)),
        lambda region, planes, p: granularity.measure_granularity(region, *planes, p),
    ),
    Family(
        "radial", "RadialDistribution", 1, "radial_params",
        # Key "FracAtD_1of4" is column feature "FracAtD" with suffix "1of4".
        lambda p: [(key, *key.split("_"), _param_text(p)) for key in radial.feature_keys(p)],
        lambda region, planes, p: radial.measure_radial(region, *planes, p),
    ),
    Family(
        "coloc", "Coloc", 2, "coloc_params",
        lambda p: _plain(coloc.FEATURES, text=_param_text(p)),
        lambda region, planes, p: coloc.measure_coloc(region, *planes, p),
    ),
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


def _steps(families, params, channel_names):
    """(record, its params, channel names) per measurement, in column order;
    ``params`` maps spec field names to values."""
    for family in map(_BY_NAME.get, families):
        for chans in itertools.combinations(channel_names, family.arity):
            yield family, params.get(family.params_field), chans


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything the engine needs to featurize one experiment."""

    channels: tuple[tuple[str, ImagePlane], ...]
    object_sets: tuple[tuple[str, LabelMask], ...]
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
        if self.batch_size < 1:
            raise SpecValidationError("batch_size must be >= 1")
        if self.workers < 1:
            raise SpecValidationError("workers must be >= 1")
        for name in self.families:
            arity = _BY_NAME[name].arity
            if arity > len(self.channels):
                raise SpecValidationError(f"{name} needs at least {_NEEDS[arity]}")

    @property
    def channel_names(self) -> tuple[str, ...]:
        return tuple(name for name, _ in self.channels)


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
        for family, params, chans in _steps(spec.families, vars(spec), spec.channel_names)
        for _, feature, suffix, _ in family.keys(params)
    ]


def _measure_batch(payload) -> np.ndarray:
    """Worker entry point: measure a batch of pre-cropped objects into one
    float64 block of rows, in batch order.

    ``payload`` is (object set name, family names, {spec field: params},
    channel names, objects); each object is (region, {channel name:
    ImagePlane of its bbox crop}).  Channel families see the region in its
    crop's frame.  An error inside a family is raised again as a
    RuntimeError naming the object set, label, family and channels,
    chained to the original.
    """
    set_name, families, params, channel_names, objects = payload
    steps = [
        (family, family_params, [key for key, *_ in family.keys(family_params)], chans)
        for family, family_params, chans in _steps(families, params, channel_names)
    ]
    block = []
    for region, crops in objects:
        h, w = region.local_mask.shape
        local = ObjectRegion(region.label, (0, 0, h - 1, w - 1), region.local_mask)
        row: list[float] = []
        for family, family_params, keys, chans in steps:
            # Shape keeps the global region: its Centroid_Row/Col add the bbox offset.
            target = local if chans else region
            try:
                values = family.measure(target, tuple(crops[ch] for ch in chans), family_params)
                row.extend(values[key] for key in keys)
            except Exception as exc:
                where = f"object set {set_name}, label {region.label}, family {family.name}"
                if chans:
                    where += f", channel{'s' * (len(chans) > 1)} {','.join(chans)}"
                raise RuntimeError(f"{where}: {type(exc).__name__}: {exc}") from exc
        block.append(row)
    return np.array(block, dtype=np.float64)


def _blocks(workers: int, payloads):
    """(batch start, value block) per (start, payload), as batches finish.

    One worker measures in-process.  A pool keeps at most workers + 1
    batches in flight, so memory tracks batch_size, and takes whichever
    finishes first, so no worker idles behind a slow batch.
    """
    if workers <= 1:
        for start, payload in payloads:
            yield start, _measure_batch(payload)
        return
    with ProcessPoolExecutor(max_workers=workers) as pool:
        pending = {}
        while True:
            for start, payload in itertools.islice(payloads, workers + 1 - len(pending)):
                pending[pool.submit(_measure_batch, payload)] = start
            if not pending:
                return
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                yield pending.pop(future), future.result()


def run(spec: ExperimentSpec) -> list[FeatureTable]:
    """Measure every object set; one table per set, rows by ascending label.

    Output is identical (to the byte, after serialization) for any
    (batch_size, workers) combination.
    """
    params = {name: getattr(spec, name) for name in _DEFAULT_PARAMS}
    config = (spec.families, params, spec.channel_names)
    # A shape-only run reads no channel, so it crops none.
    channel_families = any(_BY_NAME[name].arity for name in spec.families)
    planes = {name: plane.pixels for name, plane in spec.channels} if channel_families else {}
    tables = []
    for set_name, mask in spec.object_sets:
        regions = extract_objects(mask)
        columns = table_columns(spec, set_name)
        values = np.empty((len(regions), len(columns)), dtype=np.float64)
        starts = range(0, len(regions), spec.batch_size)
        # Crops are copied into image planes batch by batch, only as the batches are consumed.
        payloads = (
            (start, (set_name, *config, [
                (region, {name: ImagePlane(region.crop(arr)) for name, arr in planes.items()})
                for region in regions[start : start + spec.batch_size]
            ]))
            for start in starts
        )
        # No more workers than batches; a single batch is measured in-process.
        for start, block in _blocks(min(spec.workers, len(starts)), payloads):
            values[start : start + len(block)] = block
        tables.append(FeatureTable(set_name, columns, [r.label for r in regions], values))
    return tables


_DEFAULT_PARAMS = {
    f.name: f.default_factory()
    for f in dataclasses.fields(ExperimentSpec)
    if f.name in {family.params_field for family in REGISTRY}
}


def feature_catalog(families=FAMILIES, **params) -> list[tuple[str, str, str, str]]:
    """(name, family, input kind, params) rows describing every feature
    the named families produce, channel placeholders elided.

    ``params`` takes the ExperimentSpec params fields (``texture_params=``
    and so on); omitted ones keep their defaults.
    """
    unknown = set(params) - set(_DEFAULT_PARAMS)
    if unknown:
        raise TypeError(f"unknown params fields: {sorted(unknown)}")
    params = {**_DEFAULT_PARAMS, **params}
    return [
        (f"{family.token}_{key}", family.token, _INPUT_KINDS[family.arity], text)
        for family in map(_BY_NAME.get, _canonical(families))
        for key, _, _, text in family.keys(params.get(family.params_field))
    ]
