"""Family registry and deterministic, memory-bounded batch executor.

Each measurement family is one :class:`Family` record in ``REGISTRY``.
Table columns, per-object values, the feature catalog and experiment
validation are generic loops over those records, and columns and values
are read from the same key list, so they cannot drift apart.

Objects are measured in ascending-label batches.  Determinism is
structural: labels ascend, families keep registry order, a family of
arity k runs over ``itertools.combinations(channels, k)`` in declaration
order, and every measurement is a pure function of one object's cropped
data, so the output tables are byte-identical for any worker count or
batch size.

Workers receive family names, their params, the channel names and
per-object bbox crops rather than whole images, which bounds the peak
working set by batch size and image size instead of the total object
count.
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
    #: (region, crops of the measured channels, params) -> {dict key: value}.
    measure: Callable[[ObjectRegion, tuple[np.ndarray, ...], Any], dict[str, float]]


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
        lambda region, crops, p: shape.measure_shape(region, p),
    ),
    Family(
        "intensity", "Intensity", 1, None, lambda p: _plain(intensity.FEATURES),
        lambda region, crops, p: intensity.intensity_from_crop(region.local_mask, *crops),
    ),
    Family(
        "texture", "Texture", 1, "texture_params",
        lambda p: _plain(texture.FEATURES, f"d{p.distance}_g{p.gray_levels}", _param_text(p)),
        lambda region, crops, p: texture.texture_from_crop(region.local_mask, *crops, p),
    ),
    Family(
        "granularity", "Granularity", 1, "granularity_params",
        lambda p: _plain(map(str, range(1, p.spectrum_length + 1)), text=_param_text(p)),
        lambda region, crops, p: granularity.granularity_from_crop(region.local_mask, *crops, p),
    ),
    Family(
        "radial", "RadialDistribution", 1, "radial_params",
        # Key "FracAtD_1of4" is column feature "FracAtD" with suffix "1of4".
        lambda p: [(key, *key.split("_"), _param_text(p)) for key in radial.feature_keys(p)],
        lambda region, crops, p: radial.radial_from_crop(region.local_mask, *crops, p),
    ),
    Family(
        "coloc", "Coloc", 2, "coloc_params",
        lambda p: _plain(coloc.FEATURES, text=_param_text(p)),
        lambda region, crops, p: coloc.coloc_from_crops(region.local_mask, *crops, p),
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


def _enabled(families, params) -> list[tuple[Family, Any]]:
    """(record, params) per family name; ``params`` maps spec field names to values."""
    return [(_BY_NAME[f], params.get(_BY_NAME[f].params_field)) for f in families]


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
        shapes = [plane.pixels.shape for _, plane in self.channels]
        shapes += [mask.labels.shape for _, mask in self.object_sets]
        if len(set(shapes)) > 1:
            raise SpecValidationError(f"planes/masks are not dimension-aligned: {shapes}")
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
    cols = []
    for family, params in _enabled(spec.families, vars(spec)):
        keys = family.keys(params)
        for chans in itertools.combinations(spec.channel_names, family.arity):
            cols.extend(
                feature_name(object_set, family.token, feature, chans, suffix)
                for _, feature, suffix, _ in keys
            )
    return cols


def _measure_batch(payload):
    """Worker entry point: measure a batch of pre-cropped objects.

    ``payload`` is (family names, their params, channel names, objects);
    each object is (region, {channel name: bbox crop}).
    """
    names, params, channel_names, objects = payload
    steps = []
    for name, family_params in zip(names, params):
        family = _BY_NAME[name]
        keys = [key for key, *_ in family.keys(family_params)]
        steps.extend(
            (family.measure, family_params, keys, chans)
            for chans in itertools.combinations(channel_names, family.arity)
        )
    rows = []
    for region, crops in objects:
        row: list[float] = []
        for measure, family_params, keys, chans in steps:
            values = measure(region, tuple(crops[ch] for ch in chans), family_params)
            row.extend(values[key] for key in keys)
        rows.append((region.label, np.asarray(row, dtype=np.float64)))
    return rows


def run(spec: ExperimentSpec) -> list[FeatureTable]:
    """Measure every object set; one table per set, rows by ascending label.

    Output is identical (to the byte, after serialization) for any
    (batch_size, workers) combination.
    """
    enabled = _enabled(spec.families, vars(spec))
    config = (spec.families, tuple(params for _, params in enabled), spec.channel_names)
    planes = {}
    if any(family.arity for family, _ in enabled):
        planes = {name: plane.pixels for name, plane in spec.channels}
    tables = []
    for set_name, mask in spec.object_sets:
        regions = extract_objects(mask)
        columns = table_columns(spec, set_name)
        labels = np.asarray([r.label for r in regions], dtype=np.int64)
        row_of = {label: i for i, label in enumerate(labels.tolist())}
        values = np.empty((len(regions), len(columns)), dtype=np.float64)
        # Crops are copied batch by batch, only as the batches are consumed.
        payloads = (
            (*config, [
                (region, {name: region.crop(arr).copy() for name, arr in planes.items()})
                for region in regions[i : i + spec.batch_size]
            ])
            for i in range(0, len(regions), spec.batch_size)
        )
        if spec.workers == 1:
            for payload in payloads:
                for label, row in _measure_batch(payload):
                    values[row_of[label]] = row
        else:
            _run_parallel(spec.workers, payloads, row_of, values)
        tables.append(
            FeatureTable(
                object_set=set_name,
                columns=tuple(columns),
                labels=labels,
                values=values,
            )
        )
    return tables


def _run_parallel(workers, payloads, row_of, values) -> None:
    # Keep a bounded number of batches in flight so memory tracks
    # batch_size, not the total object count.
    def drain(done):
        for future in done:
            for label, row in future.result():
                values[row_of[label]] = row

    pending = set()
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for payload in payloads:
            if len(pending) >= workers + 1:
                done, pending = wait(pending, return_when=FIRST_COMPLETED)
                drain(done)
            pending.add(pool.submit(_measure_batch, payload))
        drain(pending)


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
    rows = []
    for family, family_params in _enabled(_canonical(families), {**_DEFAULT_PARAMS, **params}):
        rows.extend(
            (f"{family.token}_{key}", family.token, _INPUT_KINDS[family.arity], text)
            for key, _, _, text in family.keys(family_params)
        )
    return rows
