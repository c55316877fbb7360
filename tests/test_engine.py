import dataclasses
import itertools
from concurrent.futures import Future

import numpy as np
import pytest

from morphoprof import (
    ColocParams,
    ExperimentSpec,
    GranularityParams,
    ImagePlane,
    LabelMask,
    RadialParams,
    ShapeParams,
    SpecValidationError,
    TextureParams,
    extract_objects,
    feature_name,
    measure_coloc,
    measure_granularity,
    measure_intensity,
    measure_radial,
    measure_shape,
    measure_texture,
    run,
    table_columns,
    write_table,
)
from morphoprof import coloc, engine, intensity, shape
from morphoprof.engine import FAMILIES, REGISTRY, feature_catalog
from conftest import row_of
from synth import experiment


def tiny_spec(n_channels=3, n_sets=2, families=FAMILIES, **kw):
    rng = np.random.default_rng(7)
    channels = tuple(
        (f"Chan{i + 1}", ImagePlane(rng.random((12, 12)))) for i in range(n_channels)
    )
    sets = []
    for s in range(n_sets):
        mask = np.zeros((12, 12), dtype=np.int64)
        mask[1 + s : 4 + s, 2:5] = 1
        mask[7:10, 6 + s : 9 + s] = 4
        sets.append((f"set{s + 1}", LabelMask(mask)))
    return ExperimentSpec(
        channels=channels, object_sets=tuple(sets), families=families, **kw
    )


def measurements(spec):
    """(object set, family, channels) for every measurement the registry
    expands the experiment into, in canonical order."""
    return [
        (set_name, family.name, chans)
        for set_name, _ in spec.object_sets
        for family in REGISTRY
        if family.name in spec.families
        for chans in itertools.combinations(spec.channel_names, family.arity)
    ]


def test_plan_counts_all_families():
    tasks = measurements(tiny_spec(n_channels=3, n_sets=2))
    assert len(tasks) == 2 + 2 * 3 * 4 + 2 * 3
    shape_tasks = [t for t in tasks if t[1] == "shape"]
    assert all(chans == () for _, _, chans in shape_tasks)
    coloc_tasks = [t for t in tasks if t[1] == "coloc"]
    assert [chans for _, _, chans in coloc_tasks][:3] == [
        ("Chan1", "Chan2"),
        ("Chan1", "Chan3"),
        ("Chan2", "Chan3"),
    ]


def test_plan_shape_only_single_task():
    tasks = measurements(tiny_spec(n_channels=2, n_sets=1, families=("shape",)))
    assert len(tasks) == 1


NON_DEFAULT_PARAMS = dict(
    shape_params=ShapeParams(zernike_max_order=4),
    texture_params=TextureParams(distance=2, gray_levels=5),
    granularity_params=GranularityParams(spectrum_length=5, background_radius=4),
    radial_params=RadialParams(bins=3),
    coloc_params=ColocParams(manders_threshold_frac=0.3),
)


def test_measure_keys_follow_registry_key_list():
    spec = tiny_spec(n_channels=2, n_sets=1, **NON_DEFAULT_PARAMS)
    region = extract_objects(spec.object_sets[0][1])[0]
    plane_a, plane_b = (plane for _, plane in spec.channels)
    public = {
        "shape": lambda p: measure_shape(region, p),
        "intensity": lambda p: measure_intensity(region, plane_a),
        "texture": lambda p: measure_texture(region, plane_a, p),
        "granularity": lambda p: measure_granularity(region, plane_a, p),
        "radial": lambda p: measure_radial(region, plane_a, p),
        "coloc": lambda p: measure_coloc(region, plane_a, plane_b, p),
    }
    assert tuple(public) == FAMILIES
    planes = (plane_a, plane_b)
    for family in REGISTRY:
        params = getattr(spec, family.params_field) if family.params_field else None
        keys = [key for key, *_ in family.keys(params)]
        assert list(family.measure(region, planes[: family.arity], params)) == keys, family.name
        assert list(public[family.name](params)) == keys, family.name


def test_run_measures_through_public_functions_on_crop_planes(monkeypatch):
    """Each object and channel is one call of the public measure_intensity,
    with the region in its crop's frame and a plane of the crop's size."""
    calls = []

    def recording(region, plane):
        calls.append((region, plane))
        return measure_intensity(region, plane)

    monkeypatch.setattr(intensity, "measure_intensity", recording)
    spec = tiny_spec(n_channels=2, n_sets=1, families=("intensity",), workers=1)
    (table,) = run(spec)
    regions = extract_objects(spec.object_sets[0][1])
    assert len(calls) == len(regions) * len(spec.channels) == table.n_rows * 2
    for (region, plane), expected in zip(calls, [r for r in regions for _ in spec.channels]):
        assert region.label == expected.label
        assert region.bbox[:2] == (0, 0)
        assert np.array_equal(region.local_mask, expected.local_mask)
        assert isinstance(plane, ImagePlane)
        assert plane.pixels.shape == region.local_mask.shape


def test_coloc_requires_two_channels():
    with pytest.raises(SpecValidationError, match="two channels"):
        tiny_spec(n_channels=1, families=("coloc",))


def test_channel_family_requires_channels():
    with pytest.raises(SpecValidationError):
        tiny_spec(n_channels=0, families=("intensity",))


def test_unknown_family_rejected():
    with pytest.raises(SpecValidationError, match="unknown"):
        tiny_spec(families=("shape", "gabor"))


def test_bad_names_rejected():
    rng = np.random.default_rng(0)
    plane = ImagePlane(rng.random((4, 4)))
    mask = LabelMask(np.ones((4, 4), dtype=np.int64))
    with pytest.raises(SpecValidationError, match="must match"):
        ExperimentSpec(
            channels=(("bad name", plane),),
            object_sets=(("cells", mask),),
            families=("shape",),
        )
    with pytest.raises(SpecValidationError, match="unique"):
        ExperimentSpec(
            channels=(("DNA", plane), ("DNA", plane)),
            object_sets=(("cells", mask),),
            families=("shape",),
        )


def test_misaligned_dims_rejected():
    rng = np.random.default_rng(0)
    with pytest.raises(SpecValidationError, match="aligned"):
        ExperimentSpec(
            channels=(("DNA", ImagePlane(rng.random((4, 5)))),),
            object_sets=(("cells", LabelMask(np.ones((4, 4), dtype=np.int64))),),
            families=("shape",),
        )
    # The message names the first misaligned input and the one it differs from, as W x H.
    dna, er = ImagePlane(rng.random((4, 5))), ImagePlane(rng.random((5, 4)))
    cells = LabelMask(np.ones((4, 4), dtype=np.int64))
    for channels, message in (
        ((("DNA", dna), ("ER", dna)), "object set cells is 4x4, not aligned with channel DNA (5x4)"),
        ((("DNA", dna), ("ER", er)), "channel ER is 4x5, not aligned with channel DNA (5x4)"),
    ):
        with pytest.raises(SpecValidationError) as excinfo:
            ExperimentSpec(channels=channels, object_sets=(("cells", cells),), families=("shape",))
        assert str(excinfo.value) == message


def test_feature_name_grammar():
    assert (
        feature_name("nuclei", "Texture", "Contrast", ("DNA",), "d1_g8")
        == "nuclei_Texture_Contrast_DNA_d1_g8"
    )
    assert feature_name("cells", "Shape", "Area") == "cells_Shape_Area"
    assert (
        feature_name("cells", "Coloc", "MandersM1", ("DNA", "RNA"))
        == "cells_Coloc_MandersM1_DNA_RNA"
    )


def test_feature_names_are_injective():
    spec = tiny_spec(n_channels=3, n_sets=2)
    seen = set()
    for set_name, _ in spec.object_sets:
        cols = table_columns(spec, set_name)
        assert len(cols) == len(set(cols))
        seen.update(cols)
    assert len(seen) == 2 * len(table_columns(spec, "set1"))


def test_family_order_is_canonical_regardless_of_input_order():
    spec = tiny_spec(families=("coloc", "shape", "radial"))
    assert spec.families == ("shape", "radial", "coloc")
    cols = table_columns(spec, "set1")
    assert cols[0].startswith("set1_Shape_")
    assert cols[-1].startswith("set1_Coloc_")


def test_run_is_deterministic_across_workers_and_batching(tmp_path):
    spec_a = experiment(n_objects=12, size=64, seed=3, workers=1, batch_size=100)
    spec_b = experiment(n_objects=12, size=64, seed=3, workers=4, batch_size=1)
    spec_c = experiment(n_objects=12, size=64, seed=3, workers=2, batch_size=5)
    outputs = []
    for i, spec in enumerate((spec_a, spec_b, spec_c)):
        (table,) = run(spec)
        path = tmp_path / f"{i}.csv"
        write_table(table, path)
        outputs.append(path.read_bytes())
    assert outputs[0] == outputs[1] == outputs[2]



def test_pool_never_has_more_workers_than_batches(tmp_path, monkeypatch):
    built = []

    class RecordingPool(engine.ProcessPoolExecutor):
        def __init__(self, max_workers):
            built.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(engine, "ProcessPoolExecutor", RecordingPool)

    def csv_bytes(workers, batch_size):
        spec = experiment(n_objects=12, size=64, seed=3, workers=workers, batch_size=batch_size)
        (table,) = run(spec)
        path = tmp_path / f"{workers}-{batch_size}.csv"
        write_table(table, path)
        return path.read_bytes(), len(extract_objects(spec.object_sets[0][1]))

    reference, n_objects = csv_bytes(1, 256)
    # One batch: measured in-process whatever the worker count.
    assert csv_bytes(4, 256)[0] == reference
    assert built == []
    assert csv_bytes(4, 5)[0] == reference
    assert built == [min(4, -(-n_objects // 5))] == [3]


def test_blocks_land_by_batch_start_whatever_order_batches_finish(tmp_path, monkeypatch):
    """A pool that finishes the newest submitted batch first, synchronously,
    gives the in-process bytes, with at most workers + 1 batches in flight."""
    submitted, finished, in_flight = [], [], []

    class NewestFirstPool:
        def __init__(self, max_workers):
            pass

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, payload):
            submitted.append((Future(), fn, payload))
            return submitted[-1][0]

    def newest_first(pending, return_when):
        in_flight.append(len(pending))
        index = max(i for i, (future, _, _) in enumerate(submitted) if future in pending)
        future, fn, payload = submitted[index]
        future.set_result(fn(payload))
        finished.append(index)
        return {future}, set(pending) - {future}

    monkeypatch.setattr(engine, "ProcessPoolExecutor", NewestFirstPool)
    monkeypatch.setattr(engine, "wait", newest_first)

    def csv_bytes(workers):
        spec = experiment(n_objects=12, size=64, seed=3, workers=workers, batch_size=3)
        (table,) = run(spec)
        path = tmp_path / f"{workers}.csv"
        write_table(table, path)
        return path.read_bytes()

    reference = csv_bytes(1)
    assert submitted == []
    assert csv_bytes(2) == reference
    n_batches = len(submitted)
    assert n_batches >= 3
    assert sorted(finished) == list(range(n_batches))
    assert finished != sorted(finished)
    assert max(in_flight) == 2 + 1


def test_empty_mask_gives_header_only_table(tmp_path):
    rng = np.random.default_rng(0)
    spec = ExperimentSpec(
        channels=(("DNA", ImagePlane(rng.random((8, 8)))),),
        object_sets=(("cells", LabelMask(np.zeros((8, 8), dtype=np.int64))),),
        families=("shape", "intensity"),
    )
    (table,) = run(spec)
    assert table.n_rows == 0
    assert len(table.columns) == 44 + 12
    path = tmp_path / "t.csv"
    write_table(table, path)
    assert path.read_text().count("\n") == 1


def test_each_cell_equals_direct_single_object_call():
    spec = experiment(n_objects=10, size=64, seed=11, workers=2, batch_size=3)
    (table,) = run(spec)
    (set_name, mask) = spec.object_sets[0]
    planes = dict(spec.channels)
    regions = {r.label: r for r in extract_objects(mask)}
    assert set(regions) == set(table.labels.tolist())
    for label, region in regions.items():
        row = row_of(table, label)
        direct = {}
        shape_vals = measure_shape(region, spec.shape_params)
        direct.update({f"{set_name}_Shape_{k}": v for k, v in shape_vals.items()})
        for ch, plane in planes.items():
            for k, v in measure_intensity(region, plane).items():
                direct[f"{set_name}_Intensity_{k}_{ch}"] = v
            for k, v in measure_texture(region, plane, spec.texture_params).items():
                direct[f"{set_name}_Texture_{k}_{ch}_d1_g8"] = v
            for k, v in measure_granularity(region, plane, spec.granularity_params).items():
                direct[f"{set_name}_Granularity_{k}_{ch}"] = v
            for k, v in measure_radial(region, plane, spec.radial_params).items():
                stat, bins = k.split("_")
                direct[f"{set_name}_RadialDistribution_{stat}_{ch}_{bins}"] = v
        for ch_a, ch_b in itertools.combinations(planes, 2):
            vals = measure_coloc(region, planes[ch_a], planes[ch_b], spec.coloc_params)
            for k, v in vals.items():
                direct[f"{set_name}_Coloc_{k}_{ch_a}_{ch_b}"] = v
        assert set(direct) == set(table.columns)
        for name in table.columns:
            got = row[name]
            want = direct[name]
            assert (np.isnan(got) and np.isnan(want)) or got == want, name


def test_row_and_column_shape():
    spec = tiny_spec(n_channels=2, n_sets=2)
    tables = run(spec)
    assert [t.object_set for t in tables] == ["set1", "set2"]
    for table, (_, mask) in zip(tables, spec.object_sets):
        assert table.n_rows == len(extract_objects(mask))
        assert list(table.columns) == table_columns(spec, table.object_set)


def test_catalog_row_count_default_params():
    spec = tiny_spec(n_channels=2, n_sets=1)
    rows = feature_catalog(spec)
    assert len(rows) == 44 + 12 + 13 + 16 + 12 + 5
    families = {family for _, family, _, _ in rows}
    assert families == {
        "Shape", "Intensity", "Texture", "Granularity", "RadialDistribution", "Coloc",
    }


def test_catalog_rejects_unknown_params_field():
    with pytest.raises(TypeError, match="texture_param"):
        ExperimentSpec(texture_param=TextureParams(distance=2))


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "module, name, where",
    [
        (shape, "measure_shape", "family shape:"),
        (intensity, "measure_intensity", "family intensity, channel Chan1:"),
        (coloc, "measure_coloc", "family coloc, channels Chan1,Chan2:"),
    ],
)
def test_family_error_names_object_set_label_family_and_channels(
    monkeypatch, workers, module, name, where
):
    spec = experiment(n_objects=12, size=64, seed=3, workers=workers, batch_size=3)
    label = extract_objects(spec.object_sets[0][1])[7].label
    measure = getattr(module, name)

    def failing(region, *args):
        if region.label == label:
            return 1.0 / 0.0
        return measure(region, *args)

    monkeypatch.setattr(module, name, failing)
    with pytest.raises(RuntimeError) as excinfo:
        run(spec)
    message = str(excinfo.value)
    assert f"object set cells, label {label}, {where}" in message
    assert message.endswith("ZeroDivisionError: float division by zero")
    # In-process the cause is the error itself; from a pool worker it is the
    # worker's traceback, which names it.
    assert "ZeroDivisionError" in repr(excinfo.value.__cause__)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("e", [-700, 1000])
def test_intensity_and_radial_at_extreme_but_finite_magnitudes(e):
    # Planes x 2^-700 made StdIntensity and RadialCV drift; x 2^1000 leaked
    # non-finite cells into both, with a NumPy overflow warning.
    spec = experiment(n_objects=60, size=128, seed=3, families=("intensity", "radial"))
    scaled = dataclasses.replace(spec, channels=tuple(
        (name, ImagePlane(np.ldexp(plane.pixels, e))) for name, plane in spec.channels
    ))
    (base,), (got,) = run(spec), run(scaled)
    assert got.columns == base.columns
    for j, column in enumerate(base.columns):
        if "_StdIntensity_" in column:
            np.testing.assert_array_equal(got.values[:, j], np.ldexp(base.values[:, j], e))
        elif "_RadialDistribution_" in column:
            np.testing.assert_array_equal(got.values[:, j], base.values[:, j])
    assert not (np.isfinite(base.values) & ~np.isfinite(got.values)).any()
