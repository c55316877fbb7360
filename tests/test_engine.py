import itertools

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
from morphoprof.engine import FAMILIES, REGISTRY, feature_catalog
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
    crops = (region.crop(plane_a.pixels), region.crop(plane_b.pixels))
    for family in REGISTRY:
        params = getattr(spec, family.params_field) if family.params_field else None
        keys = [key for key, *_ in family.keys(params)]
        assert list(family.measure(region, crops[: family.arity], params)) == keys, family.name
        assert list(public[family.name](params)) == keys, family.name


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
        row = table.row(label)
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
    rows = feature_catalog(spec.families)
    assert len(rows) == 44 + 12 + 13 + 16 + 12 + 5
    families = {family for _, family, _, _ in rows}
    assert families == {
        "Shape", "Intensity", "Texture", "Granularity", "RadialDistribution", "Coloc",
    }


def test_catalog_rejects_unknown_params_field():
    with pytest.raises(TypeError, match="texture_param"):
        feature_catalog(texture_param=TextureParams(distance=2))
