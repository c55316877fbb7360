import morphoprof as mp

#: The public surface; adding or dropping a name changes this list.
PUBLIC_NAMES = [
    "ColocParams",
    "ComparisonReport",
    "ExperimentSpec",
    "FeatureTable",
    "FormatError",
    "GranularityParams",
    "HexGridParams",
    "ImagePlane",
    "LabelMask",
    "MISSING",
    "ObjectRegion",
    "RadialParams",
    "ShapeParams",
    "SpecValidationError",
    "TextureParams",
    "compare_tables",
    "correlation_filter",
    "extract_objects",
    "feature_catalog",
    "feature_name",
    "filter_by_coverage",
    "glcm",
    "gray_open",
    "hex_tessellation",
    "load_image",
    "load_mask",
    "max_project",
    "measure_coloc",
    "measure_granularity",
    "measure_intensity",
    "measure_radial",
    "measure_shape",
    "measure_texture",
    "quantize",
    "read_table",
    "robust_standardize",
    "run",
    "save_image",
    "save_mask",
    "table_columns",
    "write_report",
    "write_table",
]


def test_public_surface_is_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(mp.__all__) == PUBLIC_NAMES
    assert len(set(mp.__all__)) == len(mp.__all__) == 42
    for name in PUBLIC_NAMES:
        assert hasattr(mp, name), name
