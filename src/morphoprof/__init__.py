"""morphoprof: deterministic per-object feature extraction for image-based profiling.

The package turns (channel images, label masks) into per-object feature
tables covering shape, intensity, texture, granularity, radial
distribution and colocalization, with a streaming parallel executor,
table post-processing, an R^2 fidelity-comparison harness, and a
hexagonal tessellation generator.
"""

from .coloc import ColocParams, measure_coloc
from .core import (
    MISSING,
    FeatureTable,
    ImagePlane,
    LabelMask,
    ObjectRegion,
    extract_objects,
    max_project,
)
from .engine import (
    ExperimentSpec,
    SpecValidationError,
    feature_catalog,
    feature_name,
    run,
    table_columns,
)
from .granularity import GranularityParams, measure_granularity
from .intensity import measure_intensity
from .postprocess import (
    ComparisonReport,
    compare_tables,
    correlation_filter,
    robust_standardize,
    write_report,
)
from .radial import RadialParams, measure_radial
from .raster_io import (
    FormatError,
    load_image,
    load_mask,
    read_table,
    save_image,
    save_mask,
    write_table,
)
from .shape import ShapeParams, measure_shape
from .tessellate import HexGridParams, filter_by_coverage, hex_tessellation
from .texture import TextureParams, measure_texture

__version__ = "0.1.0"

__all__ = [
    "MISSING",
    "ColocParams",
    "ComparisonReport",
    "ExperimentSpec",
    "FeatureTable",
    "FormatError",
    "GranularityParams",
    "HexGridParams",
    "ImagePlane",
    "LabelMask",
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
    "read_table",
    "robust_standardize",
    "run",
    "save_image",
    "save_mask",
    "table_columns",
    "write_report",
    "write_table",
]
