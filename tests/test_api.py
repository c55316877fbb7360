import re
import subprocess
import sys
from pathlib import Path

import morphoprof as mp

README = Path(__file__).parents[1] / "README.md"

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


def test_public_surface_is_pinned():
    assert PUBLIC_NAMES == sorted(PUBLIC_NAMES)
    assert sorted(mp.__all__) == PUBLIC_NAMES
    assert len(set(mp.__all__)) == len(mp.__all__) == 39
    for name in PUBLIC_NAMES:
        assert hasattr(mp, name), name


def test_every_public_name_is_listed_in_the_readme():
    # The README's "Public API" section names each public name, and no other.
    text = README.read_text(encoding="utf-8")
    section = text.split("\n## Public API\n", 1)[1].split("\n## ", 1)[0]
    assert sorted(set(re.findall(r"`([A-Za-z_]\w*)`", section))) == sorted(mp.__all__)


def test_import_leaves_the_process_pool_out():
    # The pool's imports (multiprocessing, logging, socket, ...) wait for a
    # run with more than one worker.
    src = str(Path(__file__).parents[1] / "src")
    code = (f"import sys; sys.path.insert(0, {src!r}); import morphoprof; "
            "print('multiprocessing' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.strip() == "False"
