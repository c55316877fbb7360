import numpy as np
import pytest

from morphoprof import ImagePlane, LabelMask, extract_objects


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def region_of(bool_mask):
    """Single ObjectRegion from a full-image boolean mask."""
    labels = np.where(np.asarray(bool_mask, dtype=bool), 1, 0).astype(np.int64)
    (region,) = extract_objects(LabelMask(labels))
    return region


def plane_of(values):
    return ImagePlane(np.asarray(values, dtype=np.float64))


def row_of(table, label):
    """The cells of ``table``'s row for ``label``, by column name."""
    (index,) = np.flatnonzero(table.labels == label)
    return dict(zip(table.columns, table.values[index]))


def assert_close(actual, expected, rel=1e-9, abs_tol=1e-12, label=""):
    """Relative comparison with an absolute floor, NaN == NaN."""
    if np.isnan(expected) and np.isnan(actual):
        return
    err = abs(actual - expected)
    bound = max(abs_tol, rel * abs(expected))
    assert err <= bound, f"{label}: {actual} != {expected} (err {err:.3e} > {bound:.3e})"


def assert_feature_maps_close(actual, expected, rel=1e-9, abs_tol=1e-12):
    assert set(actual) == set(expected)
    for key in expected:
        assert_close(actual[key], expected[key], rel=rel, abs_tol=abs_tol, label=key)
