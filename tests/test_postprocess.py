import csv
import math

import numpy as np
import pytest
from conftest import assert_close

from morphoprof import (
    ComparisonReport,
    FeatureTable,
    NormalizeParams,
    compare_tables,
    correlation_filter,
    robust_standardize,
    write_report,
)


def table_from(columns, values, object_set="cells"):
    values = np.asarray(values, dtype=np.float64)
    return FeatureTable(
        object_set=object_set,
        columns=tuple(columns),
        labels=np.arange(1, values.shape[0] + 1),
        values=values,
    )


def test_constant_column_is_dropped():
    table = table_from(["a", "b"], [[1.0, 1.0], [2.0, 1.0], [3.0, 1.0]])
    out = robust_standardize(table)
    assert out.columns == ("a",)


def test_known_median_mad_standardization():
    table = table_from(["a"], [[1.0], [2.0], [3.0], [4.0], [5.0]])
    out = robust_standardize(table)
    assert_close(out.values[4, 0], 2.0 / 1.4826, rel=1e-12)
    assert_close(out.values[4, 0], 1.3489815189532579, rel=1e-12)
    assert out.values[2, 0] == 0.0


def test_standardization_is_scale_idempotent():
    rng = np.random.default_rng(5)
    table = table_from(["a"], rng.standard_normal((41, 1)))
    once = robust_standardize(table)
    twice = robust_standardize(once)
    col = twice.values[:, 0]
    assert_close(float(np.median(col)), 0.0, rel=0, abs_tol=1e-12)
    mad = float(np.median(np.abs(col - np.median(col))))
    assert_close(1.4826 * mad, 1.0, rel=1e-12)


def test_missing_fraction_drop_and_imputation():
    values = np.array(
        [[1.0, 1.0], [2.0, np.nan], [3.0, 3.0], [4.0, 4.0], [5.0, 5.0]]
    )
    table = table_from(["keep", "gappy"], values)
    strict = robust_standardize(table, NormalizeParams(drop_missing_frac=0.05))
    assert strict.columns == ("keep",)
    lax = robust_standardize(table, NormalizeParams(drop_missing_frac=0.5))
    assert lax.columns == ("keep", "gappy")
    assert lax.values[1, 1] == 0.0  # imputed with the post-standardization median


@pytest.mark.filterwarnings("error")
def test_all_missing_column_is_dropped_at_any_missing_frac():
    values = np.array([[1.0, np.nan], [2.0, np.nan], [4.0, np.nan]])
    table = table_from(["keep", "empty"], values)
    out = robust_standardize(table, NormalizeParams(drop_missing_frac=1.0))
    assert out.columns == ("keep",)


def test_empty_table_rejected():
    table = FeatureTable(
        object_set="cells",
        columns=("a",),
        labels=np.array([], dtype=np.int64),
        values=np.empty((0, 1)),
    )
    with pytest.raises(ValueError):
        robust_standardize(table)


def test_duplicate_column_dropped_orthogonal_kept():
    rng = np.random.default_rng(6)
    x = rng.standard_normal(32)
    y = rng.standard_normal(32)
    table = table_from(["x", "x2", "y"], np.column_stack([x, x, y]))
    out = correlation_filter(table, 0.9)
    assert out.columns == ("x", "y")


def test_correlation_filter_matches_greedy_oracle():
    rng = np.random.default_rng(7)
    base = rng.standard_normal((64, 3))
    cols = [
        base[:, 0],
        base[:, 0] + 0.05 * rng.standard_normal(64),
        base[:, 1],
        0.7 * base[:, 0] + 0.7 * base[:, 1],
        base[:, 2],
    ]
    names = [f"f{i}" for i in range(len(cols))]
    table = table_from(names, np.column_stack(cols))
    threshold = 0.9
    kept = []
    for j in range(len(cols)):
        corr = [abs(np.corrcoef(cols[k], cols[j])[0, 1]) for k in kept]
        if not any(c > threshold for c in corr):
            kept.append(j)
    out = correlation_filter(table, threshold)
    assert out.columns == tuple(names[k] for k in kept)
    # No kept pair may exceed the threshold.
    for i in range(len(out.columns)):
        for j in range(i + 1, len(out.columns)):
            corr = abs(np.corrcoef(out.values[:, i], out.values[:, j])[0, 1])
            assert corr <= threshold


def test_threshold_ranges_are_checked_where_read():
    rng = np.random.default_rng(10)
    table = table_from(["a", "b"], rng.standard_normal((8, 2)))
    for threshold in (math.nan, 1.5, -0.1):
        with pytest.raises(ValueError, match="threshold"):
            correlation_filter(table, threshold)
    for frac in (math.nan, 2.0, -0.1):
        with pytest.raises(ValueError, match="drop_missing_frac"):
            NormalizeParams(frac)
    with pytest.raises(ValueError, match="r2_threshold"):
        compare_tables(table, table, r2_threshold=math.nan)
    with pytest.raises(ValueError, match="r2_threshold"):
        ComparisonReport((), math.nan)
    assert compare_tables(table, table, r2_threshold=-1.0).fraction_above == 1.0


def test_self_comparison_r2_is_one():
    rng = np.random.default_rng(8)
    table = table_from(["a", "b"], rng.standard_normal((30, 2)))
    report = compare_tables(table, table)
    assert all(fit.r2 == 1.0 for fit in report.fits)
    assert report.fraction_above == 1.0


def test_affine_map_r2_is_one():
    rng = np.random.default_rng(9)
    values = rng.standard_normal((30, 1))
    a = table_from(["f"], values)
    b = table_from(["f"], 2.0 * values + 3.0)
    report = compare_tables(a, b)
    fit = report.fits[0]
    assert_close(fit.r2, 1.0, rel=1e-12)
    assert_close(fit.slope, 2.0, rel=1e-12)
    assert_close(fit.intercept, 3.0, rel=1e-12)


def test_affine_invariance_of_r2():
    rng = np.random.default_rng(10)
    x = rng.standard_normal(200)
    y = x + 0.5 * rng.standard_normal(200)
    base = compare_tables(table_from(["f"], x[:, None]), table_from(["f"], y[:, None]))
    mapped = compare_tables(
        table_from(["f"], (3.0 * x - 7.0)[:, None]), table_from(["f"], y[:, None])
    )
    assert_close(mapped.fits[0].r2, base.fits[0].r2, rel=1e-9)


def test_noise_injection_matches_analytic_r2():
    rng = np.random.default_rng(11)
    n = 10_000
    x = rng.standard_normal(n)
    for sigma2, expected in ((1 / 9, 0.9), (1 / 3, 0.75), (1.0, 0.5)):
        y = x + math.sqrt(sigma2) * rng.standard_normal(n)
        report = compare_tables(
            table_from(["f"], x[:, None]), table_from(["f"], y[:, None])
        )
        assert_close(report.fits[0].r2, expected, rel=0, abs_tol=0.02)


def test_constant_target_conventions():
    x = np.arange(5.0)
    constant = np.full(5, 2.0)
    report = compare_tables(
        table_from(["f"], x[:, None]), table_from(["f"], constant[:, None])
    )
    assert report.fits[0].r2 == 1.0  # zero residuals around a constant fit
    report = compare_tables(
        table_from(["f"], constant[:, None]), table_from(["f"], x[:, None])
    )
    assert report.fits[0].r2 == 0.0  # no predictor variance, real target variance


def test_alignment_on_labels_and_features():
    a = FeatureTable("cells", ("f", "only_a"), np.array([1, 2, 3]), np.ones((3, 2)))
    b = FeatureTable("cells", ("f", "only_b"), np.array([2, 3, 4]),
                     np.arange(6, dtype=float).reshape(3, 2))
    report = compare_tables(a, b)
    assert [fit.feature for fit in report.fits] == ["f"]
    assert report.fits[0].n == 2
    with pytest.raises(ValueError):
        compare_tables(a, FeatureTable("other", ("f",), np.array([1]), np.ones((1, 1))))
    with pytest.raises(ValueError):
        compare_tables(
            a, FeatureTable("cells", ("zzz",), np.array([1]), np.ones((1, 1)))
        )


def test_report_file_format(tmp_path):
    rng = np.random.default_rng(12)
    values = rng.standard_normal((50, 2))
    a = table_from(["f1", "f2"], values)
    b = table_from(["f1", "f2"], values + 0.01 * rng.standard_normal((50, 2)))
    report = compare_tables(a, b)
    path = tmp_path / "report.csv"
    write_report(report, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "feature,slope,intercept,r2,n"
    assert lines[1].startswith("f1,")
    assert lines[-1] == "fraction_r2_gt_0.9=1.0"
    assert len(lines) == 4


def test_report_quotes_cells_the_way_tables_do(tmp_path):
    """Names that read_table takes back from a quoted header stay one
    report cell each."""
    rng = np.random.default_rng(13)
    values = rng.standard_normal((20, 3))
    names = ["a,b", 'q"x', "plain"]
    report = compare_tables(table_from(names, values), table_from(names, 2.0 * values))
    path = tmp_path / "report.csv"
    write_report(report, path)
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["feature", "slope", "intercept", "r2", "n"]
    assert [row[0] for row in rows[1:-1]] == names
    assert all(len(row) == 5 for row in rows[:-1])
    assert rows[-1] == ["fraction_r2_gt_0.9=1.0"]
    assert path.read_text().splitlines()[3].startswith("plain,2.0,")
