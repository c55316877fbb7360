import csv
import math
import warnings

import numpy as np
import pytest
from conftest import assert_close
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import abs_corr_oracle, correlation_filter_oracle, robust_standardize_oracle

from morphoprof import (
    ComparisonReport,
    FeatureTable,
    compare_tables,
    correlation_filter,
    robust_standardize,
    write_report,
    write_table,
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
    strict = robust_standardize(table, drop_missing_frac=0.05)
    assert strict.columns == ("keep",)
    lax = robust_standardize(table, drop_missing_frac=0.5)
    assert lax.columns == ("keep", "gappy")
    assert lax.values[1, 1] == 0.0  # imputed with the post-standardization median


@pytest.mark.filterwarnings("error")
def test_all_missing_column_is_dropped_at_any_missing_frac():
    values = np.array([[1.0, np.nan], [2.0, np.nan], [4.0, np.nan]])
    table = table_from(["keep", "empty"], values)
    out = robust_standardize(table, drop_missing_frac=1.0)
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


@st.composite
def filter_cases(draw):
    """Noise, near-copies, constant and all-missing columns, some with holes,
    and a threshold that is either free or within 1e-12 of one pair's |r|."""
    n_rows = draw(st.integers(0, 40))
    kinds = st.sampled_from(["noise", "copy", "constant", "missing"])
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    cols = []
    for kind in draw(st.lists(kinds, max_size=8)):
        if kind == "copy" and cols:
            scale = draw(st.sampled_from([0.0, 1e-9, 0.05, 0.5]))
            col = cols[draw(st.integers(0, len(cols) - 1))] + scale * rng.standard_normal(n_rows)
        elif kind == "constant":
            col = np.full(n_rows, draw(st.sampled_from([0.0, 0.1, 7.0])))
        elif kind == "missing":
            col = np.full(n_rows, np.nan)
        else:
            col = rng.standard_normal(n_rows)
        if draw(st.booleans()):
            col[rng.random(n_rows) < 0.2] = np.nan
        cols.append(col)
    values = np.column_stack(cols) if cols else np.empty((n_rows, 0))
    if len(cols) < 2 or draw(st.booleans()):
        return values, draw(st.floats(0.0, 1.0))
    j = draw(st.integers(1, len(cols) - 1))
    r = abs_corr_oracle(cols[draw(st.integers(0, j - 1))], cols[j])
    return values, min(1.0, max(0.0, r + draw(st.floats(-1e-12, 1e-12))))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=300, deadline=None)
@given(filter_cases())
@example((np.empty((0, 3)), 0.5))
@example((np.array([[1.0, 0.1]]), 0.0))
@example((np.array([[1.0, 2.0, 0.1], [2.0, 4.0, 0.1]]), 0.5))
@example((np.empty((5, 0)), 0.9))
def test_correlation_filter_keeps_the_oracle_columns(case):
    values, threshold = case
    names = [f"c{j}" for j in range(values.shape[1])]
    out = correlation_filter(table_from(names, values), threshold)
    assert out.columns == tuple(names[j] for j in correlation_filter_oracle(values, threshold))


@pytest.mark.filterwarnings("error::RuntimeWarning")
@settings(max_examples=200, deadline=None)
@given(filter_cases(), st.floats(0.0, 1.0))
@example((np.full((4, 3), 0.5), 0.9), 1.0)  # every column is constant: all dropped
@example((np.array([[1.0, np.nan], [np.nan, np.nan], [3.0, 2.0]]), 0.5), 0.5)
def test_standardize_and_filter_build_the_frozen_tables(case, frac):
    """Both results equal, bit for bit, the frozen column-by-column forms,
    and keep the input's object set and labels."""
    values, threshold = case
    names = [f"c{j}" for j in range(values.shape[1])]
    table = table_from(names, values, object_set="nuclei")
    kept = correlation_filter_oracle(values, threshold)
    outputs = [(correlation_filter(table, threshold), kept, values[:, kept])]
    if table.n_rows:
        outputs.append((robust_standardize(table, frac), *robust_standardize_oracle(values, frac)))
    for out, kept, expected in outputs:
        assert out.object_set == "nuclei" and out.labels.tobytes() == table.labels.tobytes()
        assert out.columns == tuple(names[j] for j in kept)
        assert out.values.shape == expected.shape
        assert out.values.tobytes() == expected.tobytes()


def test_threshold_ranges_are_checked_where_read():
    rng = np.random.default_rng(10)
    table = table_from(["a", "b"], rng.standard_normal((8, 2)))
    for threshold in (math.nan, 1.5, -0.1):
        with pytest.raises(ValueError, match="threshold"):
            correlation_filter(table, threshold)
    for frac in (math.nan, 2.0, -0.1):
        with pytest.raises(ValueError, match="drop_missing_frac"):
            robust_standardize(table, frac)
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


def test_report_names_the_feature_whose_fit_is_past_the_float_range(tmp_path):
    rng = np.random.default_rng(14)
    x = rng.standard_normal((30, 1))
    report = compare_tables(table_from(["tiny"], 1e-300 * x), table_from(["tiny"], 1e300 * x))
    assert report.fits[0].slope == math.inf
    path = tmp_path / "report.csv"
    with pytest.raises(ValueError, match="feature 'tiny', slope: non-finite"):
        write_report(report, path)
    assert not path.exists()


@pytest.mark.parametrize("scale", [1e-170, 1e200])
def test_extreme_but_finite_magnitudes_fit_and_filter_as_unit_ones(scale):
    # Squared deviations used to underflow to 0 (R^2 0.0, a near-copy kept)
    # or overflow to inf (R^2 nan).
    rng = np.random.default_rng(14)
    x = rng.standard_normal(50)
    values = np.column_stack([x, x + 0.1 * rng.standard_normal(50), rng.standard_normal(50)])
    table = table_from(["a", "near_a", "b"], values * scale)
    assert [fit.r2 for fit in compare_tables(table, table).fits] == [1.0, 1.0, 1.0]
    assert correlation_filter(table, 0.9).columns == ("a", "b")


@st.composite
def scaled_pairs(draw):
    """(a, b, e_a, e_b): two columns of magnitudes in [2**-8, 2**8] with
    holes, b a noisy affine image of a, and power-of-two exponents."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n_rows = draw(st.integers(1, 40))
    a = np.ldexp(rng.uniform(1.0, 2.0, n_rows), rng.integers(-8, 8, n_rows))
    a *= rng.choice([-1.0, 1.0], n_rows)
    b = draw(st.floats(-4, 4)) * a + draw(st.floats(-4, 4)) + rng.uniform(-1, 1, n_rows)
    a[rng.random(n_rows) < 0.1] = np.nan
    return a, b, draw(st.integers(-1000, 1000)), draw(st.integers(-1000, 1000))


@settings(max_examples=150, deadline=None)
@given(scaled_pairs())
@example((np.array([-0.10231011, -0.0049601]), np.array([0.62654048, 0.82551115]), -23, 1000))
def test_power_of_two_scaling_changes_no_bit_of_a_fit_or_a_filter(case):
    a, b, e_a, e_b = case
    (base,) = compare_tables(table_from(["f"], a[:, None]), table_from(["f"], b[:, None])).fits
    (fit,) = compare_tables(
        table_from(["f"], np.ldexp(a, e_a)[:, None]), table_from(["f"], np.ldexp(b, e_b)[:, None])
    ).fits
    with np.errstate(over="ignore"):  # a slope or intercept past the range reads inf
        slope, intercept = np.ldexp([base.slope, base.intercept], [e_b - e_a, e_b]).tolist()
    # repr tells the bits apart, and nan from nan equal.
    want = (base.r2, slope, intercept, base.n)
    assert repr((fit.r2, fit.slope, fit.intercept, fit.n)) == repr(want)
    values = np.column_stack([a, b])
    for threshold in (0.5, 0.9):
        scaled = table_from(["a", "b"], np.ldexp(values, [e_a, e_b]))
        assert correlation_filter(scaled, threshold).columns == tuple(
            ["a", "b"][j] for j in correlation_filter_oracle(values, threshold)
        )


@pytest.mark.parametrize(
    "column",
    [
        [1.7e308, 1.6e308, 1.5e308, 1.4e308],
        [-1.7e308, 1.7e308, 1.0],
        [-1.6e308, 1.5e308, -1.2e308, 1.3e308, 0.5],
    ],
)
def test_columns_at_the_top_of_the_float_range_standardize_as_scaled_ones(column, tmp_path):
    """The median of the first column overflowed, so it was kept as all NaN
    and written as empty cells; on the mixed-sign ones 1.4826 * MAD
    overflowed and every z-score came out +-0.0.  Each column now keeps
    or drops as the column x 2^-8 does, with its z-scores bit for bit."""
    values = np.column_stack([column, np.arange(len(column))])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = robust_standardize(table_from(["huge", "plain"], values))
    want = robust_standardize(table_from(["huge", "plain"], np.ldexp(values, [-8, 0])))
    assert got.columns == want.columns == ("huge", "plain")
    assert got.values.tobytes() == want.values.tobytes()
    path = tmp_path / "normalized.csv"
    write_table(got, path)
    with open(path, newline="") as fh:
        assert all(all(row) for row in csv.reader(fh))


@st.composite
def scaled_tables(draw):
    """(values, e): 1-40 rows of 1-4 columns, multiples of 2**-10 in
    (-2, 2) or [0, 2), some small-range or constant, with holes, and a
    power-of-two exponent per column."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    shape = (draw(st.integers(1, 40)), draw(st.integers(1, 4)))
    low = rng.choice([-2047, 0, 2044], size=shape[1])
    values = rng.integers(low, 2048, size=shape) / 1024
    values[rng.random(shape) < 0.05] = np.nan
    return values, draw(st.lists(st.integers(-1000, 1023), min_size=shape[1], max_size=shape[1]))


@settings(max_examples=150, deadline=None)
@given(scaled_tables(), st.sampled_from([0.05, 0.5]))
@example((np.array([[-1.875, 0.5], [1.875, np.nan], [0.0, 0.25]]), [1023, -1000]), 0.5)
def test_power_of_two_scaling_changes_no_bit_of_a_robust_z_score(case, frac):
    """The z-score has no scale: each column times 2^e keeps or drops as
    the unscaled one does, with the same z-scores bit for bit, and no
    present cell comes out non-finite."""
    values, e = case
    names = [f"c{j}" for j in range(values.shape[1])]
    base = robust_standardize(table_from(names, values), frac)
    got = robust_standardize(table_from(names, np.ldexp(values, e)), frac)
    assert got.columns == base.columns
    assert got.values.tobytes() == base.values.tobytes()
    assert np.isfinite(got.values).all()
