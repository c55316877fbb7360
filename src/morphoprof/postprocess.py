"""Feature-table normalization, filtering, and cross-tool fidelity comparison.

``robust_standardize`` applies the conventional robust z-score
(x - median) / (1.4826 * MAD), drops constant, all-missing and
mostly-missing features, and imputes remaining gaps with 0 (the post-standardization
median).  ``correlation_filter`` greedily removes features that are
nearly collinear with an earlier kept feature: a complete column with spread
meets all such kept columns in one row-wise product, and every other pair
is correlated over its pairwise-complete rows.  ``compare_tables`` fits an
ordinary least-squares line per shared feature and reports R^2, the
standard way to quantify agreement between two measurement tools.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, replace

import numpy as np

from .core import MISSING, FeatureTable, _check_fraction, _exponents
from .raster_io import format_cell


def robust_standardize(table: FeatureTable, drop_missing_frac: float = 0.05) -> FeatureTable:
    """Robust z-score per feature; drops MAD-zero columns and those with
    more than ``drop_missing_frac`` of their cells missing."""
    _check_fraction("drop_missing_frac", drop_missing_frac)
    if table.n_rows == 0:
        raise ValueError("cannot standardize an empty table")
    values = np.zeros(table.values.shape)
    kept = []
    for j, col in enumerate(table.values.T):
        present = np.isfinite(col)
        missing_frac = 1.0 - present.sum() / col.size
        if not present.any() or missing_frac > drop_missing_frac:
            continue
        med = float(np.median(col[present]))
        mad = float(np.median(np.abs(col[present] - med)))
        if mad == 0.0:
            continue
        values[present, j] = (col[present] - med) / (1.4826 * mad)
        kept.append(j)
    return replace(table, columns=tuple(table.columns[j] for j in kept), values=values[:, kept])


def _abs_corr(x: np.ndarray, y: np.ndarray) -> float:
    # Undefined correlations (too few shared rows, zero variance) rank as 0
    # so the filter keeps such columns rather than guessing.
    both = np.isfinite(x) & np.isfinite(y)
    if both.sum() < 2:
        return 0.0
    xv, yv = x[both], y[both]
    sx, sy = float(xv.std()), float(yv.std())
    if sx == 0.0 or sy == 0.0:
        return 0.0
    cov = float(((xv - xv.mean()) * (yv - yv.mean())).mean())
    return abs(cov / (sx * sy))


def correlation_filter(table: FeatureTable, threshold: float = 0.9) -> FeatureTable:
    """Greedy scan in column order; drop features correlated above threshold
    (in [0, 1]) with any already-kept feature."""
    _check_fraction("correlation threshold", threshold)
    # One contiguous row per column, so a row-wise mean sums as _abs_corr's
    # does; each is rescaled once, which |r| does not see.
    rows = table.values.T
    rows = np.ldexp(rows, -_exponents(rows)[:, None], order="C")
    std, centered = np.zeros(len(rows)), np.zeros_like(rows)
    for k in np.flatnonzero(np.isfinite(rows).all(axis=1) & (table.n_rows >= 2)):
        std[k], centered[k] = rows[k].std(), rows[k] - rows[k].mean()
    kept: list[int] = []
    for j, col in enumerate(rows):
        block = [k for k in kept if std[k] > 0.0 and std[j] > 0.0]
        if block:
            cov = (centered[block] * centered[j]).mean(axis=1)
            if (np.abs(cov / (std[block] * std[j])) > threshold).any():
                continue
        if any(_abs_corr(rows[k], col) > threshold for k in kept if k not in block):
            continue
        kept.append(j)
    columns = tuple(table.columns[j] for j in kept)
    return replace(table, columns=columns, values=table.values[:, kept])


@dataclass(frozen=True)
class FeatureFit:
    """OLS fit of one shared feature: b ~ intercept + slope * a."""

    feature: str
    slope: float
    intercept: float
    r2: float
    n: int


@dataclass(frozen=True)
class ComparisonReport:
    fits: tuple[FeatureFit, ...]
    r2_threshold: float

    def __post_init__(self):
        if math.isnan(self.r2_threshold):
            raise ValueError("r2_threshold must not be NaN")

    @property
    def fraction_above(self) -> float:
        if not self.fits:
            return 0.0
        hits = sum(1 for f in self.fits if not math.isnan(f.r2) and f.r2 > self.r2_threshold)
        return hits / len(self.fits)

    @property
    def summary_line(self) -> str:
        return f"fraction_r2_gt_{self.r2_threshold:g}={repr(self.fraction_above)}"


def _fit_feature(name: str, a: np.ndarray, b: np.ndarray) -> FeatureFit:
    both = np.isfinite(a) & np.isfinite(b)
    a, b = a[both], b[both]
    n = int(a.size)
    if n == 0:
        return FeatureFit(name, MISSING, MISSING, MISSING, 0)
    e_a, e_b = _exponents(a), _exponents(b)
    a, b = np.ldexp(a, -e_a), np.ldexp(b, -e_b)
    var_a = float(((a - a.mean()) ** 2).sum())
    if var_a == 0.0:
        slope = 0.0
        intercept = float(b.mean())
    else:
        slope = float(((a - a.mean()) * (b - b.mean())).sum()) / var_a
        intercept = float(b.mean()) - slope * float(a.mean())
    residuals = b - (intercept + slope * a)
    ss_res = float((residuals**2).sum())
    ss_tot = float(((b - b.mean()) ** 2).sum())
    if ss_tot == 0.0:
        r2 = 1.0 if np.all(residuals == 0.0) else 0.0
    else:
        r2 = 1.0 - ss_res / ss_tot
    with np.errstate(over="ignore"):
        slope, intercept = np.ldexp([slope, intercept], [e_b - e_a, e_b]).tolist()
    return FeatureFit(name, slope, intercept, r2, n)


def compare_tables(
    a: FeatureTable, b: FeatureTable, r2_threshold: float = 0.9
) -> ComparisonReport:
    """Per-feature OLS R^2 between two tables aligned on (object_set, label)."""
    if a.object_set != b.object_set:
        shared_labels = np.array([], dtype=np.int64)
    else:
        shared_labels = np.intersect1d(a.labels, b.labels)
    b_index = {name: j for j, name in enumerate(b.columns)}
    shared = [(name, i, b_index[name]) for i, name in enumerate(a.columns) if name in b_index]
    if shared_labels.size == 0 or not shared:
        raise ValueError("tables share no rows or no features")
    a_rows = np.searchsorted(a.labels, shared_labels)
    b_rows = np.searchsorted(b.labels, shared_labels)
    fits = tuple(
        _fit_feature(name, a.values[a_rows, i], b.values[b_rows, j]) for name, i, j in shared
    )
    return ComparisonReport(fits=fits, r2_threshold=r2_threshold)


def write_report(report: ComparisonReport, path) -> None:
    """CSV report: feature,slope,intercept,r2,n rows plus a summary line;
    cells are quoted as :func:`write_table` quotes them.  A fit value past
    the float range is refused, naming its feature and field, before the
    file is opened."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["feature", "slope", "intercept", "r2", "n"])
    for fit in report.fits:
        cells = []
        for field in ("slope", "intercept", "r2"):
            try:
                cells.append(format_cell(getattr(fit, field)))
            except ValueError as exc:
                raise ValueError(f"feature {fit.feature!r}, {field}: {exc}") from None
        writer.writerow([fit.feature, *cells, fit.n])
    buf.write(report.summary_line + "\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
