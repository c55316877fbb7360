"""Feature-table normalization, filtering, and cross-tool fidelity comparison.

``robust_standardize`` applies the conventional robust z-score
(x - median) / (1.4826 * MAD), drops constant, all-missing and
mostly-missing features, and imputes remaining gaps with 0 (the post-standardization
median).  ``correlation_filter`` greedily removes features that are
nearly collinear with an earlier kept feature.  ``compare_tables`` fits
an ordinary least-squares line per shared feature and reports R^2, the
standard way to quantify agreement between two measurement tools.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass

import numpy as np

from .core import MISSING, FeatureTable
from .raster_io import format_cell


@dataclass(frozen=True)
class NormalizeParams:
    corr_threshold: float = 0.9
    drop_missing_frac: float = 0.05

    def __post_init__(self):
        if not 0.0 <= self.corr_threshold <= 1.0:
            raise ValueError("corr_threshold must be in [0, 1]")
        if not 0.0 <= self.drop_missing_frac <= 1.0:
            raise ValueError("drop_missing_frac must be in [0, 1]")


def robust_standardize(
    table: FeatureTable, params: NormalizeParams = NormalizeParams()
) -> FeatureTable:
    """Robust z-score per feature; drops MAD-zero and gap-ridden columns."""
    if table.n_rows == 0:
        raise ValueError("cannot standardize an empty table")
    kept_cols = []
    kept_values = []
    for j, name in enumerate(table.columns):
        col = table.values[:, j]
        present = np.isfinite(col)
        missing_frac = 1.0 - present.sum() / col.size
        if not present.any() or missing_frac > params.drop_missing_frac:
            continue
        med = float(np.median(col[present]))
        mad = float(np.median(np.abs(col[present] - med)))
        if mad == 0.0:
            continue
        standardized = (col - med) / (1.4826 * mad)
        standardized[~present] = 0.0
        kept_cols.append(name)
        kept_values.append(standardized)
    values = (
        np.column_stack(kept_values)
        if kept_cols
        else np.empty((table.n_rows, 0), dtype=np.float64)
    )
    return FeatureTable(
        object_set=table.object_set,
        columns=tuple(kept_cols),
        labels=table.labels,
        values=values,
    )


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
    with any already-kept feature."""
    kept: list[int] = []
    for j in range(len(table.columns)):
        col = table.values[:, j]
        if any(_abs_corr(table.values[:, k], col) > threshold for k in kept):
            continue
        kept.append(j)
    return FeatureTable(
        object_set=table.object_set,
        columns=tuple(table.columns[j] for j in kept),
        labels=table.labels,
        values=table.values[:, kept] if kept else np.empty((table.n_rows, 0)),
    )


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
    return FeatureFit(name, slope, intercept, r2, n)


def compare_tables(
    a: FeatureTable, b: FeatureTable, r2_threshold: float = 0.9
) -> ComparisonReport:
    """Per-feature OLS R^2 between two tables aligned on (object_set, label)."""
    if a.object_set != b.object_set:
        shared_labels = np.array([], dtype=np.int64)
    else:
        shared_labels = np.intersect1d(a.labels, b.labels)
    shared_features = [name for name in a.columns if name in set(b.columns)]
    if shared_labels.size == 0 or not shared_features:
        raise ValueError("tables share no rows or no features")
    a_rows = np.searchsorted(a.labels, shared_labels)
    b_rows = np.searchsorted(b.labels, shared_labels)
    fits = []
    for name in shared_features:
        col_a = a.values[a_rows, a.columns.index(name)]
        col_b = b.values[b_rows, b.columns.index(name)]
        fits.append(_fit_feature(name, col_a, col_b))
    return ComparisonReport(fits=tuple(fits), r2_threshold=r2_threshold)


def write_report(report: ComparisonReport, path) -> None:
    """CSV report: feature,slope,intercept,r2,n rows plus a summary line."""
    buf = io.StringIO()
    buf.write("feature,slope,intercept,r2,n\n")
    for fit in report.fits:
        cells = [
            fit.feature,
            format_cell(fit.slope),
            format_cell(fit.intercept),
            format_cell(fit.r2),
            str(fit.n),
        ]
        buf.write(",".join(cells) + "\n")
    buf.write(report.summary_line + "\n")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(buf.getvalue())
