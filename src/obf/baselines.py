"""Classical univariate filter scores used as screening comparators.

Ranking direction differs by statistic: larger |t|, Bhattacharyya distance,
and mutual information all mean stronger evidence of a class difference,
while a smaller Wilks lambda does (its score is reported as log lambda and
ranked by the negative).

The ``*_array`` kernels score a whole matrix at once and flag unscorable
features instead of raising, which is what a large screen needs. The scalar
functions are one-feature views of those kernels: they take one feature's
``FeatureStats`` (or column) and raise ``DegenerateData`` where the kernel
flags the feature.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bayes import FeatureStats, MatrixStats
from .errors import DegenerateData
from .special import student_t_two_sided_p

WELCH_T = "WELCH_T"
BHATTACHARYYA = "BHATTACHARYYA"
MI_SPACING = "MI_SPACING"
WILKS_LAMBDA = "WILKS_LAMBDA"

_SPACING_CLAMP_SCALE = 1e-12


@dataclass(frozen=True)
class BaselineScore:
    method: str
    value: float
    pvalue: Optional[float] = None


def _one_feature(stats: FeatureStats, method: str) -> MatrixStats:
    if stats.class0.n < 2 or stats.class1.n < 2:
        raise DegenerateData(f"{method} needs n >= 2 in each class")
    return MatrixStats.of_feature(stats)


def welch_t(stats: FeatureStats) -> BaselineScore:
    """Welch's two-sample t statistic with Welch-Satterthwaite df.

    Both-variances-zero cases follow fixed conventions instead of failing:
    equal means report (0, p=1), unequal means report (+-inf, p=0).
    """
    ms = _one_feature(stats, "welch_t")
    t, _ = welch_t_array(ms)
    t, df = float(t[0]), float(welch_df_array(ms)[0])
    return BaselineScore(WELCH_T, t, student_t_two_sided_p(t, df))


def bhattacharyya(stats: FeatureStats) -> BaselineScore:
    """Bhattacharyya distance between the two fitted Gaussians (``bd_array``)."""
    bd, ok = bd_array(_one_feature(stats, "bhattacharyya"))
    if not ok[0]:
        raise DegenerateData("bhattacharyya needs positive variance in each class")
    return BaselineScore(BHATTACHARYYA, float(bd[0]))


def mi_spacing(column, labels) -> BaselineScore:
    """Mutual information between a feature and the labels (``mi_array``).

    Warns when more than 10% of spacings were tied and had to be clamped.
    """
    x = np.asarray(column, dtype=np.float64)
    mi, clamped, gaps = _mi_columns(x[:, None], labels)
    if clamped[0] > 0.1 * gaps:
        warnings.warn(
            f"mi_spacing clamped {clamped[0]}/{gaps} tied spacings",
            stacklevel=2,
        )
    return BaselineScore(MI_SPACING, float(mi[0]))


def wilks_lambda(stats: FeatureStats) -> BaselineScore:
    """Log of the two-population variance-ratio statistic (``wilks_array``).

    Smaller lambda is stronger evidence, so rankings use -log lambda.
    """
    value, ok = wilks_array(_one_feature(stats, "wilks_lambda"))
    if not ok[0]:
        raise DegenerateData("wilks_lambda needs positive biased variances")
    return BaselineScore(WILKS_LAMBDA, float(value[0]))


# ---------------------------------------------------------------------------
# Vectorized variants for whole-matrix screens. Each returns (values, ok);
# features with ok=False are unscorable and carry NaN.
# ---------------------------------------------------------------------------


def welch_t_array(ms: MatrixStats):
    se2 = ms.var0 / ms.n0 + ms.var1 / ms.n1
    diff = ms.mean0 - ms.mean1
    with np.errstate(divide="ignore", invalid="ignore"):
        t = diff / np.sqrt(se2)
    # zero-variance conventions: 0 for equal means, +-inf otherwise
    t = np.where(
        se2 == 0.0,
        np.where(diff == 0.0, 0.0, np.where(diff > 0, np.inf, -np.inf)),
        t,
    )
    return t, np.ones(t.shape[0], dtype=bool)


def welch_df_array(ms: MatrixStats):
    a = ms.var0 / ms.n0
    b = ms.var1 / ms.n1
    with np.errstate(divide="ignore", invalid="ignore"):
        df = (a + b) ** 2 / (a ** 2 / (ms.n0 - 1) + b ** 2 / (ms.n1 - 1))
    return df


def bd_array(ms: MatrixStats):
    """BD = (mu0 - mu1)^2 / (4 (v0 + v1)) + 1/2 ln((v0 + v1) / (2 sqrt(v0 v1)))."""
    ok = (ms.var0 > 0.0) & (ms.var1 > 0.0)
    vsum = ms.var0 + ms.var1
    with np.errstate(divide="ignore", invalid="ignore"):
        bd = (ms.mean0 - ms.mean1) ** 2 / (4.0 * vsum) + 0.5 * np.log(
            vsum / (2.0 * np.sqrt(ms.var0 * ms.var1))
        )
    return np.where(ok, bd, np.nan), ok


def wilks_array(ms: MatrixStats):
    """log lambda = (n0/2) log v0 + (n1/2) log v1 - (n/2) log v.

    Each v is a biased (divide-by-n) variance.
    """
    n0, n1, n = ms.n0, ms.n1, ms.n
    v0 = (n0 - 1) / n0 * ms.var0
    v1 = (n1 - 1) / n1 * ms.var1
    vp = (n - 1) / n * ms.var
    ok = (v0 > 0.0) & (v1 > 0.0) & (vp > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        value = 0.5 * (n0 * np.log(v0) + n1 * np.log(v1) - n * np.log(vp))
    return np.where(ok, value, np.nan), ok


def _spacing_entropy(x: np.ndarray, clamp_eps):
    """Order-1 spacing entropy of each column, and its count of clamped gaps.

    H = mean over i of log((n + 1) (x_(i+1) - x_(i))) over the sorted
    column, with zero spacings clamped to ``clamp_eps`` before the log (ties
    make the raw estimator undefined).
    """
    gaps = np.diff(np.sort(x, axis=0), axis=0)
    tied = gaps == 0.0
    np.copyto(gaps, clamp_eps, where=tied)
    gaps *= x.shape[0] + 1.0
    entropy = np.mean(np.log(gaps, out=gaps), axis=0)
    return entropy, np.count_nonzero(tied, axis=0)


def _mi_columns(values: np.ndarray, labels: np.ndarray):
    """Spacing MI of each column, its clamped-gap count, and the gap total.

    MI = H(X) - sum_y (n_y / n) H(X | y).
    """
    values = np.asarray(values, dtype=np.float64)
    mask1 = np.asarray(labels) == 1
    n = values.shape[0]
    n1 = int(np.count_nonzero(mask1))
    n0 = n - n1
    if n0 < 4 or n1 < 4:
        raise DegenerateData("mutual information needs at least 4 points per class")

    eps = _SPACING_CLAMP_SCALE * (
        np.max(values, axis=0) - np.min(values, axis=0) + 1.0
    )
    h_all, c_all = _spacing_entropy(values, eps)
    h0, c0 = _spacing_entropy(values[~mask1], eps)
    h1, c1 = _spacing_entropy(values[mask1], eps)
    mi = h_all - (n0 / n) * h0 - (n1 / n) * h1
    return mi, c_all + c0 + c1, (n - 1) + (n0 - 1) + (n1 - 1)


def mi_array(values: np.ndarray, labels: np.ndarray):
    """Column-wise spacing-estimator mutual information for a sample matrix."""
    mi, _, _ = _mi_columns(values, labels)
    return mi, np.ones(mi.shape[0], dtype=bool)
