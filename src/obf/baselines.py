"""Classical univariate filter scores used as screening comparators.

Ranking direction differs by statistic: larger |t|, Bhattacharyya distance,
and mutual information all mean stronger evidence of a class difference,
while a smaller Wilks lambda does (its score is reported as log lambda and
ranked by the negative).

The ``*_array`` kernels score a whole matrix at once and flag unscorable
features instead of raising, which is what a large screen needs; one feature
is scored as a one-column matrix.
"""

from __future__ import annotations

import numpy as np

from .bayes import MatrixStats, column_blocks
from .errors import DegenerateData

_SPACING_CLAMP_SCALE = 1e-12
# points each class needs for the spacing MI
MI_MIN_PER_CLASS = 4
# cells of a column block of the spacing estimator
_SORT_CELLS = 1 << 16


# Each kernel returns (values, ok); features with ok=False are unscorable and
# carry NaN.


def welch_t_array(ms: MatrixStats):
    """Welch's two-sample t statistic of every feature."""
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
    """Welch-Satterthwaite degrees of freedom of every feature's t."""
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


def _spacing_entropy(x: np.ndarray, rows: np.ndarray, clamp_eps):
    """Order-1 spacing entropy of each column of ``x[rows]`` (``rows`` a
    boolean mask), and its count of clamped gaps.

    H = mean over i of log((n + 1) (x_(i+1) - x_(i))) over the sorted
    column, with zero spacings clamped to ``clamp_eps`` before the log (ties
    make the raw estimator undefined). Columns are taken a block at a time
    (``column_blocks``), so no sorted copy or gap matrix of the whole
    matrix's size is made.
    """
    n = int(np.count_nonzero(rows))
    entropy = np.empty(x.shape[1])
    clamped = np.empty(x.shape[1], dtype=np.intp)
    for a, b in column_blocks((n, x.shape[1]), _SORT_CELLS):
        block = x[rows, a:b]
        block.sort(axis=0)
        gaps = block[1:] - block[:-1]
        tied = gaps == 0.0
        np.copyto(gaps, clamp_eps[a:b], where=tied)
        gaps *= n + 1.0
        entropy[a:b] = np.mean(np.log(gaps, out=gaps), axis=0)
        clamped[a:b] = np.count_nonzero(tied, axis=0)
    return entropy, clamped


def _mi_columns(values: np.ndarray, labels: np.ndarray):
    """Spacing MI of each column, its clamped-gap count, and the gap total.

    MI = H(X) - sum_y (n_y / n) H(X | y).
    """
    values = np.asarray(values, dtype=np.float64)
    mask1 = np.asarray(labels) == 1
    n = values.shape[0]
    n1 = int(np.count_nonzero(mask1))
    n0 = n - n1
    if min(n0, n1) < MI_MIN_PER_CLASS:
        raise DegenerateData(
            f"mutual information needs at least {MI_MIN_PER_CLASS} points per class"
        )

    eps = _SPACING_CLAMP_SCALE * (
        np.max(values, axis=0) - np.min(values, axis=0) + 1.0
    )
    h_all, c_all = _spacing_entropy(values, np.ones(n, dtype=bool), eps)
    h0, c0 = _spacing_entropy(values, ~mask1, eps)
    h1, c1 = _spacing_entropy(values, mask1, eps)
    mi = h_all - (n0 / n) * h0 - (n1 / n) * h1
    return mi, c_all + c0 + c1, (n - 1) + (n0 - 1) + (n1 - 1)


def mi_array(values: np.ndarray, labels: np.ndarray):
    """Column-wise spacing-estimator mutual information for a sample matrix."""
    mi, _, _ = _mi_columns(values, labels)
    return mi, np.ones(mi.shape[0], dtype=bool)
