"""Selection rules over per-feature posterior scores.

All rules rank features the same way (descending log-odds, ties broken by
ascending position in the table) and differ only in where the cut falls:

* MR      -- keep features with posterior probability strictly above a
             threshold derived from a four-weight loss.
* MNC     -- MR with the zero-one loss (threshold 0.5).
* CMNC    -- keep exactly the top D.
* NP      -- grow the ranked prefix while the running expected number of
             false selections stays within a budget alpha.
* MAP / CMAP -- exact argmax over subset posteriors, feasible only for
             small feature counts via exhaustive enumeration.

Expected counts of correct/incorrect selections are linear in the per-feature
probabilities, which is what makes every rule a ranking plus a cutoff.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BadSize, TooLarge
from .special import logsumexp

SUBSET_ENUM_LIMIT = 20
_ENUM_CHUNK = 1 << 16
_NEG_CLAMP = -1e300


def rank_order(key, ok=True) -> np.ndarray:
    """Positions by descending key, ties by ascending position.

    Positions with ``ok`` false sort as if their key were -inf, which puts
    them after every scorable position with a larger key.
    """
    return np.argsort(-np.where(ok, key, -np.inf), kind="stable")


def threshold_cut(order: np.ndarray, pi: np.ndarray, t: float) -> np.ndarray:
    """MR/MNC: the ranked positions whose probability is strictly above t."""
    return order[pi[order] > t]


def top_cut(order: np.ndarray, d: int, n_ok: int) -> np.ndarray:
    """CMNC/top-D: the first d ranked positions, at most the n_ok scorable."""
    return order[:min(d, n_ok)]


def budget_cut(order: np.ndarray, costs: np.ndarray, alpha: float) -> np.ndarray:
    """NP: the longest ranked prefix whose summed cost stays <= alpha.

    Costs are nonnegative, so the running sums never decrease, and
    ``np.cumsum`` adds them left to right: the cut falls where a greedy loop
    adding costs in rank order would stop, bit for bit.
    """
    totals = np.cumsum(costs[order])
    return order[:int(np.searchsorted(totals, alpha, side="right"))]


@dataclass(frozen=True, eq=False)
class ScoreTable:
    """Feature ids with parallel float64 score arrays.

    Table order defines the tie-break index of the ranking.
    """

    feature_ids: tuple
    log_h: np.ndarray
    pi_star: np.ndarray
    log1m: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "feature_ids", tuple(self.feature_ids))
        for name in ("log_h", "pi_star", "log1m"):
            values = np.array(getattr(self, name), dtype=np.float64)
            if values.shape != (len(self.feature_ids),):
                raise ValueError(f"{name} must be parallel to feature_ids")
            values.flags.writeable = False
            object.__setattr__(self, name, values)
        if len(set(self.feature_ids)) != len(self.feature_ids):
            raise ValueError("feature_ids must be unique")

    def __len__(self):
        return len(self.feature_ids)

    @classmethod
    def from_arrays(cls, feature_ids, log_h, pi_star, log1m) -> "ScoreTable":
        return cls(feature_ids, log_h, pi_star, log1m)

    def rank_order(self) -> np.ndarray:
        """Positions sorted by descending log-odds, ties by ascending position.

        Sorting on log-odds rather than the probability keeps distinct
        features distinguishable after the probability saturates at 1.
        """
        return rank_order(self.log_h)

    def ids_at(self, positions: np.ndarray) -> tuple:
        return tuple(self.feature_ids[i] for i in positions.tolist())


@dataclass(frozen=True)
class LossSpec:
    """Selection loss weights; implies the MR threshold."""

    lambda_gg: float
    lambda_gb: float
    lambda_bg: float
    lambda_bb: float

    def __post_init__(self):
        if not self.lambda_gb >= self.lambda_bb:
            raise ValueError("lambda_gb must be >= lambda_bb")
        if not self.lambda_bg >= self.lambda_gg:
            raise ValueError("lambda_bg must be >= lambda_gg")
        if self.denominator == 0.0:
            raise ValueError("loss threshold undefined (zero denominator)")

    @property
    def denominator(self) -> float:
        return self.lambda_gb + self.lambda_bg - self.lambda_gg - self.lambda_bb

    @property
    def threshold(self) -> float:
        return (self.lambda_gb - self.lambda_bb) / self.denominator


ZERO_ONE_LOSS = LossSpec(0.0, 1.0, 1.0, 0.0)


@dataclass(frozen=True)
class SelectionResult:
    criterion: str
    param: Optional[float]
    ranking: tuple
    selected: tuple
    expected_risk: Optional[float] = None


def _expected_risk(table: ScoreTable, chosen: np.ndarray, loss: LossSpec) -> float:
    pi = table.pi_star
    one_m = np.exp(table.log1m)
    inc = loss.lambda_gg * pi + loss.lambda_gb * one_m
    exc = loss.lambda_bg * pi + loss.lambda_bb * one_m
    return float(np.sum(np.where(chosen, inc, exc)))


def select_mr(table: ScoreTable, loss: LossSpec) -> SelectionResult:
    """Keep features with probability strictly above the loss threshold."""
    t = loss.threshold
    order = table.rank_order()
    return SelectionResult(
        criterion="MR",
        param=t,
        ranking=table.ids_at(order),
        selected=table.ids_at(threshold_cut(order, table.pi_star, t)),
        expected_risk=_expected_risk(table, table.pi_star > t, loss),
    )


def select_mnc(table: ScoreTable) -> SelectionResult:
    """MR under the zero-one loss: keep probability > 0.5."""
    return replace(select_mr(table, ZERO_ONE_LOSS), criterion="MNC", param=0.5)


def select_cmnc(table: ScoreTable, d: int) -> SelectionResult:
    """Keep exactly the top d of the ranking."""
    if d < 0 or d > len(table):
        raise BadSize(f"d={d} outside [0, {len(table)}]")
    order = table.rank_order()
    return SelectionResult(
        criterion="CMNC", param=d, ranking=table.ids_at(order),
        selected=table.ids_at(top_cut(order, d, len(table))),
    )


def select_np(table: ScoreTable, alpha: float) -> SelectionResult:
    """Longest ranked prefix whose expected false-selection count stays <= alpha.

    Costs 1 - probability are nondecreasing along the ranking, so the greedy
    prefix that stops at the first violation is optimal.
    """
    if alpha < 0.0:
        raise ValueError("alpha must be >= 0")
    order = table.rank_order()
    return SelectionResult(
        criterion="NP", param=alpha, ranking=table.ids_at(order),
        selected=table.ids_at(budget_cut(order, np.exp(table.log1m), alpha)),
    )


@dataclass(frozen=True)
class RocCurve:
    """Expected false/true selection counts along the ranking, length F + 1."""

    points: tuple


def roc(table: ScoreTable) -> RocCurve:
    """Point k is (sum of 1-p, sum of p) over the top-k ranked features."""
    order = table.rank_order()
    xs = np.concatenate(([0.0], np.cumsum(np.exp(table.log1m)[order])))
    ys = np.concatenate(([0.0], np.cumsum(table.pi_star[order])))
    return RocCurve(points=tuple(zip(xs.tolist(), ys.tolist())))


def subset_posterior(
    per_feature_log_h: Sequence[float],
    log_prior: Optional[Callable[[tuple], float]] = None,
):
    """Exhaustive posterior over all subsets of a small feature set.

    Subset weight is ``sum of log_h over members`` plus, when given,
    ``log_prior(subset)``. With ``log_prior=None`` the log-odds are taken as
    complete (prior odds already folded in), which makes the implied subset
    prior the one that factorizes over features. Passing ``log_prior``
    overrides that factorized prior, in which case the supplied log-odds
    should carry likelihood ratios only.

    Returns a dict mapping sorted index tuples to probabilities.
    """
    lh = np.asarray(per_feature_log_h, dtype=np.float64)
    nf = lh.size
    if nf > SUBSET_ENUM_LIMIT:
        raise TooLarge(f"exhaustive enumeration capped at {SUBSET_ENUM_LIMIT} features")
    if np.any(np.isnan(lh)) or np.any(np.isposinf(lh)):
        raise ValueError("per-feature log-odds must be finite or -inf")
    lh = np.where(np.isneginf(lh), _NEG_CLAMP, lh)

    m = 1 << nf
    shifts = np.arange(nf, dtype=np.uint32)
    logw = np.empty(m, dtype=np.float64)
    for start in range(0, m, _ENUM_CHUNK):
        stop = min(start + _ENUM_CHUNK, m)
        idx = np.arange(start, stop, dtype=np.uint32)
        bits = ((idx[:, None] >> shifts) & 1).astype(np.float64)
        logw[start:stop] = bits @ lh
    if log_prior is not None:
        for g in range(m):
            subset = tuple(f for f in range(nf) if g >> f & 1)
            logw[g] += log_prior(subset)
    log_z = logsumexp(logw)
    probs = np.exp(logw - log_z)
    out = {}
    for g in range(m):
        subset = tuple(f for f in range(nf) if g >> f & 1)
        out[subset] = float(probs[g])
    return out


def subset_marginals(posterior: dict, n_features: int) -> np.ndarray:
    """Per-feature inclusion probabilities of an exhaustive subset posterior."""
    marg = np.zeros(n_features, dtype=np.float64)
    for subset, p in posterior.items():
        for f in subset:
            marg[f] += p
    return marg


def select_map(posterior: dict, size_constraint: Optional[int] = None) -> SelectionResult:
    """Highest-posterior subset, optionally restricted to a fixed size.

    Exact ties go to the lexicographically smallest index set. The reported
    ranking orders features by their marginal inclusion probability.
    """
    items = posterior.items()
    if size_constraint is not None:
        items = [(g, p) for g, p in items if len(g) == size_constraint]
        if not items:
            raise BadSize(f"no subsets of size {size_constraint} in posterior")
    best_p = max(p for _, p in items)
    best = min(g for g, p in items if p == best_p)
    nf = max((max(g) + 1 for g in posterior if g), default=0)
    marg = subset_marginals(posterior, nf)
    ranking = tuple(int(i) for i in np.argsort(-marg, kind="stable"))
    return SelectionResult(
        criterion="MAP" if size_constraint is None else "CMAP",
        param=size_constraint,
        ranking=ranking,
        selected=tuple(best),
    )
