"""Selection rules over per-feature posterior scores.

All rules rank features the same way (descending log-odds, ties broken by
ascending position in the table) and differ only in where the cut falls:

* MR      -- keep features with posterior probability strictly above a
             threshold derived from a four-weight loss.
* MNC     -- MR with the zero-one loss (threshold 0.5).
* CMNC    -- keep exactly the top D.
* NP      -- grow the ranked prefix while the running expected number of
             false selections stays within a budget alpha.
* MAP / CMAP -- exact argmax over the subset posterior, an array indexed
             by subset bitmask, feasible only for small feature counts.

Expected counts of correct/incorrect selections are linear in the per-feature
probabilities, which is what makes every rule a ranking plus a cutoff.
``parse_rule`` reads a ``Rule`` from ``[selection]`` or a method string, and
``Rule.cut`` is the one place a criterion becomes a cutoff.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import BadSize, ConfigInvalid, TooLarge
from .special import logsumexp

SUBSET_ENUM_LIMIT = 20
_ENUM_CHUNK = 1 << 16
_NEG_CLAMP = -1e300
# criterion -> the keys it reads; it takes exactly one of them (MNC none)
CRITERIA = {"mr": ("t", "lambdas"), "mnc": (), "cmnc": ("d",), "np": ("alpha",)}


def rank_order(key, ok=True) -> np.ndarray:
    """Positions by descending key, ties by ascending position.

    Positions with ``ok`` false come after every scorable position, even
    one whose key is -inf, in ascending position.
    """
    order = np.argsort(-np.where(ok, key, -np.inf), kind="stable")
    last = ~np.broadcast_to(ok, np.shape(key))[order]
    return np.concatenate((order[~last], order[last]))


def threshold_cut(order: np.ndarray, pi: np.ndarray, t: float) -> np.ndarray:
    """MR/MNC: the ranked positions whose probability is strictly above t."""
    return order[pi[order] > t]


def top_cut(order: np.ndarray, d: int, n_ok: int) -> np.ndarray:
    """CMNC/top-D: the first d ranked positions, at most the n_ok scorable."""
    if d < 0:
        raise ValueError(f"d must be >= 0, got {d}")
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
        weights = (self.lambda_gg, self.lambda_gb, self.lambda_bg, self.lambda_bb)
        if not all(map(math.isfinite, weights)):
            raise ValueError("loss weights must be finite")
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
class Rule:
    """A criterion and its one parameter, range-checked on construction.

    ``param`` is MR's ``LossSpec``, None for MNC, CMNC's count ``d >= 0``
    or NP's budget ``alpha >= 0`` (``inf`` keeps the whole ranking).
    """

    criterion: str
    param: object = None

    def __post_init__(self):
        c, p = self.criterion, self.param
        if c not in CRITERIA:
            raise ValueError(f"unknown criterion {c!r}")
        if c == "mr" and not isinstance(p, LossSpec):
            raise ValueError(f"mr takes a LossSpec, got {p!r}")
        if c == "mnc" and p is not None:
            raise ValueError(f"mnc takes no parameter, got {p!r}")
        if c == "cmnc" and not (isinstance(p, Integral) and p >= 0):
            raise ValueError(f"d must be an integer >= 0, got {p!r}")
        if c == "np" and not (isinstance(p, Real) and p >= 0):
            raise ValueError(f"alpha must be a number >= 0, got {p!r}")

    def cut(self, order, pi_star, log1m, ok) -> np.ndarray:
        """The positions of ``order`` kept, where ``order`` is
        ``rank_order(key, ok)`` and ``ok`` marks the scorable positions.

        A top-D baseline is CMNC on its own key, with no probabilities.
        """
        n_ok = int(np.count_nonzero(ok))
        if self.criterion == "cmnc":
            return top_cut(order, self.param, n_ok)
        if self.criterion == "np":
            # rank_order puts the scorable positions first
            return budget_cut(order[:n_ok], np.exp(log1m), self.param)
        loss = ZERO_ONE_LOSS if self.param is None else self.param
        return threshold_cut(order, pi_star, loss.threshold)


def _loss_from_t(t: float) -> LossSpec:
    if not 0.0 <= t <= 1.0:
        raise ValueError(f"t must lie in [0, 1], got {t}")
    # t + (1 - t) rounds to exactly 1, so the threshold is t itself
    return LossSpec(0.0, t, 1.0 - t, 0.0)


def _loss_from_lambdas(raw: str) -> LossSpec:
    weights = raw.split(",")
    if len(weights) != 4:
        raise ValueError("lambdas needs four weights gg,gb,bg,bb")
    return LossSpec(*map(float, weights))


# parameter key -> its Rule parameter, from the key's text
_PARAM_PARSERS = {"t": lambda raw: _loss_from_t(float(raw)),
                  "lambdas": _loss_from_lambdas, "d": int, "alpha": float}


def parse_rule(criterion, params: dict, where: str) -> Rule:
    """The rule of a ``[selection]`` section or of a method string.

    ``params`` maps lower-case parameter keys to their text; a key the
    criterion does not read is an error. Every failure raises
    ``ConfigInvalid`` naming ``where`` and the parameter.
    """
    if criterion not in CRITERIA:
        raise ConfigInvalid(f"{where}: unknown criterion {criterion!r}")
    keys = CRITERIA[criterion]
    extra = sorted(set(params) - set(keys))
    if extra:
        raise ConfigInvalid(f"{where}: {criterion} does not read {', '.join(extra)}")
    if keys and len(params) != 1:
        raise ConfigInvalid(f"{where}: {criterion} needs {' or '.join(keys)}")
    for key, raw in params.items():
        try:
            return Rule(criterion, _PARAM_PARSERS[key](raw))
        except ValueError as err:
            raise ConfigInvalid(f"{where} {key}={raw}: {err}") from None
    return Rule(criterion)


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


def _select(table: ScoreTable, rule: Rule, param, risk=None) -> SelectionResult:
    order = table.rank_order()
    chosen = rule.cut(order, table.pi_star, table.log1m, np.ones(len(table), bool))
    return SelectionResult(
        criterion=rule.criterion.upper(), param=param,
        ranking=table.ids_at(order), selected=table.ids_at(chosen),
        expected_risk=risk,
    )


def select_mr(table: ScoreTable, loss: LossSpec) -> SelectionResult:
    """Keep features with probability strictly above the loss threshold."""
    t = loss.threshold
    risk = _expected_risk(table, table.pi_star > t, loss)
    return _select(table, Rule("mr", loss), t, risk)


def select_mnc(table: ScoreTable) -> SelectionResult:
    """MR under the zero-one loss: keep probability > 0.5."""
    return replace(select_mr(table, ZERO_ONE_LOSS), criterion="MNC", param=0.5)


def select_cmnc(table: ScoreTable, d: int) -> SelectionResult:
    """Keep exactly the top d of the ranking."""
    if d < 0 or d > len(table):
        raise BadSize(f"d={d} outside [0, {len(table)}]")
    return _select(table, Rule("cmnc", d), d)


def select_np(table: ScoreTable, alpha: float) -> SelectionResult:
    """Longest ranked prefix whose expected false-selection count stays <= alpha.

    Costs 1 - probability are nondecreasing along the ranking, so the greedy
    prefix that stops at the first violation is optimal.
    """
    return _select(table, Rule("np", alpha), alpha)


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


def _subset_blocks(nf: int):
    """(masks, membership) of all 2^nf subsets, in blocks to bound memory.

    Masks ascend; membership row i holds bit f of ``masks[i]`` at column f.
    """
    m = 1 << nf
    shifts = np.arange(nf, dtype=np.uint32)
    for start in range(0, m, _ENUM_CHUNK):
        g = np.arange(start, min(start + _ENUM_CHUNK, m), dtype=np.uint32)
        yield g, ((g[:, None] >> shifts) & 1).astype(np.float64)


def subset_posterior(
    per_feature_log_h: Sequence[float],
    log_prior: Optional[Callable[[tuple], float]] = None,
) -> np.ndarray:
    """Exhaustive posterior over all subsets of a small feature set.

    Subset weight is ``sum of log_h over members`` plus, when given,
    ``log_prior(subset)``. With ``log_prior=None`` the log-odds are taken as
    complete (prior odds already folded in), which makes the implied subset
    prior the one that factorizes over features. Passing ``log_prior``
    overrides that factorized prior, in which case the supplied log-odds
    should carry likelihood ratios only; it is called with each subset as a
    sorted index tuple.

    Returns a float64 array of length 2^nf indexed by bitmask: entry g is
    the probability of the subset holding feature f exactly when bit f of g
    is set.
    """
    lh = np.asarray(per_feature_log_h, dtype=np.float64)
    nf = lh.size
    if nf > SUBSET_ENUM_LIMIT:
        raise TooLarge(f"exhaustive enumeration capped at {SUBSET_ENUM_LIMIT} features")
    if np.any(np.isnan(lh)) or np.any(np.isposinf(lh)):
        raise ValueError("per-feature log-odds must be finite or -inf")
    lh = np.where(np.isneginf(lh), _NEG_CLAMP, lh)

    logw = np.concatenate([bits @ lh for _, bits in _subset_blocks(nf)])
    if log_prior is not None:
        logw += [
            log_prior(tuple(f for f in range(nf) if g >> f & 1))
            for g in range(1 << nf)
        ]
    return np.exp(logw - logsumexp(logw))


def subset_marginals(posterior: np.ndarray, n_features: int) -> np.ndarray:
    """Per-feature inclusion probabilities of an exhaustive subset posterior."""
    p = np.asarray(posterior, dtype=np.float64)
    if p.shape != (1 << n_features,):
        raise ValueError("a subset posterior has 2**n_features entries")
    blocks = _subset_blocks(n_features)
    return sum((bits.T @ p[g] for g, bits in blocks), np.zeros(n_features))


def _lex_first(masks: np.ndarray) -> int:
    """The mask whose sorted index tuple is lexicographically smallest.

    All remaining masks share the members chosen so far; a mask equal to
    them ends first, else the smallest next member is kept.
    """
    chosen = np.uint32(0)
    while not np.any(masks == chosen):
        rest = masks ^ chosen
        lowest = rest & (~rest + np.uint32(1))
        step = lowest.min()
        masks = masks[lowest == step]
        chosen |= step
    return int(chosen)


def select_map(posterior: np.ndarray, size_constraint: Optional[int] = None) -> SelectionResult:
    """Highest-posterior subset, optionally restricted to a fixed size.

    ``posterior`` is an array from ``subset_posterior``. Exact ties go to
    the lexicographically smallest index set. The reported ranking orders
    features by their marginal inclusion probability.
    """
    p = np.asarray(posterior, dtype=np.float64)
    nf = p.size.bit_length() - 1
    marg = subset_marginals(p, nf)
    masks = np.arange(p.size, dtype=np.uint32)
    if size_constraint is not None:
        sizes = sum(((masks >> f) & 1 for f in range(nf)), np.zeros_like(masks))
        masks = masks[sizes == size_constraint]
        if not masks.size:
            raise BadSize(f"no subsets of size {size_constraint} in posterior")
    best = _lex_first(masks[p[masks] == np.max(p[masks])])
    ranking = tuple(int(i) for i in np.argsort(-marg, kind="stable"))
    return SelectionResult(
        criterion="MAP" if size_constraint is None else "CMAP",
        param=size_constraint,
        ranking=ranking,
        selected=tuple(f for f in range(nf) if best >> f & 1),
    )
