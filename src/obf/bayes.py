"""Conjugate Gaussian scoring of per-feature class differences.

Each feature is modeled independently. Under the "different" hypothesis the
two classes carry separate normal-inverse-Wishart blocks; under the "same"
hypothesis a single block covers the pooled sample. A block places

    p(v) = A * v^(-(kappa+2)/2) * exp(-s / (2 v))          on the variance v,
    p(u|v) = B * v^(-1/2) * exp(-nu (u - m)^2 / (2 v))     on the mean u,

with A = (s/2)^(kappa/2) / Gamma(kappa/2) and B = (nu / 2 pi)^(1/2) when the
block is proper (s, kappa, nu > 0). Conjugacy gives closed-form updated
hyperparameters and marginal likelihoods, and the per-feature posterior odds
of "different" combine the prior odds pi/(1-pi), the normalization-weight
ratio L = A0 B0 A1 B1 / (A B), and a ratio of updated-scale powers.

All probability arithmetic stays in the natural log domain: the marginal
posterior converges to 1 exponentially fast for truly-different features, so
linear-domain storage would destroy the ranking among near-1 scores. Scores
therefore carry log-odds, the logistic-mapped probability, and a companion
log(1 - probability).

Improper blocks (any of s, kappa, nu zero) are supported: the weight L is
then a user-supplied constant, and the data must make every updated value
strictly positive, otherwise the feature is reported as degenerate rather
than silently scored.

Scores come from one pair of array kernels, ``matrix_stats`` and
``log_h_table``; one feature is scored as a one-column matrix.
``log_marginal`` is the closed form of a single block, which the acceptance
gate checks against quadrature.

All operations are pure functions; results are independent of evaluation
order and safe to invoke concurrently across features.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateData, EmptyClass, ImproperPrior
from .special import log_gamma, logistic, logit, softplus

_LOG_2PI = math.log(2.0 * math.pi)

DEFAULT_IMPROPER_L = 0.1


@dataclass(frozen=True)
class NIWHyper:
    """One normal-inverse-Wishart hyperparameter block.

    ``m`` may be omitted when ``nu == 0`` (the mean prior then carries no
    information and ``m`` never enters any formula).
    """

    s: float
    kappa: float
    m: float | None = None
    nu: float = 0.0

    def __post_init__(self):
        if not (self.s >= 0.0 and math.isfinite(self.s)):
            raise ValueError("s must be finite and >= 0")
        if not math.isfinite(self.kappa):
            raise ValueError("kappa must be finite")
        if not (self.nu >= 0.0 and math.isfinite(self.nu)):
            raise ValueError("nu must be finite and >= 0")
        if self.nu > 0.0 and self.m is None:
            raise ValueError("m is required when nu > 0")
        if self.m is not None and not math.isfinite(self.m):
            raise ValueError("m must be finite")

    @property
    def is_proper(self) -> bool:
        return self.s > 0.0 and self.kappa > 0.0 and self.nu > 0.0

    def to_dict(self) -> dict:
        d = {"s": self.s, "kappa": self.kappa, "nu": self.nu}
        if self.m is not None:
            d["m"] = self.m
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "NIWHyper":
        return cls(s=d["s"], kappa=d["kappa"], m=d.get("m"), nu=d.get("nu", 0.0))


@dataclass(frozen=True)
class ClassStats:
    """Sample count, mean, and unbiased variance for one group of points."""

    n: int
    mean: float | None = None
    var: float | None = None

    def __post_init__(self):
        if self.n < 0 or int(self.n) != self.n:
            raise ValueError("n must be a non-negative integer")
        if self.n >= 1 and self.mean is None:
            raise ValueError("mean is required when n >= 1")
        if (self.var is not None) != (self.n >= 2):
            raise ValueError("var must be present iff n >= 2")
        if self.var is not None and not (self.var >= 0.0):
            raise ValueError("var must be >= 0")


def log_block_norm_weight(block: NIWHyper) -> float:
    """log(A * B) of a proper block."""
    if not block.is_proper:
        raise ImproperPrior("normalization weight requires a proper block")
    return (
        0.5 * block.kappa * math.log(0.5 * block.s)
        - log_gamma(0.5 * block.kappa)
        + 0.5 * (math.log(block.nu) - _LOG_2PI)
    )


@dataclass(frozen=True)
class PriorSpec:
    """Complete per-feature prior: three blocks, pi, and the weight log L.

    The three blocks must be either all proper (``logL`` is then derived and
    must not be supplied) or all improper (``logL`` is user-supplied, default
    log 0.1). Mixed propriety is rejected.
    """

    good0: NIWHyper
    good1: NIWHyper
    bad: NIWHyper
    pi: float
    logL: float | None = None

    def __post_init__(self):
        if not (0.0 <= self.pi <= 1.0):
            raise ValueError("pi must lie in [0, 1]")
        if self.pi in (0.0, 1.0):
            warnings.warn(
                "pi at the boundary {0, 1} forfeits consistency guarantees",
                stacklevel=3,
            )
        propriety = [b.is_proper for b in (self.good0, self.good1, self.bad)]
        if all(propriety):
            if self.logL is not None:
                raise ImproperPrior(
                    "logL is derived for proper priors and must not be set"
                )
            object.__setattr__(self, "logL", derive_logL(self))
        elif not any(propriety):
            if self.logL is None:
                object.__setattr__(self, "logL", math.log(DEFAULT_IMPROPER_L))
        else:
            raise ImproperPrior(
                "blocks must be all proper or all improper, not mixed"
            )
        if not math.isfinite(self.logL):
            raise ValueError("logL must be finite")

    @property
    def is_proper(self) -> bool:
        return self.good0.is_proper

    def to_dict(self) -> dict:
        return {
            "good0": self.good0.to_dict(),
            "good1": self.good1.to_dict(),
            "bad": self.bad.to_dict(),
            "pi": self.pi,
            "logL": self.logL,
        }


def pp_prior(pi: float = 0.005) -> PriorSpec:
    """Proper preset: s=0.5, kappa=3, nu=0.1, means 0/0.2/0, pi=0.005."""
    return PriorSpec(
        good0=NIWHyper(s=0.5, kappa=3.0, m=0.0, nu=0.1),
        good1=NIWHyper(s=0.5, kappa=3.0, m=0.2, nu=0.1),
        bad=NIWHyper(s=0.5, kappa=3.0, m=0.0, nu=0.1),
        pi=pi,
    )


def jp_prior(pi: float = 0.005, L: float = DEFAULT_IMPROPER_L) -> PriorSpec:
    """Jeffreys-style improper preset: s = kappa = nu = 0, weight L (default 0.1)."""
    if not (math.isfinite(L) and L > 0.0):
        raise ValueError(f"L must be finite and > 0, got {L}")
    block = NIWHyper(s=0.0, kappa=0.0, m=None, nu=0.0)
    return PriorSpec(good0=block, good1=block, bad=block, pi=pi, logL=math.log(L))


def _starred(block: NIWHyper, n, mean, var):
    """Updated (s*, kappa*, nu*) of one block; array-safe in ``mean``/``var``.

    kappa* = kappa + n, nu* = nu + n, and
    s* = s + (n-1) var + (nu n / (nu + n)) (mean - m)^2, where the last term
    is present only when nu > 0.
    """
    kappa_star = block.kappa + n
    nu_star = block.nu + n
    s_star = block.s + (n - 1) * var
    if block.nu > 0.0:
        s_star = s_star + (block.nu * n / nu_star) * (mean - block.m) ** 2
    return s_star, kappa_star, nu_star


def log_marginal(prior: NIWHyper, stats: ClassStats, log_norm_weight=None) -> float:
    """Log marginal likelihood of one block's sample.

    log p(S) = log(A B) + lnG(kappa*/2) - (n-1)/2 log(2 pi)
               - 1/2 log(nu*) - kappa*/2 log(s*/2).

    ``log_norm_weight`` is log(A B); it is computed from the block when the
    block is proper and must be supplied by the caller otherwise. Raises
    ``DegenerateData`` when any of s*, kappa*, nu* fails to be positive,
    which happens for constant samples under improper priors.
    """
    n = stats.n
    # an absent mean (n = 0) or variance (n < 2) has a zero coefficient
    s_star, kappa_star, nu_star = _starred(
        prior, n,
        stats.mean if n >= 1 else prior.m,
        stats.var if n >= 2 else 0.0,
    )
    if not (s_star > 0.0 and kappa_star > 0.0 and nu_star > 0.0):
        raise DegenerateData(
            f"updated hyperparameters must be positive "
            f"(s*={s_star}, kappa*={kappa_star}, nu*={nu_star})"
        )
    if log_norm_weight is None:
        log_norm_weight = log_block_norm_weight(prior)
    return (
        log_norm_weight
        + log_gamma(0.5 * kappa_star)
        - 0.5 * (n - 1) * _LOG_2PI
        - 0.5 * math.log(nu_star)
        - 0.5 * kappa_star * math.log(0.5 * s_star)
    )


def derive_logL(spec: PriorSpec) -> float:
    """log of the normalization-weight ratio A0 B0 A1 B1 / (A B).

    Only defined when all three blocks are proper; improper priors carry a
    user-supplied weight instead.
    """
    blocks = (spec.good0, spec.good1, spec.bad)
    if not all(b.is_proper for b in blocks):
        raise ImproperPrior("derive_logL requires all three blocks proper")
    return (
        log_block_norm_weight(spec.good0)
        + log_block_norm_weight(spec.good1)
        - log_block_norm_weight(spec.bad)
    )


@dataclass(frozen=True)
class MatrixStats:
    """Vectorized per-feature statistics for an n x F sample matrix."""

    n0: int
    n1: int
    mean0: np.ndarray
    mean1: np.ndarray
    var0: np.ndarray
    var1: np.ndarray
    mean: np.ndarray
    var: np.ndarray

    @property
    def n(self) -> int:
        return self.n0 + self.n1

    @classmethod
    def joined(cls, parts, order) -> "MatrixStats":
        """The features of ``parts`` (statistics of the same rows) side by
        side, then taken in ``order``."""
        return cls(n0=parts[0].n0, n1=parts[0].n1, **{
            name: np.concatenate([getattr(p, name) for p in parts])[order]
            for name in ("mean0", "mean1", "var0", "var1", "mean", "var")
        })


# cells of a column block in matrix_stats: its temporaries, not the matrix's
# size, set how much memory the moments take
_BLOCK_CELLS = 1 << 16


def column_blocks(shape, cells):
    """(start, stop) of blocks of whole columns, of about ``cells`` cells, of
    an n x F matrix.

    A block has two columns or more, unless the matrix has one. numpy sums a
    lone contiguous column pairwise but a wider block down its rows in order,
    as it does the whole matrix, so column sums of the blocks are those of
    the whole matrix, bit for bit.
    """
    n, f = shape
    edges = [*range(0, f, max(2, cells // max(n, 1))), f]
    if len(edges) > 2 and edges[-1] - edges[-2] == 1:
        del edges[-2]
    return list(zip(edges, edges[1:]))


def _column_moments(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    n = x.shape[0]
    mean = np.sum(x, axis=0) / n
    d = x - mean
    total = np.sum(d, axis=0)
    ss = np.sum(np.multiply(d, d, out=d), axis=0) - total ** 2 / n
    return mean, np.maximum(ss, 0.0) / (n - 1)


def matrix_stats(values: np.ndarray, labels: np.ndarray) -> MatrixStats:
    """Class/pooled moments of every column; needs >= 2 points per class.

    ``labels`` must contain only 0 and 1. Columns are taken a block at a
    time (``column_blocks``), so no temporary has the matrix's size.
    """
    values = np.asarray(values, dtype=np.float64)
    labels = np.asarray(labels)
    if not np.all((labels == 0) | (labels == 1)):
        raise ValueError("labels must be 0 or 1")
    mask1 = labels == 1
    n1 = int(np.count_nonzero(mask1))
    n0 = int(labels.size - n1)
    if n0 < 2 or n1 < 2:
        raise EmptyClass("each class needs at least 2 points")
    rows0, rows1 = np.flatnonzero(~mask1), np.flatnonzero(mask1)
    moments = np.empty((6, values.shape[1]))
    for a, b in column_blocks(values.shape, _BLOCK_CELLS):
        block = values[:, a:b]
        moments[0:2, a:b] = _column_moments(block.take(rows0, axis=0))
        moments[2:4, a:b] = _column_moments(block.take(rows1, axis=0))
        moments[4:6, a:b] = _column_moments(block)
    mean0, var0, mean1, var1, mean, var = moments
    return MatrixStats(
        n0=n0, n1=n1, mean0=mean0, mean1=mean1,
        var0=var0, var1=var1, mean=mean, var=var,
    )


def log_h_table(spec: PriorSpec, stats: MatrixStats):
    """Vectorized scores for every feature of a dataset.

    log h = logit(pi) + log L + 1/2 log(2 pi nu* / (nu0* nu1*))
            + lnG(kappa0*/2) + lnG(kappa1*/2) - lnG(kappa*/2)
            + kappa*/2 log(s*/2) - kappa0*/2 log(s0*/2) - kappa1*/2 log(s1*/2),

    where starred values come from updating the class blocks on their class
    samples and the pooled block on the pooled sample.

    Returns ``(log_h, pi_star, log1m_pi_star, ok)`` arrays. Features whose
    updated scales are not strictly positive are flagged ``ok = False`` and
    carry NaN scores instead of raising, so one bad probe cannot abort a
    whole screen.
    """
    nf = stats.mean0.shape[0]
    if spec.pi == 0.0 or spec.pi == 1.0:
        sign = -math.inf if spec.pi == 0.0 else math.inf
        lh = np.full(nf, sign)
        return lh, logistic(lh), -softplus(lh), np.ones(nf, dtype=bool)

    s0, k0, v0 = _starred(spec.good0, stats.n0, stats.mean0, stats.var0)
    s1, k1, v1 = _starred(spec.good1, stats.n1, stats.mean1, stats.var1)
    sp, kp, vp = _starred(spec.bad, stats.n, stats.mean, stats.var)
    ok = (s0 > 0.0) & (s1 > 0.0) & (sp > 0.0)
    if not (k0 > 0 and k1 > 0 and kp > 0 and v0 > 0 and v1 > 0 and vp > 0):
        raise DegenerateData(
            "sample sizes leave non-positive kappa* or nu* for every feature"
        )
    const = (
        logit(spec.pi)
        + spec.logL
        + 0.5 * (_LOG_2PI + math.log(vp) - math.log(v0) - math.log(v1))
        + log_gamma(0.5 * k0)
        + log_gamma(0.5 * k1)
        - log_gamma(0.5 * kp)
    )
    with np.errstate(divide="ignore", invalid="ignore"):
        lh = (
            const
            + 0.5 * kp * np.log(0.5 * sp)
            - 0.5 * k0 * np.log(0.5 * s0)
            - 0.5 * k1 * np.log(0.5 * s1)
        )
    lh = np.where(ok, lh, np.nan)
    pi_star = np.where(ok, logistic(np.where(ok, lh, 0.0)), np.nan)
    log1m = np.where(ok, -softplus(np.where(ok, lh, 0.0)), np.nan)
    return lh, pi_star, log1m, ok
