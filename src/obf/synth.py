"""Seeded generator for correlated two-class screening benchmarks.

The data model mixes four feature roles:

* global markers    -- equicorrelated blocks whose mean vector (and possibly
                       variance scale) differs between the classes;
* heterogeneous markers -- blocks shifted only inside one of two hidden
                       subclasses of class 1, half the blocks per group using
                       each subclass orientation;
* low-variance nulls -- equicorrelated blocks identically distributed in
                       both classes;
* high-variance nulls -- independent two-component Gaussian mixtures with a
                       fresh mixing weight per feature, identical in both
                       classes.

Blocked roles are spread evenly over parameter groups, each group scaling the
shared equicorrelation matrix by its own class-0/class-1 variance pair.

Determinism contract: output is a pure function of (config, n, seed),
bit-identical across runs and thread counts (not yet across CPUs: numpy's
SIMD ``log`` and glibc's FMA or non-FMA ``sin``/``cos`` vary by CPU; see
``rng``). Each block (and each high-variance feature) draws from its own
counter-based stream, so generation order never matters; see ``rng`` for
the exact bit derivations. Stream layout, for n samples and blocks of k:

* (seed, 0) drives the column placement permutation;
* (seed, 1, b) is the b-th correlated block: words 0..n*k-1 are Box-Muller
  pairs, and the normals fill the n x k block row-major (sample-major);
* (seed, 2, h) is the h-th high-variance feature: word 0 is the mixing
  weight, words 1..n the component draws (one uniform per sample), and
  words n+1..2n the normals, Box-Muller pairs in sample order.

Because each stream's words are fixed by this layout, ``column_batches``
draws the streams of one family in batches, one array pass per batch, and
gets the same bits as drawing them one stream at a time. ``generate`` places
its batches in one matrix; the sweep harness reduces each batch as it comes
and never holds the matrix.
"""

from __future__ import annotations

import hashlib
import json
import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .bayes import column_blocks
from .errors import ConfigInvalid, NotPD
from .rng import Stream, normals, stream_words, uniforms

GLOBAL = "GLOBAL"
HETERO = "HETERO"
LOWVAR_NULL = "LOWVAR_NULL"
HIGHVAR_NULL = "HIGHVAR_NULL"

# Words drawn per batch of streams, two streams at least; bounds each batch
# temporary near 0.5 MB.
_BATCH_WORDS = 1 << 16

FULL_GROUP_SIGMAS = ((0.16, 0.16), (0.49, 0.49), (0.09, 0.25), (0.49, 0.64))
DESK_GROUP_SIGMAS = ((0.16, 0.16), (0.09, 0.25))


@dataclass(frozen=True)
class SynthConfig:
    n_features: int
    n_global: int
    n_hetero: int
    n_lowvar: int
    n_highvar: int
    block_size: int = 5
    rho: float = 0.8
    n_groups: int = 4
    group_sigmas: tuple = FULL_GROUP_SIGMAS
    n_subclasses: int = 2
    mu1_pattern: str = "harmonic"

    def validate(self) -> None:
        counts = (self.n_global, self.n_hetero, self.n_lowvar, self.n_highvar)
        if any(c < 0 for c in counts) or self.n_features <= 0:
            raise ConfigInvalid("feature counts must be non-negative")
        if sum(counts) != self.n_features:
            raise ConfigInvalid("role counts must sum to n_features")
        k, g = self.block_size, self.n_groups
        if k < 1 or g < 1:
            raise ConfigInvalid("block_size and n_groups must be positive")
        for name, c in (("n_global", self.n_global), ("n_hetero", self.n_hetero),
                        ("n_lowvar", self.n_lowvar)):
            if c % k != 0:
                raise ConfigInvalid(f"{name} must be divisible by block_size")
            if (c // k) % g != 0:
                raise ConfigInvalid(f"{name} blocks must split evenly over groups")
        if self.n_highvar % g != 0:
            raise ConfigInvalid("n_highvar must be divisible by n_groups")
        if self.n_hetero and (self.n_hetero // (k * g)) % 2 != 0:
            raise ConfigInvalid(
                "hetero blocks per group must be even (two orientation halves)"
            )
        if k > 1 and not (-1.0 / (k - 1) < self.rho < 1.0):
            raise ConfigInvalid("rho outside the positive-definite range")
        if len(self.group_sigmas) != g:
            raise ConfigInvalid("group_sigmas must have one (s0, s1) pair per group")
        for pair in self.group_sigmas:
            if len(pair) != 2 or not all(0.0 < v < math.inf for v in pair):
                raise ConfigInvalid("group_sigmas variances must be finite and > 0")
        if self.n_subclasses < 1:
            raise ConfigInvalid("n_subclasses must be positive")
        if self.n_hetero and self.n_subclasses != 2:
            raise ConfigInvalid("heterogeneous markers require exactly 2 subclasses")
        if self.mu1_pattern != "harmonic":
            raise ConfigInvalid(f"unknown mu1_pattern {self.mu1_pattern!r}")

    def mu1(self) -> np.ndarray:
        """Shifted-class mean vector [1, 1/2, ..., 1/k]."""
        return 1.0 / np.arange(1, self.block_size + 1, dtype=np.float64)

    def to_dict(self) -> dict:
        return {
            "n_features": self.n_features,
            "n_global": self.n_global,
            "n_hetero": self.n_hetero,
            "n_lowvar": self.n_lowvar,
            "n_highvar": self.n_highvar,
            "block_size": self.block_size,
            "rho": self.rho,
            "n_groups": self.n_groups,
            "group_sigmas": [list(p) for p in self.group_sigmas],
            "n_subclasses": self.n_subclasses,
            "mu1_pattern": self.mu1_pattern,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "SynthConfig":
        d = dict(d)
        if "group_sigmas" in d:
            d["group_sigmas"] = tuple(tuple(p) for p in d["group_sigmas"])
        return cls(**d)

    def digest(self) -> str:
        payload = json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def full_config() -> SynthConfig:
    """Full-size benchmark: 20000 features, 100 markers, four groups."""
    return SynthConfig(
        n_features=20000, n_global=20, n_hetero=80,
        n_lowvar=11900, n_highvar=8000,
        block_size=5, rho=0.8, n_groups=4,
        group_sigmas=FULL_GROUP_SIGMAS,
    )


def desk_config() -> SynthConfig:
    """Small benchmark that keeps the role ratios: 2000 features, 50 markers.

    Two parameter groups (one equal-variance pair, one variance-split pair)
    keep every role divisible over groups at this size.
    """
    return SynthConfig(
        n_features=2000, n_global=10, n_hetero=40,
        n_lowvar=1150, n_highvar=800,
        block_size=5, rho=0.8, n_groups=2,
        group_sigmas=DESK_GROUP_SIGMAS,
    )


def _cholesky_lower(a: np.ndarray) -> np.ndarray:
    """Row-by-row lower Cholesky with plain loops (bit-stable, tiny k)."""
    n = a.shape[0]
    low = np.zeros_like(a)
    for i in range(n):
        for j in range(i + 1):
            acc = a[i, j]
            for t in range(j):
                acc -= low[i, t] * low[j, t]
            if i == j:
                if acc <= 0.0:
                    raise NotPD("covariance matrix is not positive definite")
                low[i, i] = math.sqrt(acc)
            else:
                low[i, j] = acc / low[j, j]
    return low


def block_covariance(k: int, rho: float, sigma: float):
    """Equicorrelated k x k covariance (diagonal sigma, off-diagonal
    sigma * rho) and its lower Cholesky factor."""
    cov = np.full((k, k), sigma * rho, dtype=np.float64)
    np.fill_diagonal(cov, sigma)
    return cov, _cholesky_lower(cov)


def _correlate(z: np.ndarray, low: np.ndarray) -> np.ndarray:
    """Apply lower Cholesky factors to iid normals row-wise, BLAS-free.

    `z` is (..., n, k); `low` is one (k, k) factor or a stack (..., k, k)
    with one factor per leading index of `z`.
    """
    k = z.shape[-1]
    out = np.zeros(z.shape, dtype=np.float64)
    for j in range(k):
        col = out[..., j]
        for t in range(j + 1):
            col += low[..., j, t, None] * z[..., t]
    return out


@dataclass
class LabeledMatrix:
    values: np.ndarray
    labels: np.ndarray
    truth: tuple
    seed: int
    config_digest: str
    subclass: Optional[np.ndarray] = field(default=None, repr=False)


def truth_set(matrix: LabeledMatrix) -> frozenset:
    """Column indices of the true markers."""
    return frozenset(
        f for f, tag in enumerate(matrix.truth) if tag in (GLOBAL, HETERO)
    )


def _canonical_blocks(config: SynthConfig):
    """Deterministic (role, group, orientation) list of correlated blocks.

    Blocks cycle over groups so each group gets the same count per role; the
    per-group hetero sequence is split into two halves, the first shifting
    subclass 1 and the second shifting subclass 0.
    """
    g = config.n_groups
    k = config.block_size
    blocks = []
    for b in range(config.n_global // k):
        blocks.append((GLOBAL, b % g, None))
    hb = config.n_hetero // k
    per_group = hb // g if g else 0
    for b in range(hb):
        orientation = 1 if (b // g) < per_group // 2 else 0
        blocks.append((HETERO, b % g, orientation))
    for b in range(config.n_lowvar // k):
        blocks.append((LOWVAR_NULL, b % g, None))
    return blocks


@dataclass(frozen=True)
class Layout:
    """What a draw of (config, n, seed) fixes besides its values.

    Rows 0..n/2-1 are class 0 and the rest class 1; within class 1 the first
    ceil(n1 / 2) rows form subclass 0 (the extra point lands there when n1 is
    odd). The placement permutation puts draw-order column ``inverse[j]``
    in column j; ``truth`` is the role tag of each placed column.
    """

    n: int
    seed: int
    labels: np.ndarray
    subclass: np.ndarray
    inverse: np.ndarray
    truth: tuple


def layout(config: SynthConfig, n: int, seed: int) -> Layout:
    """The labels, subclasses, placement and truth tags of a draw."""
    config.validate()
    if n < 4 or n % 2 != 0:
        raise ConfigInvalid("n must be an even integer >= 4")
    n0 = n // 2
    n1 = n - n0
    labels = np.zeros(n, dtype=np.int8)
    labels[n0:] = 1
    # subclass ids within class 1 (-1 elsewhere)
    subclass = np.full(n, -1, dtype=np.int8)
    n_sub0 = (n1 + 1) // 2
    subclass[n0:n0 + n_sub0] = 0
    subclass[n0 + n_sub0:] = 1

    inverse = np.argsort(Stream(seed, 0).permutation(config.n_features))
    draw_tags = np.array(
        [role for role, _, _ in _canonical_blocks(config)
         for _ in range(config.block_size)]
        + [HIGHVAR_NULL] * config.n_highvar,
        dtype=object,
    )
    return Layout(n=n, seed=seed, labels=labels, subclass=subclass,
                  inverse=inverse, truth=tuple(draw_tags[inverse].tolist()))


def _batches(config: SynthConfig, n: int):
    """The draw-order batches: lists of (stream family, first, stop) ranges
    of streams, each batch two columns wide or more unless the matrix has
    one column.

    ``column_blocks`` gives each family batches of two streams or more, of
    about ``_BATCH_WORDS`` words, so only a family of one column makes a
    lone column; it joins the other family's nearest batch.
    """
    k = config.block_size
    n_blocks = (config.n_features - config.n_highvar) // k
    batches = [[(1, a, b)] for a, b in column_blocks((n * k, n_blocks), _BATCH_WORDS)]
    batches += [[(2, a, b)] for a, b
                in column_blocks((2 * n + 1, config.n_highvar), _BATCH_WORDS)]
    if len(batches) > 1 and n_blocks * k == 1:
        batches[:2] = [batches[0] + batches[1]]
    if len(batches) > 1 and config.n_highvar == 1:
        batches[-2:] = [batches[-2] + batches[-1]]
    return batches


def column_batches(config: SynthConfig, draw: Layout, out=None):
    """Yield the draw-order columns of the matrix, a batch at a time, as
    n x w arrays: the correlated blocks, then the high-variance features.

    With ``out`` (n x F), each batch is written into its draw-order columns
    of ``out`` and yielded as that view. Without, each batch is a
    C-contiguous array in one buffer, which the next batch overwrites. A
    batch has two columns or more unless the matrix has one: numpy sums a
    lone contiguous column pairwise (see ``bayes.column_blocks``), so
    moments taken batch by batch are those of the whole matrix, bit for bit.
    """
    n, seed, k = draw.n, draw.seed, config.block_size
    blocks = _canonical_blocks(config)
    groups = np.array([group for _, group, _ in blocks], dtype=np.intp)
    # rows each block shifts: 0 none, 1 class 1, 2 + s subclass s
    shift_rows = np.stack([np.zeros(n, dtype=bool), draw.labels == 1,
                           draw.subclass == 0, draw.subclass == 1])
    shift_of = np.array(
        [1 if role == GLOBAL else 2 + orientation if role == HETERO else 0
         for role, _, orientation in blocks],
        dtype=np.intp,
    )
    # Cholesky factors per (group, class): (g, 2, k, k)
    low = np.array([[block_covariance(k, config.rho, sigma)[1] for sigma in pair]
                    for pair in config.group_sigmas])
    mu1 = config.mu1()
    scales = np.sqrt(np.array(config.group_sigmas, dtype=np.float64))

    batches = _batches(config, n)
    widths = [sum((b - a) * (k if family == 1 else 1) for family, a, b in batch)
              for batch in batches]
    buffer = np.empty(n * max(widths)) if out is None else None
    start = 0
    for batch, width in zip(batches, widths):
        if out is None:
            x = buffer[:n * width].reshape(n, width)
        else:
            x = out[:, start:start + width]
        col = 0
        for family, a, b in batch:
            ids = np.arange(a, b)
            if family == 1:
                z = normals(uniforms(stream_words(seed, 1, ids, n * k)))
                z = z.reshape(len(ids), n, k)
                drawn = _correlate(z, low[groups[ids], 0])
                shifted = ids[shift_of[ids] > 0]
                if shifted.size:
                    rel = shifted - a
                    y = _correlate(z[rel], low[groups[shifted], 1]) + mu1
                    drawn[rel] = np.where(shift_rows[shift_of[shifted], :, None],
                                          y, drawn[rel])
                # splitting whole rows of columns into blocks makes a view
                dest = x[:, col:col + len(ids) * k].reshape(n, len(ids), k)
                dest[...] = drawn.transpose(1, 0, 2)
                col += len(ids) * k
            else:
                u = uniforms(stream_words(seed, 2, ids, 2 * n + 1))
                comp = u[:, 1:n + 1] < u[:, :1]
                z = normals(u[:, n + 1:])
                sd = scales[ids % config.n_groups]
                x[:, col:col + len(ids)] = np.where(
                    comp, sd[:, :1] * z, 1.0 + sd[:, 1:] * z).T
                col += len(ids)
        yield x
        start += width


def generate(config: SynthConfig, n: int, seed: int) -> LabeledMatrix:
    """Draw an n-sample labeled matrix; a pure function of (config, n, seed).

    The rows and columns are as ``layout`` gives them: the batches of
    ``column_batches`` fill the matrix in draw order, and every column then
    moves to its placement.
    """
    draw = layout(config, n, seed)
    values = np.empty((n, config.n_features), dtype=np.float64)
    for _ in column_batches(config, draw, out=values):
        pass  # each batch is drawn into its columns of ``values``
    # Draw i sits in column i so far; column j takes draw inverse[j], with
    # one gather per chunk of rows.
    buf = np.empty((max(1, _BATCH_WORDS // config.n_features), config.n_features))
    for r0 in range(0, n, len(buf)):
        chunk = values[r0:r0 + len(buf)]
        np.take(chunk, draw.inverse, axis=1, out=buf[:len(chunk)])
        chunk[...] = buf[:len(chunk)]
    return LabeledMatrix(
        values=values,
        labels=draw.labels,
        truth=draw.truth,
        seed=seed,
        config_digest=config.digest(),
        subclass=draw.subclass,
    )
