"""Independent reference implementations used only by the tests.

Nothing here may call into the package's own closed-form paths: oracles are
either high-precision (mpmath at 50 digits) or brute-force (adaptive
quadrature, exhaustive enumeration), so agreement with the package is a real
cross-check rather than a tautology. The exceptions are the per-stream
generator, which draws through ``obf.rng.Stream`` (``tests/test_rng.py``
checks those streams word for word on their own), the row-by-row
dataset reader, which takes its rows from ``obf.dataio.read_csv_text``, the
package's text-mode CSV reader, and the materialized sweep cell, which
scores a whole generated matrix with the package's own kernels.
"""

from __future__ import annotations

import math

import mpmath
import numpy as np
from scipy import integrate, optimize

mpmath.mp.dps = 50


def log_gamma_ref(x: float) -> float:
    return float(mpmath.loggamma(mpmath.mpf(x)))


def student_t_two_sided_p_ref(t: float, df: float) -> float:
    """2 * SF(|t|) via the regularized incomplete beta at 50 digits."""
    if t == 0.0:
        return 1.0
    x = mpmath.mpf(df) / (mpmath.mpf(df) + mpmath.mpf(t) ** 2)
    return float(mpmath.betainc(mpmath.mpf(df) / 2, mpmath.mpf("0.5"),
                                0, x, regularized=True))


def betainc_ref(a: float, b: float, x: float) -> float:
    return float(mpmath.betainc(mpmath.mpf(a), mpmath.mpf(b), 0,
                                mpmath.mpf(x), regularized=True))


def student_t_logpdf(x: float, df: float, loc: float, scale: float) -> float:
    """Log density of a location-scale Student-t (closed form, mpmath)."""
    z = (mpmath.mpf(x) - mpmath.mpf(loc)) / mpmath.mpf(scale)
    df = mpmath.mpf(df)
    out = (
        mpmath.loggamma((df + 1) / 2)
        - mpmath.loggamma(df / 2)
        - mpmath.mpf("0.5") * mpmath.log(df * mpmath.pi)
        - mpmath.log(mpmath.mpf(scale))
        - (df + 1) / 2 * mpmath.log(1 + z * z / df)
    )
    return float(out)


def log_marginal_quadrature(s, kappa, m, nu, xs) -> float:
    """log of the prior-times-likelihood normalization by 2-D quadrature.

    Integrates A v^(-(kappa+2)/2) e^(-s/2v) * B v^(-1/2)
    e^(-nu (u-m)^2 / 2v) * prod N(x_i; u, v) du dv over u in R, v > 0,
    in (u, t = log v) coordinates, shifting out the integrand maximum first
    so the double exponential stays in range.
    """
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.size
    xs_list = xs.tolist()
    log_ab = (
        0.5 * kappa * math.log(0.5 * s)
        - float(mpmath.loggamma(0.5 * kappa))
        + 0.5 * (math.log(nu) - math.log(2.0 * math.pi))
    )

    def log_integrand(u, t):
        v = math.exp(t)
        out = log_ab
        out += -0.5 * (kappa + 2.0) * t - 0.5 * s / v
        out += -0.5 * t - 0.5 * nu * (u - m) ** 2 / v
        out += -0.5 * n * math.log(2.0 * math.pi) - 0.5 * n * t
        # plain-float loop, not np.sum: this runs ~50k times per case on at
        # most 8 values, where numpy's per-call overhead dominated the time
        ssq = 0.0
        for x in xs_list:
            ssq += (x - u) ** 2
        out += -0.5 * ssq / v
        return out + t  # Jacobian of v = exp(t)

    # locate the maximum (coarse grid, then simplex refinement)
    anchor = np.concatenate((xs, [m]))
    lo_u = float(np.min(anchor)) - 10.0
    hi_u = float(np.max(anchor)) + 10.0
    data_scale = max(float(np.var(xs)) if n > 1 else 0.0, s / max(kappa, 1.0))
    t_center = math.log(max(data_scale, 1e-3))
    grid_u = np.linspace(lo_u, hi_u, 21)
    grid_t = np.linspace(t_center - 12.0, t_center + 12.0, 31)
    best = max(
        ((log_integrand(u, t), u, t) for u in grid_u for t in grid_t),
        key=lambda item: item[0],
    )
    opt = optimize.minimize(
        lambda p: -log_integrand(p[0], p[1]),
        x0=[best[1], best[2]],
        method="Nelder-Mead",
        options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000},
    )
    u_star, t_star = float(opt.x[0]), float(opt.x[1])
    shift = log_integrand(u_star, t_star)

    def curvature_width(axis: int) -> float:
        h = 1e-4
        if axis == 0:
            d2 = (
                log_integrand(u_star + h, t_star)
                - 2.0 * shift
                + log_integrand(u_star - h, t_star)
            ) / h**2
        else:
            d2 = (
                log_integrand(u_star, t_star + h)
                - 2.0 * shift
                + log_integrand(u_star, t_star - h)
            ) / h**2
        if d2 < 0.0:
            return 1.0 / math.sqrt(-d2)
        return 1.0

    w_t = curvature_width(1)
    # right tail of t decays only like exp(-(kappa + n + 1) t / 2); size the
    # box so the clipped mass is ~exp(-60) of the peak
    tail = 120.0 / (kappa + n + 1.0)
    span_t = (
        t_star - max(14.0 * w_t, 10.0),
        t_star + max(14.0 * w_t, tail, 6.0),
    )
    # given v the u-factor is a Gaussian centered at u_c with sd
    # sqrt(v / (nu + n)), so the inner limits must widen with t
    u_c = (nu * m + float(np.sum(xs))) / (nu + n)

    def u_lo(t):
        return u_c - 14.0 * math.sqrt(math.exp(t) / (nu + n))

    def u_hi(t):
        return u_c + 14.0 * math.sqrt(math.exp(t) / (nu + n))

    value, _ = integrate.dblquad(
        lambda u, t: math.exp(log_integrand(u, t) - shift),
        span_t[0], span_t[1],
        u_lo, u_hi,
        epsabs=1e-14, epsrel=1e-11,
    )
    return shift + math.log(value)


def improper_log_h_ref(pi, weight_l, xs0, xs1) -> float:
    """High-precision score under the fully improper preset.

    Evaluates, at 50 digits straight from the raw samples,
    logit(pi) + log L + 1/2 log(2 pi n / (n0 n1))
    + lnG(n0/2) + lnG(n1/2) - lnG(n/2)
    + n/2 log(ss/2) - n0/2 log(ss0/2) - n1/2 log(ss1/2),
    where ss* are centered sums of squares of each sample.
    """

    def ssq(xs):
        xs = [mpmath.mpf(x) for x in xs]
        mean = mpmath.fsum(xs) / len(xs)
        return mpmath.fsum((x - mean) ** 2 for x in xs)

    n0, n1 = len(xs0), len(xs1)
    n = n0 + n1
    pi = mpmath.mpf(pi)
    out = (
        mpmath.log(pi / (1 - pi))
        + mpmath.log(mpmath.mpf(weight_l))
        + mpmath.mpf("0.5") * mpmath.log(2 * mpmath.pi * n / (n0 * n1))
        + mpmath.loggamma(mpmath.mpf(n0) / 2)
        + mpmath.loggamma(mpmath.mpf(n1) / 2)
        - mpmath.loggamma(mpmath.mpf(n) / 2)
        + mpmath.mpf(n) / 2 * mpmath.log(ssq(list(xs0) + list(xs1)) / 2)
        - mpmath.mpf(n0) / 2 * mpmath.log(ssq(xs0) / 2)
        - mpmath.mpf(n1) / 2 * mpmath.log(ssq(xs1) / 2)
    )
    return float(out)


def exhaustive_risks(posterior, n_features: int, loss) -> np.ndarray:
    """Expected loss of every candidate subset, by full enumeration.

    ``posterior`` holds the probability of each truth subset, indexed by
    bit mask. Candidate g and truth g' are bit masks; the loss of the pair
    is assembled from the four overlap counts and weighted by the posterior.
    """
    m = 1 << n_features
    probs = np.asarray(posterior, dtype=np.float64)
    assert probs.shape == (m,)
    g = np.arange(m, dtype=np.uint32)
    pop = np.bitwise_count(g).astype(np.float64)
    inter = np.bitwise_count(g[:, None] & g[None, :]).astype(np.float64)
    g_only = pop[:, None] - inter
    gp_only = pop[None, :] - inter
    neither = n_features - pop[:, None] - pop[None, :] + inter
    loss_matrix = (
        loss.lambda_gg * inter
        + loss.lambda_gb * g_only
        + loss.lambda_bg * gp_only
        + loss.lambda_bb * neither
    )
    return loss_matrix @ probs


def map_subset_loop(posterior, n_features: int, size=None) -> tuple:
    """The MAP subset by a loop over every subset of a bitmask posterior.

    Highest probability first; exact ties go to the lexicographically
    smallest index tuple. ``size`` restricts the candidates to that size.
    """
    best = None
    for g, p in enumerate(np.asarray(posterior).tolist()):
        subset = tuple(f for f in range(n_features) if g >> f & 1)
        if size is not None and len(subset) != size:
            continue
        if best is None or (-p, subset) < best:
            best = (-p, subset)
    return best[1]


def mask_of(subset) -> int:
    mask = 0
    for f in subset:
        mask |= 1 << f
    return mask


def np_prefix_length(costs, alpha: float) -> int:
    """How many ranked costs the NP rule keeps: a greedy left-to-right loop.

    Adds costs in rank order and stops at the first one that would take the
    running total above alpha. This is the loop the package's NP rule used
    before it became a cumulative sum plus a binary search.
    """
    total = 0.0
    k = 0
    for c in costs:
        if total + c > alpha:
            break
        total += float(c)
        k += 1
    return k


_MASK64 = (1 << 64) - 1


def splitmix64_ref(z: int) -> int:
    """The splitmix64 finalizer on plain Python ints."""
    z = (z + 0x9E3779B97F4A7C15) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return z ^ (z >> 31)


def generate_per_stream(config, n: int, seed: int):
    """The synthetic generator drawn one stream at a time.

    Each correlated block and each mixture feature keys its own
    ``Stream`` and draws its words in the documented layout, then the
    Cholesky factor is applied one block at a time with plain loops. This is
    the generator as it was written before it was batched across streams,
    so ``generate`` must match it bit for bit.
    """
    from obf.rng import Stream
    from obf.synth import (
        GLOBAL, HETERO, HIGHVAR_NULL, LabeledMatrix, _canonical_blocks,
        block_covariance,
    )

    def correlate(z, low):
        out = np.zeros(z.shape, dtype=np.float64)
        for j in range(z.shape[1]):
            col = out[:, j]
            for t in range(j + 1):
                col += low[j, t] * z[:, t]
        return out

    n0 = n // 2
    n1 = n - n0
    labels = np.zeros(n, dtype=np.int8)
    labels[n0:] = 1
    subclass = np.full(n, -1, dtype=np.int8)
    n_sub0 = (n1 + 1) // 2
    subclass[n0:n0 + n_sub0] = 0
    subclass[n0 + n_sub0:] = 1

    k = config.block_size
    mu1 = config.mu1()
    perm = Stream(seed, 0).permutation(config.n_features)
    values = np.empty((n, config.n_features), dtype=np.float64)
    truth = [""] * config.n_features
    col = 0
    for b, (role, group, orientation) in enumerate(_canonical_blocks(config)):
        sigma0, sigma1 = config.group_sigmas[group]
        z = Stream(seed, 1, b).normals(n * k).reshape(n, k)
        x = correlate(z, block_covariance(k, config.rho, sigma0)[1])
        if role == GLOBAL:
            shifted = labels == 1
        elif role == HETERO:
            shifted = subclass == orientation
        else:
            shifted = None
        if shifted is not None and np.any(shifted):
            low1 = block_covariance(k, config.rho, sigma1)[1]
            x[shifted] = correlate(z[shifted], low1) + mu1
        cols = perm[col:col + k]
        values[:, cols] = x
        for c in cols:
            truth[c] = role
        col += k

    for h in range(config.n_highvar):
        sigma0, sigma1 = config.group_sigmas[h % config.n_groups]
        stream = Stream(seed, 2, h)
        p = stream.uniforms(1)[0]
        comp = stream.uniforms(n) < p
        z = stream.normals(n)
        column = np.where(comp, math.sqrt(sigma0) * z, 1.0 + math.sqrt(sigma1) * z)
        c = perm[col]
        values[:, c] = column
        truth[c] = HIGHVAR_NULL
        col += 1

    return LabeledMatrix(
        values=values, labels=labels, truth=tuple(truth), seed=seed,
        config_digest=config.digest(), subclass=subclass,
    )


def replicate_cell_materialized(payload):
    """A sweep cell that holds its whole matrix: ``generate``, then
    ``matrix_stats``, ``mi_array`` and ``log_h_table`` on the matrix, as the
    cell was written before it reduced its draw a batch of columns at a
    time. ``harness._replicate_cell`` must match it bit for bit.
    """
    from obf.baselines import bd_array, mi_array, welch_t_array, wilks_array
    from obf.bayes import log_h_table, matrix_stats
    from obf.errors import DegenerateData
    from obf.harness import MARKER_TAGS, _prior_for, score_selection
    from obf.rng import replicate_seed
    from obf.selection import rank_order
    from obf.synth import generate

    config, base_seed, n, rep, methods, probe_preset, probe_tags = payload
    data = generate(config, n, replicate_seed(base_seed, n, rep))
    ms = matrix_stats(data.values, data.labels)
    truth = {i for i, tag in enumerate(data.truth) if tag in MARKER_TAGS}
    nf = config.n_features

    def baseline(kind):
        if kind == "welch_t":
            t, ok = welch_t_array(ms)
            return np.abs(t), ok
        if kind == "bd":
            return bd_array(ms)
        if kind == "wilks":
            value, ok = wilks_array(ms)
            return -value, ok
        try:
            return mi_array(data.values, data.labels)
        except DegenerateData:
            return np.full(nf, np.nan), np.zeros(nf, dtype=bool)

    per_method = {}
    for method in methods:
        if method.kind == "obf":
            key, pi_star, log1m, ok = log_h_table(method.prior, ms)
        else:
            (key, ok), pi_star, log1m = baseline(method.kind), None, None
        picked = method.rule.cut(rank_order(key, ok), pi_star, log1m, ok)
        correct, tp, fp = score_selection(picked.tolist(), truth, nf)
        per_method[method.name] = (
            correct, tp, fp, picked.size, int(np.count_nonzero(~ok)),
        )
    probe = None
    if probe_preset is not None:
        lh, _, _, ok = log_h_table(_prior_for(probe_preset), ms)
        probe_mask = np.array([t in probe_tags for t in data.truth], dtype=bool)
        probe = (lh[probe_mask & ok], lh[~probe_mask & ok])
    return (n, rep), per_method, probe


def read_dataset_rows(path, label_column="label", transpose=False):
    """``obf.dataio.read_dataset`` by the row-by-row path: the whole file
    read in text mode by ``read_csv_text``, then each row converted by
    ``float()``'s grammar, in one step, straight into the samples x features
    matrix. Error positions are in the file's own orientation.
    """
    from obf.dataio import read_csv_text
    from obf.errors import DatasetParseError

    header, rows, _ = read_csv_text(path)
    # feature names run along the header, or down the file's first column
    names = [row[0] for row in rows] if transpose else header
    line = "row" if transpose else "column"
    if label_column not in names:
        raise DatasetParseError(f"{path}: no {label_column!r} {line}")
    first = {}
    for k, name in enumerate(names):
        seen = first.setdefault(name, k)
        if seen != k:
            before, at = (seen + 2, k + 2) if transpose else (seen + 1, k + 1)
            if name == label_column:
                problem = f"{name!r} names both {line} {before} and {line} {at}"
            else:
                problem = f"duplicate feature name {name!r}, first at {line} {before}"
            raise DatasetParseError(f"{path}: {problem}", **{line: at})
    if len(names) == 1:
        raise DatasetParseError(f"{path}: no feature {line}s")
    at = names.index(label_column)
    feature_names = names[:at] + names[at + 1:]
    n = len(header) - 1 if transpose else len(rows)
    values = np.empty((n, len(feature_names)), dtype=np.float64)

    def bad_cell(cells, row, first_column, label_cells=()):
        for k, cell in enumerate(cells):
            if k in label_cells:
                problem = None if cell in ("0", "1") else "label must be 0 or 1, found"
            else:
                try:
                    problem = None if math.isfinite(float(cell)) else "non-finite value"
                except ValueError:
                    problem = "not a number:"
            if problem:
                return DatasetParseError(f"{path}: {problem} {cell!r}",
                                         row=row, column=first_column + k)
        raise AssertionError(f"{path}: row {row} has no bad cell")

    def fill(target, cells):
        try:
            target[...] = cells
        except ValueError:
            return False
        return bool(np.isfinite(target).all())

    if transpose:
        label_cells = rows[at][1:]
        for j, row in enumerate(rows):
            if j == at:
                if not set(label_cells) <= {"0", "1"}:
                    raise bad_cell(label_cells, j + 2, 2, range(n))
            elif not fill(values[:, j - (j > at)], row[1:]):
                raise bad_cell(row[1:], j + 2, 2)
    else:
        label_cells = [row[at] for row in rows]
        for i, row in enumerate(rows):
            if not (fill(values[i], row[:at] + row[at + 1:]) and row[at] in ("0", "1")):
                raise bad_cell(row, i + 2, 1, (at,))
    labels = np.array([cell == "1" for cell in label_cells], dtype=np.int8)
    n1 = int(np.count_nonzero(labels))
    if n1 < 2 or n - n1 < 2:
        raise DatasetParseError(f"{path}: need at least 2 samples per class")
    return values, labels, feature_names
