"""Independent reference implementations used only by the tests.

Nothing here may call into the package's own closed-form paths: oracles are
either high-precision (mpmath at 50 digits) or brute-force (adaptive
quadrature, exhaustive enumeration), so agreement with the package is a real
cross-check rather than a tautology.
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


def exhaustive_risks(posterior: dict, n_features: int, loss) -> np.ndarray:
    """Expected loss of every candidate subset, by full enumeration.

    Candidate g and truth g' are bit masks; the loss of the pair is assembled
    from the four overlap counts and weighted by the posterior.
    """
    m = 1 << n_features
    probs = np.zeros(m)
    for subset, p in posterior.items():
        mask = 0
        for f in subset:
            mask |= 1 << f
        probs[mask] = p
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
