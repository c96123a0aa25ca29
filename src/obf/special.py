"""Self-contained numerical substrate: log-gamma, incomplete beta, logistic.

Each function is pinned to a fixed algorithm. ``log_gamma``,
``betainc_reg``, ``student_t_two_sided_p``, ``logistic`` and ``softplus``
take scalars or arrays; a scalar call is a one-element view of the array
path, so every formula has one implementation:

* ``log_gamma`` -- Lanczos approximation (g = 7, 9 coefficients) with the
  reflection formula for x < 0.5; relative accuracy ~1e-14 on x > 0.
* ``betainc_reg`` -- regularized incomplete beta via the standard continued
  fraction evaluated with Lentz's algorithm (tolerance 1e-12, <= 500 terms).
  The fraction runs elementwise over an array: each element leaves the loop
  at the term where it converges.
* ``student_t_two_sided_p`` -- I_x(df/2, 1/2) at x = df / (df + t^2). Its
  complement y = t^2 / (df + t^2) is formed directly and handed to the
  ``1 - I_y(1/2, df/2)`` branch, which keeps p accurate when |t| is near 0
  and x rounds to just below 1.
* ``logistic`` / ``softplus`` / ``logsumexp`` -- saturation-safe link
  functions used for all probability arithmetic, which stays in the natural
  log domain throughout the package.

The array paths take numpy's ``log``, ``log1p`` and ``exp``, whose last bit
can differ between the SIMD targets numpy dispatches to on different CPUs;
results are bit-reproducible on one machine, not yet across CPUs.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "log_gamma",
    "betainc_reg",
    "student_t_two_sided_p",
    "logistic",
    "softplus",
    "logit",
    "logsumexp",
]

_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)


def _log_gamma_core(x):
    """Lanczos series for x >= 0.5 (array-safe)."""
    w = x - 1.0
    acc = np.full_like(w, _LANCZOS_COEF[0])
    for i in range(1, 9):
        acc = acc + _LANCZOS_COEF[i] / (w + i)
    t = w + _LANCZOS_G + 0.5
    return _HALF_LOG_2PI + (w + 0.5) * np.log(t) - t + np.log(acc)


def log_gamma(x):
    """Natural log of the gamma function for x > 0 (scalar or array).

    Uses reflection for x < 0.5 so accuracy holds near the origin where the
    improper-prior bookkeeping can land.
    """
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    if np.any(arr <= 0.0):
        raise ValueError("log_gamma requires x > 0")
    out = np.empty_like(arr)
    small = arr < 0.5
    if np.any(small):
        xs = arr[small]
        out[small] = np.log(np.pi / np.sin(np.pi * xs)) - _log_gamma_core(1.0 - xs)
    big = ~small
    if np.any(big):
        out[big] = _log_gamma_core(arr[big])
    return float(out[0]) if scalar else out


_BETACF_TINY = 1e-300
_BETACF_TOL = 1e-12
_BETACF_MAX_ITER = 500


def _off_zero(v):
    """Lentz's guard: magnitudes below the tiny floor become the floor."""
    return np.where(np.abs(v) < _BETACF_TINY, _BETACF_TINY, v)


def _betacf(a, b, x):
    """Continued fraction for the incomplete beta, elementwise (Lentz).

    Every element runs the scalar recurrence; an element leaves the working
    arrays at the term where it converges, so the loop only touches the
    unconverged ones.
    """
    out = np.empty_like(x)
    live = np.arange(x.size)
    qab = a + b
    qap = a + 1.0
    qam = a - 1.0
    c = np.ones_like(x)
    d = 1.0 / _off_zero(1.0 - qab * x / qap)
    h = d
    for m in range(1, _BETACF_MAX_ITER + 1):
        if live.size == 0:
            break
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        h = h * (d * c)
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 / _off_zero(1.0 + aa * d)
        c = _off_zero(1.0 + aa / c)
        delta = d * c
        h = h * delta
        done = np.abs(delta - 1.0) < _BETACF_TOL
        if done.any():
            out[live[done]] = h[done]
            keep = ~done
            live = live[keep]
            a, b, x, qab, qap, qam, c, d, h = (
                v[keep] for v in (a, b, x, qab, qap, qam, c, d, h)
            )
    out[live] = h
    return out


def _betainc(a, b, x, y):
    """I_x(a, b) on 1-d arrays with a, b > 0, 0 < x < 1 and y = 1 - x.

    As in DiDonato and Morris (ACM TOMS 18(3), 1992), ``y`` is passed in,
    not rebuilt from ``x``: when x rounds to just below 1, 1 - x has lost
    its digits, while the caller can often form y to full precision. Both
    logs come from whichever of x and y is at most 1/2. The branch follows
    Numerical Recipes 6.4: the continued fraction of I_x(a, b) below
    (a + 1) / (a + b + 2), else 1 - I_y(b, a).
    """
    with np.errstate(divide="ignore"):
        lx = np.where(x <= 0.5, np.log(x), np.log1p(-y))
        ly = np.where(y <= 0.5, np.log(y), np.log1p(-x))
    front = np.exp(
        a * lx + b * ly + log_gamma(a + b) - log_gamma(a) - log_gamma(b)
    )
    direct = x < (a + 1.0) / (a + b + 2.0)
    p, q = np.where(direct, a, b), np.where(direct, b, a)
    part = front * _betacf(p, q, np.where(direct, x, y)) / p
    return np.where(direct, part, 1.0 - part)


def betainc_reg(a, b, x):
    """Regularized incomplete beta I_x(a, b) for a, b > 0 (scalar or array).

    Arguments broadcast together. x <= 0 gives 0, x >= 1 gives 1 and a NaN
    x gives NaN.
    """
    a, b, x = np.broadcast_arrays(
        *(np.asarray(v, dtype=np.float64) for v in (a, b, x))
    )
    if not (np.all(a > 0.0) and np.all(b > 0.0)):
        raise ValueError("betainc_reg requires a, b > 0")
    out = np.where(x >= 1.0, 1.0, np.where(np.isnan(x), np.nan, 0.0))
    inner = (x > 0.0) & (x < 1.0)
    out[inner] = _betainc(a[inner], b[inner], x[inner], 1.0 - x[inner])
    return float(out) if out.ndim == 0 else out


def student_t_two_sided_p(t, df):
    """Two-sided p-value of a Student-t statistic with df > 0 (scalar or array).

    p = I_x(df/2, 1/2) at x = df / (df + t^2), with the complement
    y = t^2 / (df + t^2) formed directly. Arguments broadcast together;
    t = 0 gives 1, t = +-inf gives 0 and a NaN t gives NaN.
    """
    t, df = np.broadcast_arrays(
        np.asarray(t, dtype=np.float64), np.asarray(df, dtype=np.float64)
    )
    out = np.where(np.isnan(t), np.nan, np.where(t == 0.0, 1.0, 0.0))
    live = np.isfinite(t) & (t != 0.0)
    t2, n = t[live] ** 2, df[live]
    if not np.all(n > 0.0):
        raise ValueError("student_t_two_sided_p requires df > 0")
    out[live] = _betainc(0.5 * n, np.full_like(n, 0.5), n / (n + t2), t2 / (n + t2))
    return float(out) if out.ndim == 0 else out


def logistic(x):
    """1 / (1 + exp(-x)), overflow-free; maps -inf/+inf to 0/1."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    z = np.exp(-np.abs(arr))
    out = np.where(arr >= 0.0, 1.0 / (1.0 + z), z / (1.0 + z))
    return float(out[0]) if scalar else out


def softplus(x):
    """log(1 + exp(x)) without overflow; softplus(-inf) = 0."""
    arr = np.asarray(x, dtype=np.float64)
    scalar = arr.ndim == 0
    arr = np.atleast_1d(arr)
    out = np.maximum(arr, 0.0) + np.log1p(np.exp(-np.abs(arr)))
    return float(out[0]) if scalar else out


def logit(p):
    """log(p / (1 - p)); maps 0/1 to -inf/+inf."""
    if p < 0.0 or p > 1.0:
        raise ValueError("logit requires p in [0, 1]")
    if p == 0.0:
        return -math.inf
    if p == 1.0:
        return math.inf
    return math.log(p) - math.log1p(-p)


def logsumexp(values):
    """log(sum(exp(values))) with the usual max shift; empty input -> -inf."""
    arr = np.asarray(values, dtype=np.float64)
    if arr.size == 0:
        return -math.inf
    m = float(np.max(arr))
    if math.isinf(m) and m < 0:
        return -math.inf
    return m + math.log(float(np.sum(np.exp(arr - m))))
