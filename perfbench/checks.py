"""Checks of every command's output, made apart from the program.

Each check either recomputes what the command printed (closed-form scores
with scipy, Welch's test with scipy, sweep rows from their own cells) or tests
a property the method must have (ROC points on the line x + y = k, ranks that
descend in log-odds). None compares against stored bytes. A check raises
``CheckError``; ``selftest.py`` feeds each one an altered copy of a real
output and expects it to raise.

The reader here is deliberately light (a row split plus ``float``): the
datasets are 79 MB, and ``np.loadtxt(..., dtype=str)`` needs gigabytes.
"""

from __future__ import annotations

import math
import re

import numpy as np
from scipy import special, stats

MARKER_TAGS = ("GLOBAL", "HETERO")
_LOG_2PI = math.log(2.0 * math.pi)
# pi and the improper weight L of obf's pp and jp presets; the pp blocks are
# (s, kappa, m, nu) for class 0, class 1 and the pooled sample
_PI = 0.005
_JP_LOG_WEIGHT = math.log(0.1)
_PP_BLOCKS = ((0.5, 3.0, 0.0, 0.1), (0.5, 3.0, 0.2, 0.1), (0.5, 3.0, 0.0, 0.1))


class CheckError(Exception):
    """An output that the independent computation does not confirm."""


class Table:
    """Header and rows of a '#'-commented CSV file, cells kept as text."""

    def __init__(self, header, rows):
        self.header = list(header)
        self.rows = [list(r) for r in rows]

    def col(self, name) -> list:
        i = self.header.index(name)
        return [r[i] for r in self.rows]

    def num(self, name) -> np.ndarray:
        """A column as floats; blank cells become NaN."""
        return np.array(
            [float(c) if c != "" else math.nan for c in self.col(name)],
            dtype=np.float64,
        )


def _data_lines(path):
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line and not line.startswith("#"):
                yield line


def read_table(path) -> Table:
    lines = _data_lines(path)
    header = next(lines).split(",")
    return Table(header, (line.split(",") for line in lines))


def read_matrix(path):
    """(header, values) of a samples-in-rows dataset, label column included."""
    lines = _data_lines(path)
    header = next(lines).split(",")
    rows = [np.array(line.split(","), dtype=np.float64) for line in lines]
    return header, np.array(rows)


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _first_bad(mask) -> int:
    return int(np.flatnonzero(mask)[0])


# ---------------------------------------------------------------------------
# simulate
# ---------------------------------------------------------------------------


def check_simulate_values(header, matrix, data, names):
    """The file parses back to generate(config, n, seed), bit for bit."""
    _require(header == list(names) + ["label"], "header is not f000000.. + label")
    _require(matrix.shape == (data.values.shape[0], len(names) + 1),
             f"shape {matrix.shape}")
    got = np.ascontiguousarray(matrix[:, :-1]).view(np.uint64)
    want = np.ascontiguousarray(data.values).view(np.uint64)
    bad = got != want
    if np.any(bad):
        i, j = np.argwhere(bad)[0]
        raise CheckError(f"cell ({i}, {names[j]}) is {matrix[i, j]!r}, "
                         f"generate gives {data.values[i, j]!r}")
    _require(np.array_equal(matrix[:, -1], data.labels), "labels differ")


def check_simulate_truth(truth: Table, names, tags):
    """One tag per feature, in the counts the preset defines."""
    _require(truth.col("feature") == list(names), "truth rows are not the features")
    got = {}
    for tag in truth.col("tag"):
        got[tag] = got.get(tag, 0) + 1
    _require(got == dict(tags), f"tag counts {got}, preset has {dict(tags)}")


# ---------------------------------------------------------------------------
# rank
# ---------------------------------------------------------------------------


def closed_form_log_h(values, labels, prior):
    """(log h, ok, scale) per feature from the conjugate closed form.

    log h = logit(pi) + log L + 1/2 log(2 pi nu_b* / (nu_0* nu_1*))
            + lnG(k0*/2) + lnG(k1*/2) - lnG(kb*/2)
            + kb*/2 log(sb*/2) - k0*/2 log(s0*/2) - k1*/2 log(s1*/2),
    with the starred values of each block updated on its sample. ``scale``
    sums the magnitudes of the terms, which sets the rounding to expect.
    """
    samples = (values[labels == 0], values[labels == 1], values)
    if prior == "pp":
        s, kappa, _, nu = _PP_BLOCKS[0]
        log_ab = (0.5 * kappa * math.log(0.5 * s) - special.gammaln(0.5 * kappa)
                  + 0.5 * (math.log(nu) - _LOG_2PI))
        # log(A0 B0 A1 B1 / (A B)); the three blocks share s, kappa and nu
        log_weight = log_ab
        blocks = _PP_BLOCKS
    else:
        log_weight = _JP_LOG_WEIGHT
        blocks = ((0.0, 0.0, 0.0, 0.0),) * 3
    starred = []
    for x, (s, kappa, m, nu) in zip(samples, blocks):
        n = x.shape[0]
        mean = x.mean(axis=0)
        s_star = s + ((x - mean) ** 2).sum(axis=0)
        if nu > 0.0:
            s_star = s_star + (nu * n / (nu + n)) * (mean - m) ** 2
        starred.append((kappa + n, nu + n, s_star))
    (k0, v0, s0), (k1, v1, s1), (kb, vb, sb) = starred
    ok = (s0 > 0.0) & (s1 > 0.0) & (sb > 0.0)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = [
            math.log(_PI / (1.0 - _PI)) + log_weight
            + 0.5 * (_LOG_2PI + math.log(vb) - math.log(v0) - math.log(v1)),
            special.gammaln(0.5 * k0), special.gammaln(0.5 * k1),
            -special.gammaln(0.5 * kb),
            0.5 * kb * np.log(0.5 * sb),
            -0.5 * k0 * np.log(0.5 * s0),
            -0.5 * k1 * np.log(0.5 * s1),
        ]
    log_h = sum(terms)
    scale = sum(np.abs(t) for t in terms)
    return log_h, ok, scale


def check_rank_features(ranked: Table, names):
    """Every feature of the dataset appears exactly once."""
    got = ranked.col("feature")
    _require(len(got) == len(names) and set(got) == set(names),
             f"{len(got)} rows, {len(set(got))} distinct, "
             f"{len(names)} features in the dataset")


def check_rank_order(ranked: Table):
    """Ranks run 1, 2, ... over the scored rows and descend in log_h."""
    status = ranked.col("status")
    k = status.count("ok")
    _require(status == ["ok"] * k + ["degenerate"] * (len(status) - k),
             "degenerate rows are not all after the scored ones")
    _require(ranked.col("rank")[:k] == [str(i) for i in range(1, k + 1)],
             "ranks are not 1..K in row order")
    log_h = ranked.num("log_h")[:k]
    _require(not np.any(np.isnan(log_h)), "a scored row has no log_h")
    rising = log_h[1:] > log_h[:-1]
    if np.any(rising):
        i = _first_bad(rising)
        raise CheckError(f"log_h rises from rank {i + 1} to rank {i + 2}")


def check_rank_probabilities(ranked: Table):
    """pi_star + exp(log1m_pi_star) = 1, and both follow from log_h."""
    ok = np.array(ranked.col("status")) == "ok"
    log_h = ranked.num("log_h")[ok]
    pi = ranked.num("pi_star")[ok]
    log1m = ranked.num("log1m_pi_star")[ok]
    checks = (
        ("pi_star + exp(log1m_pi_star) - 1", pi + np.exp(log1m) - 1.0, 1.0),
        ("pi_star - expit(log_h)", pi - special.expit(log_h), pi),
        ("log1m_pi_star + log(1 + exp(log_h))",
         log1m + np.logaddexp(0.0, log_h), np.abs(log1m)),
    )
    for what, err, size in checks:
        bad = ~(np.abs(err) <= 1e-12 * np.maximum(size, 1e-300))
        if np.any(bad):
            i = _first_bad(bad)
            raise CheckError(f"{what} = {err[i]!r} at rank {i + 1}")


def _columns_of(ranked: Table, names):
    where = {name: j for j, name in enumerate(names)}
    return np.array([where[f] for f in ranked.col("feature")])


def check_rank_log_h(ranked: Table, values, labels, prior, names):
    """log_h agrees with the closed form recomputed with scipy's gammaln."""
    cols = _columns_of(ranked, names)
    want, ok, scale = closed_form_log_h(values, labels, prior)
    status_ok = np.array(ranked.col("status")) == "ok"
    _require(np.array_equal(status_ok, ok[cols]),
             "status differs from the closed form's degenerate features")
    got = ranked.num("log_h")[status_ok]
    err = np.abs(got - want[cols][status_ok])
    bad = ~(err <= 1e-11 * scale[cols][status_ok])
    if np.any(bad):
        i = _first_bad(bad)
        raise CheckError(f"log_h at rank {i + 1} is {got[i]!r}, closed form "
                         f"gives {want[cols][status_ok][i]!r}")


def check_rank_welch(ranked: Table, values, labels, names):
    """Welch t and p agree with scipy.stats.ttest_ind(equal_var=False).

    p is held to criterion-9's 1e-9, except where p > 1 - 1e-4 (|t| near
    0): there obf's continued fraction loses accuracy (errors up to 8e-8,
    confirmed with mpmath), so those p are held to 1e-7 only.
    """
    cols = _columns_of(ranked, names)
    ref = stats.ttest_ind(values[labels == 0], values[labels == 1], axis=0,
                          equal_var=False)
    t_ref, p_ref = ref.statistic[cols], ref.pvalue[cols]
    t, p = ranked.num("welch_t"), ranked.num("welch_p")
    bad_t = ~(np.abs(t - t_ref) <= 1e-10 * np.maximum(np.abs(t_ref), 1.0))
    bad_p = ~(np.abs(p - p_ref) <= np.where(p_ref > 1.0 - 1e-4, 1e-7, 1e-9))
    for what, bad, got, want in (("welch_t", bad_t, t, t_ref),
                                 ("welch_p", bad_p, p, p_ref)):
        if np.any(bad):
            i = _first_bad(bad)
            raise CheckError(f"{what} of {ranked.col('feature')[i]} is {got[i]!r}, "
                             f"scipy gives {want[i]!r}")


# ---------------------------------------------------------------------------
# select
# ---------------------------------------------------------------------------


def _mnc_set(ranked: Table):
    pi = ranked.num("pi_star")
    return [f for f, p in zip(ranked.col("feature"), pi) if p > 0.5]


def check_select_set(selected: Table, ranked: Table):
    """The selection is exactly the features whose pi_star exceeds 0.5."""
    want = _mnc_set(ranked)
    got = selected.col("feature")
    _require(sorted(got) == sorted(want),
             f"{len(got)} selected, the ranked table has {len(want)} with "
             f"pi_star > 0.5; differing: "
             f"{sorted(set(got) ^ set(want))[:5]}")


def check_select_expected(stdout: str, ranked: Table):
    """Printed expected TP and FP are sums over the selected features."""
    match = re.search(r"selected=(\d+) expected_tp=(\S+) expected_fp=(\S+)",
                      stdout)
    _require(match is not None, f"no summary line in {stdout!r}")
    count = int(match.group(1))
    tp, fp = float(match.group(2)), float(match.group(3))
    want = _mnc_set(ranked)
    keep = np.isin(ranked.col("feature"), want)
    want_tp = math.fsum(ranked.num("pi_star")[keep])
    want_fp = math.fsum(np.exp(ranked.num("log1m_pi_star")[keep]))
    _require(count == len(want), f"selected={count}, expected {len(want)}")
    _require(abs(tp - want_tp) <= 1e-12 * max(count, 1),
             f"expected_tp={tp!r}, the ranked table sums to {want_tp!r}")
    _require(abs(fp - want_fp) <= 1e-12 * max(count, 1),
             f"expected_fp={fp!r}, the ranked table sums to {want_fp!r}")
    _require(abs(tp + fp - count) <= 1e-9 * max(count, 1),
             f"expected_tp + expected_fp = {tp + fp!r}, not {count}")


# ---------------------------------------------------------------------------
# roc
# ---------------------------------------------------------------------------


def check_roc_points(curve: Table, ranked: Table):
    """One point per prefix of the ranking: k = 0, 1, ..., F."""
    f = ranked.col("status").count("ok")
    _require(curve.col("k") == [str(k) for k in range(f + 1)],
             f"k does not run 0..{f}")


def check_roc_diagonal(curve: Table):
    """x_k + y_k = k: every selected feature is either a TP or an FP."""
    k = curve.num("k")
    s = curve.num("expected_false_positives") + curve.num("expected_true_positives")
    bad = ~(np.abs(s - k) <= 1e-12 * np.maximum(k, 1.0))
    if np.any(bad):
        i = _first_bad(bad)
        raise CheckError(f"x + y = {s[i]!r} at k = {int(k[i])}")


def check_roc_monotone(curve: Table):
    """Both expected counts are nondecreasing in k."""
    for name in ("expected_false_positives", "expected_true_positives"):
        v = curve.num(name)
        bad = ~(v[1:] >= v[:-1])
        if np.any(bad):
            raise CheckError(f"{name} falls at k = {_first_bad(bad) + 1}")


# ---------------------------------------------------------------------------
# consistency
# ---------------------------------------------------------------------------


def _sweep_rows(metrics: Table):
    rows = {}
    for row in metrics.rows:
        rec = dict(zip(metrics.header, row))
        rows[(int(rec["n"]), rec["method"])] = rec
    return rows


def check_sweep_rows(metrics: Table, grid, n_methods: int):
    """One row per (n, method) of the plan, in grid order."""
    ns = [int(n) for n in metrics.col("n")]
    want = [n for n in grid for _ in range(n_methods)]
    _require(ns == want, "rows do not cover the grid once per method")
    _require(len(_sweep_rows(metrics)) == len(want), "duplicate (n, method) rows")


def check_sweep_exact_d(metrics: Table):
    """Every CMNC and top-D row selects exactly D features."""
    for row in _sweep_rows(metrics).values():
        m = re.search(r"\(D=(\d+)\)", row["method"])
        if m:
            _require(float(row["mean_selected"]) == float(m.group(1)),
                     f"{row['method']} at n={row['n']} selects "
                     f"{row['mean_selected']}")


def check_sweep_trend(metrics: Table):
    """MNC-OBF labels more features correctly at the largest n than the
    smallest (the paper's consistency result)."""
    rows = _sweep_rows(metrics)
    ns = sorted({n for n, _ in rows})
    methods = sorted({m for _, m in rows if m.startswith("MNC-OBF-")})
    _require(methods, "no MNC-OBF method in the sweep")
    for m in methods:
        lo = float(rows[(ns[0], m)]["mean_correct"])
        hi = float(rows[(ns[-1], m)]["mean_correct"])
        _require(hi > lo, f"{m}: mean_correct {hi} at n={ns[-1]} is not above "
                          f"{lo} at n={ns[0]}")


def recompute_cells(config, n, base_seed, replicates, top_d):
    """Per-replicate (correct, selected, TP, FP) of MNC-OBF-JP and the top-D
    Welch t baseline, scored apart from the harness on the datasets of the
    cells that replicate_seed names."""
    from obf.rng import replicate_seed
    from obf.synth import generate

    out = {"MNC-OBF-JP": [], f"T-TEST(D={top_d})": []}
    for rep in range(replicates):
        data = generate(config, n, replicate_seed(base_seed, n, rep))
        truth = np.isin(np.array(data.truth), MARKER_TAGS)
        log_h, ok, _ = closed_form_log_h(data.values, data.labels, "jp")
        t = stats.ttest_ind(data.values[data.labels == 0],
                            data.values[data.labels == 1], axis=0,
                            equal_var=False).statistic
        top = np.zeros(truth.size, dtype=bool)
        top[np.argsort(-np.abs(t), kind="stable")[:top_d]] = True
        for name, sel in (("MNC-OBF-JP", ok & (log_h > 0.0)),
                          (f"T-TEST(D={top_d})", top)):
            tp = int(np.count_nonzero(sel & truth))
            fp = int(np.count_nonzero(sel & ~truth))
            correct = truth.size - fp - (int(np.count_nonzero(truth)) - tp)
            out[name].append((correct, int(np.count_nonzero(sel)), tp, fp))
    return out


def check_sweep_recompute(metrics: Table, n, cells):
    """The largest-n rows of the recomputed methods match their cells."""
    rows = _sweep_rows(metrics)
    fields = ("mean_correct", "mean_selected", "mean_true_positives",
              "mean_false_positives")
    for name, per_rep in cells.items():
        _require((n, name) in rows, f"no row for {name} at n={n}")
        row = rows[(n, name)]
        arr = np.array(per_rep, dtype=np.float64)
        for j, field in enumerate(fields):
            _require(float(row[field]) == float(np.mean(arr[:, j])),
                     f"{name} at n={n}: {field} is {row[field]}, its cells "
                     f"give {float(np.mean(arr[:, j]))!r}")
        sd = float(np.std(arr[:, 0], ddof=1)) if len(per_rep) > 1 else 0.0
        _require(abs(float(row["sd_correct"]) - sd) <= 1e-12 * max(sd, 1.0),
                 f"{name} at n={n}: sd_correct is {row['sd_correct']}, its "
                 f"cells give {sd!r}")
