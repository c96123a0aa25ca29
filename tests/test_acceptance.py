"""Acceptance gate: one test per criterion, each printing a PASS line.

Desk-scale expectations (criterion 5) were calibrated once on the frozen
seeding scheme and recorded here; the generator is bit-reproducible, so they
are exact on any platform up to the stated tolerance.
"""

import math
import time

import numpy as np
import pytest

from obf.bayes import NIWHyper, ClassStats, jp_prior, log_h_table, log_marginal, matrix_stats
from obf.baselines import wilks_array
from obf.cli import main
from obf.harness import ExperimentPlan, parse_method, run_plan, run_sweep
from obf.selection import (
    LossSpec,
    ScoreTable,
    select_cmnc,
    select_map,
    select_mnc,
    select_mr,
    subset_marginals,
    subset_posterior,
)
from obf.special import log_gamma, logistic, student_t_two_sided_p
from obf.synth import desk_config, full_config

from oracles import (
    exhaustive_risks,
    log_gamma_ref,
    log_marginal_quadrature,
    mask_of,
    student_t_two_sided_p_ref,
)

AUTO_THREADS = 0

# frozen desk-scale expectations (base_seed=0, 25 replicates, n=2000)
FROZEN_MEAN_CORRECT = {"MNC-OBF-JP": 1998.88, "MNC-OBF-PP": 1998.76}
FROZEN_TOL = 0.003 * 2000


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}", flush=True)


def test_criterion_1_marginal_likelihood_quadrature():
    """Closed-form marginals match adaptive 2-D quadrature on 200 configs."""
    start = time.time()
    rng = np.random.default_rng(2024)
    worst = 0.0
    for trial in range(200):
        s = float(rng.uniform(0.1, 5.0))
        kappa = float(rng.uniform(0.5, 10.0))
        m = float(rng.uniform(-3.0, 3.0))
        nu = float(rng.uniform(0.05, 5.0))
        prior = NIWHyper(s=s, kappa=kappa, m=m, nu=nu)
        n = int(rng.integers(0, 9)) if trial % 20 == 0 else int(rng.integers(1, 9))
        if n == 0:
            got = log_marginal(prior, ClassStats(n=0))
            assert abs(got) <= 1e-12
            continue
        xs = rng.normal(rng.uniform(-2, 2), rng.uniform(0.2, 3.0), size=n)
        mean = float(xs.mean())
        var = float(xs.var(ddof=1)) if n >= 2 else None
        got = log_marginal(prior, ClassStats(n=n, mean=mean, var=var))
        ref = log_marginal_quadrature(s, kappa, m, nu, xs)
        err = abs(got - ref)
        assert err <= 1e-6 + 1e-6 * abs(ref), (trial, got, ref)
        worst = max(worst, err / (1e-6 + 1e-6 * abs(ref)))
    elapsed = time.time() - start
    assert elapsed <= 60.0
    report("criterion-1",
           f"200 quadrature matches, worst at {worst:.3f} of budget, "
           f"{elapsed:.1f}s")


def _random_instances(count, rng):
    for _ in range(count):
        nf = int(rng.integers(1, 11))
        yield rng.normal(scale=3.0, size=nf)


def test_criterion_2_product_form_marginals():
    """Exhaustive subset posteriors factorize through the per-feature scores."""
    start = time.time()
    rng = np.random.default_rng(7)
    worst = 0.0
    for lh in _random_instances(500, rng):
        post = subset_posterior(lh)
        marg = subset_marginals(post, lh.size)
        err = float(np.max(np.abs(marg - logistic(lh))))
        assert err <= 1e-10
        worst = max(worst, err)
    elapsed = time.time() - start
    assert elapsed <= 30.0
    report("criterion-2",
           f"500 instances, worst marginal gap {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_criterion_reductions_and_risk():
    """MAP=MNC, CMAP=CMNC away from ties; MR risk is the exhaustive minimum."""
    start = time.time()
    rng = np.random.default_rng(8)
    checked_map = checked_cmap = checked_risk = 0
    for lh in _random_instances(500, rng):
        nf = lh.size
        pis = logistic(np.atleast_1d(lh))
        table = ScoreTable.from_arrays(
            list(range(nf)), np.atleast_1d(lh), pis, np.log1p(-pis)
        )
        post = subset_posterior(lh)
        if np.all(np.abs(pis - 0.5) > 1e-12):
            assert set(select_map(post).selected) == set(select_mnc(table).selected)
            checked_map += 1
        d = int(rng.integers(0, nf + 1))
        order = np.sort(np.atleast_1d(lh))[::-1]
        tie_at_cut = 0 < d < nf and order[d - 1] == order[d]
        if not tie_at_cut:
            assert set(select_map(post, size_constraint=d).selected) == set(
                select_cmnc(table, d).selected
            )
            checked_cmap += 1
        loss = LossSpec(0.0, float(rng.uniform(0.2, 2.0)),
                        float(rng.uniform(0.2, 2.0)), 0.0)
        res = select_mr(table, loss)
        risks = exhaustive_risks(post, nf, loss)
        got = float(risks[mask_of(res.selected)])
        assert got <= float(np.min(risks)) + 1e-9
        assert res.expected_risk == pytest.approx(got, rel=1e-8, abs=1e-9)
        checked_risk += 1
    elapsed = time.time() - start
    assert elapsed <= 60.0
    report("criterion-3",
           f"MAP/MNC x{checked_map}, CMAP/CMNC x{checked_cmap}, "
           f"MR-risk x{checked_risk}, {elapsed:.1f}s")


def test_criterion_4_wilks_rank_equivalence():
    """Improper-preset score ranking equals the -log lambda ranking exactly."""
    start = time.time()
    rng = np.random.default_rng(9)
    prior = jp_prior()
    for _ in range(100):
        n0 = int(rng.integers(3, 20))
        n1 = int(rng.integers(3, 20))
        values = rng.normal(size=(n0 + n1, 50))
        values[:, :10] += rng.normal(scale=2.0, size=(n0 + n1, 10))
        labels = np.array([0] * n0 + [1] * n1)
        ms = matrix_stats(values, labels)
        lh, _, _, ok = log_h_table(prior, ms)
        wl, wok = wilks_array(ms)
        assert ok.all() and wok.all()
        order_obf = np.argsort(-lh, kind="stable")
        order_wilks = np.argsort(wl, kind="stable")  # ascending log lambda
        assert np.array_equal(order_obf, order_wilks)
        # exact Spearman from integer rank differences (no ties here)
        ranks_obf = np.argsort(order_obf)
        ranks_wilks = np.argsort(order_wilks)
        d2 = int(np.sum((ranks_obf - ranks_wilks) ** 2))
        rho = 1.0 - 6.0 * d2 / (50 * (50 ** 2 - 1))
        assert rho == 1.0
    elapsed = time.time() - start
    assert elapsed <= 10.0
    report("criterion-4",
           f"100 datasets, rank vectors identical, Spearman exactly 1, "
           f"{elapsed:.1f}s")


@pytest.fixture(scope="module")
def desk_sweep():
    methods = (parse_method("mnc-obf-jp"), parse_method("mnc-obf-pp"))
    plan = ExperimentPlan(
        synth=desk_config(),
        n_grid=tuple(range(100, 2001, 100)),
        replicates=25,
        methods=methods,
        base_seed=0,
    )
    start = time.time()
    result = run_sweep(plan, threads=AUTO_THREADS, probe_preset="jp")
    return result, time.time() - start


def test_criterion_5_empirical_consistency(desk_sweep):
    """Desk-scale MNC variants reach 0.99 F at n=2000, rising beyond n=500."""
    result, elapsed = desk_sweep
    rows = {(r.n, r.method): r for r in result.rows}
    grid = tuple(range(100, 2001, 100))
    for method, frozen in FROZEN_MEAN_CORRECT.items():
        final = rows[(2000, method)].mean_correct
        assert final >= 0.99 * 2000, (method, final)
        assert abs(final - frozen) <= FROZEN_TOL, (method, final, frozen)
        beyond = [n for n in grid if n >= 500]
        for n_prev, n_next in zip(beyond, beyond[1:]):
            prev = rows[(n_prev, method)]
            nxt = rows[(n_next, method)]
            assert nxt.mean_correct >= prev.mean_correct - prev.sd_correct, (
                method, n_prev, n_next,
            )
    assert elapsed <= 15 * 60
    final_jp = rows[(2000, "MNC-OBF-JP")].mean_correct
    final_pp = rows[(2000, "MNC-OBF-PP")].mean_correct
    report("criterion-5",
           f"mean_correct@2000 JP={final_jp:.2f} PP={final_pp:.2f} "
           f"(floor 1980, frozen +-{FROZEN_TOL:.0f}), sweep {elapsed:.0f}s")


def test_criterion_6_rate_probes(desk_sweep):
    """Null scores decay polynomially; marker scores grow superlinearly."""
    result, _ = desk_sweep
    ns = np.array([p.n for p in result.probe], dtype=np.float64)
    null_med = np.array([p.median_log_h_null for p in result.probe])
    truth_med = np.array([p.median_log_h_truth for p in result.probe])

    null_slope = float(np.polyfit(np.log(ns), null_med, 1)[0])
    assert null_slope <= -0.5, null_slope

    pos = truth_med > 0.0
    assert int(np.count_nonzero(pos)) >= 4
    truth_slope = float(
        np.polyfit(np.log(ns[pos]), np.log(truth_med[pos]), 1)[0]
    )
    assert truth_slope >= 1.05, truth_slope
    assert np.all(np.diff(truth_med) > 0.0)
    report("criterion-6",
           f"null slope {null_slope:.2f} <= -0.5, "
           f"marker log-log slope {truth_slope:.2f} >= 1.05")


def test_criterion_7_qualitative_ordering():
    """Preset ordering PP >= JP >= CMNC-JP ~ BD at the smallest sample sizes.

    The informative preset's edge is a small-sample effect, so the check runs
    the full-size generator at n <= 100 (well within the runtime budget); a
    desk-scale companion at n = 30 covers the reduced config, where the
    crossover sits at smaller n because the marker fraction is 5x the preset
    prior inclusion probability.
    """
    start = time.time()
    methods = (
        parse_method("mnc-obf-pp"), parse_method("mnc-obf-jp"),
        parse_method("cmnc-obf-jp:D=100"), parse_method("bd:D=100"),
    )
    hits = 0
    for seed in range(10):
        plan = ExperimentPlan(full_config(), (50, 100), 10, methods,
                              base_seed=seed)
        rows = {(r.n, r.method): r.mean_correct
                for r in run_plan(plan, threads=AUTO_THREADS)}
        pp = rows[(100, "MNC-OBF-PP")]
        jp = rows[(100, "MNC-OBF-JP")]
        cj = rows[(100, "CMNC-OBF-JP(D=100)")]
        bd = rows[(100, "BD(D=100)")]
        if pp >= jp and jp >= cj and abs(cj - bd) <= 5.0:
            hits += 1
    assert hits >= 8, hits

    desk_methods = (parse_method("mnc-obf-pp"), parse_method("mnc-obf-jp"))
    desk_hits = 0
    for seed in range(10):
        plan = ExperimentPlan(desk_config(), (20, 30), 25, desk_methods,
                              base_seed=seed)
        rows = {(r.n, r.method): r.mean_correct
                for r in run_plan(plan, threads=AUTO_THREADS)}
        if rows[(30, "MNC-OBF-PP")] >= rows[(30, "MNC-OBF-JP")]:
            desk_hits += 1
    assert desk_hits >= 8, desk_hits
    elapsed = time.time() - start
    assert elapsed <= 20 * 60
    report("criterion-7",
           f"full-size ordering {hits}/10 seeds, desk companion "
           f"{desk_hits}/10, {elapsed:.0f}s")


SYNTH_INI = """
[synth]
n_features = 120
n_global = 10
n_hetero = 40
n_lowvar = 50
n_highvar = 20
block_size = 5
rho = 0.8
n_groups = 2
group_sigmas = 0.16:0.16,0.09:0.25

[plan]
n_grid = 20,40
replicates = 3
base_seed = 17
methods = mnc-obf-jp; mnc-obf-pp; bd:D=50
"""


def test_criterion_8_byte_determinism(tmp_path):
    """Identical bytes across reruns and across thread counts 1 and 8."""
    start = time.time()
    cfg = tmp_path / "run.ini"
    cfg.write_text(SYNTH_INI, encoding="utf-8")

    sims = []
    for tag, threads in (("a", "1"), ("b", "8"), ("c", "1")):
        out = tmp_path / f"sim_{tag}.csv"
        code = main(["simulate", "--config", str(cfg), "--n", "40",
                     "--seed", "5", "--threads", threads, "--out", str(out)])
        assert code == 0
        sims.append(out.read_bytes())
    assert sims[0] == sims[1] == sims[2]

    metrics = []
    svgs = []
    for tag, threads in (("a", "1"), ("b", "8"), ("c", "8")):
        out_dir = tmp_path / f"cons_{tag}"
        code = main(["consistency", "--config", str(cfg),
                     "--threads", threads, "--out", str(out_dir)])
        assert code == 0
        metrics.append((out_dir / "metrics.csv").read_bytes())
        svgs.append((out_dir / "consistency.svg").read_bytes())
    assert metrics[0] == metrics[1] == metrics[2]
    assert svgs[0] == svgs[1] == svgs[2]
    elapsed = time.time() - start
    assert elapsed <= 5 * 60
    report("criterion-8",
           f"simulate and consistency outputs byte-identical across runs "
           f"and thread counts, {elapsed:.1f}s")


def test_criterion_9_numerical_substrate():
    """Special functions track 50-digit references."""
    start = time.time()
    grid = np.concatenate([
        np.linspace(0.05, 0.45, 50),
        np.arange(0.5, 400.0, 0.5),
        np.logspace(math.log10(401.0), 6.0, 151),
    ])[:1000]
    assert grid.size == 1000
    worst_g = 0.0
    for x in grid:
        got = log_gamma(float(x))
        ref = log_gamma_ref(float(x))
        err = abs(got - ref) / (1.0 + abs(ref))
        assert err <= 1e-12, (x, got, ref)
        worst_g = max(worst_g, err)

    rng = np.random.default_rng(33)
    cases = [(float(rng.uniform(-10.0, 10.0)), float(rng.uniform(1.0, 300.0)))
             for _ in range(100)]
    # |t| near 0, where x = df / (df + t^2) rounds to just below 1
    cases += [(1e-6, 1998.0), (1e-7, 198.0), (-5.03e-5, 1997.5), (1e-9, 2.5)]
    worst_p = 0.0
    for t, df in cases:
        got = student_t_two_sided_p(t, df)
        ref = student_t_two_sided_p_ref(t, df)
        assert abs(got - ref) <= 1e-9, (t, df, got, ref)
        worst_p = max(worst_p, abs(got - ref))
    elapsed = time.time() - start
    assert elapsed <= 5.0
    report("criterion-9",
           f"log-gamma worst {worst_g:.2e} (tol 1e-12), p-value worst "
           f"{worst_p:.2e} (tol 1e-9), {elapsed:.1f}s")
