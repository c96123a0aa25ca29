"""Selection criteria, ROC construction, and the exhaustive subset oracle."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obf.errors import BadSize, TooLarge
from obf.selection import (
    LossSpec,
    ScoreTable,
    ZERO_ONE_LOSS,
    budget_cut,
    rank_order,
    roc,
    select_cmnc,
    select_map,
    select_mnc,
    select_mr,
    select_np,
    subset_marginals,
    subset_posterior,
)
from obf.special import logistic, logit

from oracles import exhaustive_risks, mask_of, np_prefix_length


def table_from_pi(pis, ids=None):
    pis = list(pis)
    ids = ids if ids is not None else [f"f{i + 1}" for i in range(len(pis))]
    lh = [logit(p) for p in pis]
    log1m = [math.log1p(-p) if p < 1.0 else -math.inf for p in pis]
    return ScoreTable.from_arrays(ids, lh, pis, log1m)


class TestScoreTable:
    def test_rejects_duplicate_ids(self):
        with pytest.raises(ValueError):
            table_from_pi([0.5, 0.6], ids=["a", "a"])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            ScoreTable(feature_ids=("a",), log_h=(), pi_star=(), log1m=())

    def test_holds_read_only_float_arrays(self):
        table = table_from_pi([0.9, 0.4])
        assert table.pi_star.dtype == np.float64
        assert table.pi_star.tolist() == [0.9, 0.4]
        with pytest.raises(ValueError):
            table.log_h[0] = 0.0


class TestLossSpec:
    def test_threshold_formula(self):
        loss = LossSpec(0.0, 3.0, 1.0, 0.0)
        assert loss.threshold == pytest.approx(0.75)

    def test_zero_one(self):
        assert ZERO_ONE_LOSS.threshold == 0.5

    def test_invalid_ordering(self):
        with pytest.raises(ValueError):
            LossSpec(2.0, 1.0, 3.0, 1.5)  # gb < bb
        with pytest.raises(ValueError):
            LossSpec(2.0, 3.0, 1.0, 1.0)  # bg < gg

    def test_zero_denominator(self):
        with pytest.raises(ValueError):
            LossSpec(1.0, 1.0, 1.0, 1.0)


class TestSelectMr:
    def test_half_threshold(self):
        res = select_mr(table_from_pi([0.9, 0.4, 0.6]), ZERO_ONE_LOSS)
        assert res.selected == ("f1", "f3")

    def test_all_zero(self):
        res = select_mr(table_from_pi([0.0, 0.0, 0.0]), ZERO_ONE_LOSS)
        assert res.selected == ()

    def test_asymmetric_loss(self):
        res = select_mr(table_from_pi([0.8, 0.7]), LossSpec(0.0, 3.0, 1.0, 0.0))
        assert res.selected == ("f1",)

    def test_strict_inequality_at_threshold(self):
        res = select_mr(table_from_pi([0.5, 0.51]), ZERO_ONE_LOSS)
        assert res.selected == ("f2",)

    def test_expected_risk_value(self):
        pis = [0.9, 0.2]
        res = select_mr(table_from_pi(pis), ZERO_ONE_LOSS)
        # selects f1: risk = (1 - 0.9) + 0.2
        assert res.expected_risk == pytest.approx(0.3, rel=1e-12)


class TestSelectMnc:
    def test_strict_exclusion(self):
        res = select_mnc(table_from_pi([0.51, 0.5, 0.49]))
        assert res.selected == ("f1",)

    def test_all_ones(self):
        res = select_mnc(table_from_pi([1.0, 1.0]))
        assert res.selected == ("f1", "f2")

    def test_agrees_with_mr_zero_one(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            pis = rng.uniform(0.0, 1.0, size=6)
            t = table_from_pi(pis)
            assert select_mnc(t).selected == select_mr(t, ZERO_ONE_LOSS).selected


class TestSelectCmnc:
    def test_top_two(self):
        assert select_cmnc(table_from_pi([0.9, 0.4, 0.6]), 2).selected == ("f1", "f3")

    def test_empty(self):
        assert select_cmnc(table_from_pi([0.9, 0.4]), 0).selected == ()

    def test_tie_break_by_index(self):
        assert select_cmnc(table_from_pi([0.5, 0.5]), 1).selected == ("f1",)

    def test_bad_size(self):
        with pytest.raises(BadSize):
            select_cmnc(table_from_pi([0.9]), 2)


class TestSelectNp:
    def test_greedy_trace(self):
        res = select_np(table_from_pi([0.9, 0.8, 0.4]), 0.5)
        assert res.selected == ("f1", "f2")

    def test_zero_budget(self):
        assert select_np(table_from_pi([0.99, 0.8]), 0.0).selected == ()

    def test_budget_covers_all(self):
        pis = [0.9, 0.7, 0.6]
        alpha = sum(1 - p for p in pis) + 1e-12
        assert select_np(table_from_pi(pis), alpha).selected == ("f1", "f2", "f3")

    def test_negative_alpha(self):
        with pytest.raises(ValueError):
            select_np(table_from_pi([0.5]), -0.1)


class TestRoc:
    def test_endpoints_and_example(self):
        pis = [0.9, 0.5]
        curve = roc(table_from_pi(pis))
        assert curve.points[0] == (0.0, 0.0)
        assert curve.points[1] == pytest.approx((0.1, 0.9), rel=1e-12)
        assert curve.points[-1][0] == pytest.approx(2 - sum(pis), rel=1e-12)
        assert curve.points[-1][1] == pytest.approx(sum(pis), rel=1e-12)

    def test_monotone(self):
        rng = np.random.default_rng(4)
        pis = rng.uniform(0, 1, size=15)
        pts = np.array(roc(table_from_pi(pis)).points)
        assert np.all(np.diff(pts[:, 0]) >= -1e-15)
        assert np.all(np.diff(pts[:, 1]) >= -1e-15)
        assert len(pts) == 16


class TestSubsetPosterior:
    def test_single_feature_even_odds(self):
        post = subset_posterior([0.0])
        assert post[()] == pytest.approx(0.5)
        assert post[(0,)] == pytest.approx(0.5)

    def test_marginals_are_logistic(self):
        rng = np.random.default_rng(8)
        lh = rng.normal(scale=3.0, size=3)
        post = subset_posterior(lh)
        marg = subset_marginals(post, 3)
        np.testing.assert_allclose(marg, logistic(lh), atol=1e-12)

    def test_two_atom_prior(self):
        lh = [0.3, -0.7]

        def log_prior(subset):
            return 0.0 if subset in ((), (0, 1)) else -math.inf

        post = subset_posterior(lh, log_prior)
        w_full = math.exp(0.3 - 0.7)
        expect_full = w_full / (1.0 + w_full)
        assert post[(0, 1)] == pytest.approx(expect_full, rel=1e-12)
        assert post[()] == pytest.approx(1.0 - expect_full, rel=1e-12)
        assert post[(0,)] == 0.0 and post[(1,)] == 0.0

    def test_neg_inf_allowed_pos_inf_rejected(self):
        post = subset_posterior([-math.inf, 0.0])
        assert post[(0,)] == 0.0 and post[(0, 1)] == 0.0
        with pytest.raises(ValueError):
            subset_posterior([math.inf])

    def test_guard(self):
        with pytest.raises(TooLarge):
            subset_posterior([0.0] * 21)


class TestSelectMap:
    def test_single_atom(self):
        post = {(): 0.0, (0,): 1.0}
        assert select_map(post).selected == (0,)

    def test_map_equals_mnc(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            lh = rng.normal(scale=2.0, size=5)
            post = subset_posterior(lh)
            got = set(select_map(post).selected)
            expect = {i for i, v in enumerate(lh) if v > 0.0}
            assert got == expect

    def test_cmap_equals_cmnc(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            lh = rng.normal(scale=2.0, size=5)
            d = int(rng.integers(0, 6))
            post = subset_posterior(lh)
            got = set(select_map(post, size_constraint=d).selected)
            expect = set(np.argsort(-lh, kind="stable")[:d].tolist())
            assert got == expect

    def test_tie_prefers_lexicographic(self):
        post = {(): 0.25, (0,): 0.25, (1,): 0.25, (0, 1): 0.25}
        assert select_map(post).selected == ()


class TestRiskOptimality:
    def test_mr_minimizes_exhaustive_risk(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            nf = int(rng.integers(1, 8))
            lh = rng.normal(scale=2.0, size=nf)
            loss = LossSpec(0.0, float(rng.uniform(0.5, 2.0)),
                            float(rng.uniform(0.5, 2.0)), 0.0)
            pis = logistic(lh)
            table = table_from_pi(list(pis), ids=list(range(nf)))
            res = select_mr(table, loss)
            post = subset_posterior(lh)
            risks = exhaustive_risks(post, nf, loss)
            best = float(np.min(risks))
            got = float(risks[mask_of(res.selected)])
            assert got <= best + 1e-9
            assert res.expected_risk == pytest.approx(got, rel=1e-8, abs=1e-10)


@settings(max_examples=50, deadline=None)
@given(
    pis=st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=12),
    t1=st.floats(min_value=0.0, max_value=1.0),
    t2=st.floats(min_value=0.0, max_value=1.0),
)
def test_mr_threshold_nesting(pis, t1, t2):
    hi, lo = max(t1, t2), min(t1, t2)
    table = table_from_pi(pis)
    sel_hi = set(select_mr(table, LossSpec(0.0, hi, 1.0 - hi + 1e-9, 0.0)).selected)
    sel_lo = set(select_mr(table, LossSpec(0.0, lo, 1.0 - lo + 1e-9, 0.0)).selected)
    assert sel_hi <= sel_lo


@settings(max_examples=50, deadline=None)
@given(
    pis=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12),
    d1=st.integers(min_value=0, max_value=12),
    d2=st.integers(min_value=0, max_value=12),
)
def test_cmnc_prefix_nesting(pis, d1, d2):
    table = table_from_pi(pis)
    d1 = min(d1, len(pis))
    d2 = min(d2, len(pis))
    small, big = sorted((d1, d2))
    sel_small = select_cmnc(table, small).selected
    sel_big = select_cmnc(table, big).selected
    assert sel_big[:small] == sel_small


@settings(max_examples=50, deadline=None)
@given(
    pis=st.lists(st.floats(min_value=0.001, max_value=0.999), min_size=1, max_size=12),
    a1=st.floats(min_value=0.0, max_value=6.0),
    a2=st.floats(min_value=0.0, max_value=6.0),
)
def test_np_budget_nesting(pis, a1, a2):
    table = table_from_pi(pis)
    lo, hi = sorted((a1, a2))
    sel_lo = set(select_np(table, lo).selected)
    sel_hi = set(select_np(table, hi).selected)
    assert sel_lo <= sel_hi


# probabilities that tie often and include cost-0 (pi_star = 1) features
TIED_PIS = st.lists(
    st.sampled_from([0.0, 0.2, 0.5, 0.9, 0.999, 1.0])
    | st.floats(min_value=0.0, max_value=1.0),
    min_size=1, max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(pis=TIED_PIS, alpha=st.floats(min_value=0.0, max_value=6.0))
def test_np_matches_greedy_loop(pis, alpha):
    table = table_from_pi(pis)
    res = select_np(table, alpha)
    costs = np.exp(table.log1m)[table.rank_order()]
    assert res.selected == res.ranking[:np_prefix_length(costs, alpha)]


@settings(max_examples=200, deadline=None)
@given(
    pis=TIED_PIS,
    ok_bits=st.lists(st.booleans(), min_size=12, max_size=12),
    alpha=st.floats(min_value=0.0, max_value=6.0),
)
def test_masked_np_matches_greedy_loop(pis, ok_bits, alpha):
    """The sweep's NP rule: unscorable features carry NaN scores, cost inf."""
    ok = np.array(ok_bits[:len(pis)])
    table = table_from_pi(pis)
    lh = np.where(ok, table.log_h, np.nan)
    log1m = np.where(ok, table.log1m, np.nan)
    order = rank_order(lh, ok)
    costs = np.where(ok[order], np.exp(log1m[order]), np.inf)
    picked = budget_cut(order, np.where(ok, np.exp(log1m), np.inf), alpha)
    assert picked.tolist() == order[:np_prefix_length(costs, alpha)].tolist()


def test_rank_invariance_under_constant_shift():
    rng = np.random.default_rng(23)
    lh = rng.normal(scale=4.0, size=30)
    pis = logistic(lh)
    log1m = np.log1p(-pis)
    base = ScoreTable.from_arrays(list(range(30)), lh, pis, log1m)
    shifted_lh = lh + 7.5
    shifted_pi = logistic(shifted_lh)
    shifted = ScoreTable.from_arrays(
        list(range(30)), shifted_lh, shifted_pi, np.log1p(-shifted_pi)
    )
    assert select_mnc(base).ranking == select_mnc(shifted).ranking
