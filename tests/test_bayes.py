"""Conjugate-model core: updates, marginals, scores, and their oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from obf import bayes
from obf.bayes import (
    ClassStats,
    NIWHyper,
    PriorSpec,
    _starred,
    derive_logL,
    jp_prior,
    log_h_table,
    log_marginal,
    matrix_stats,
    pp_prior,
)
from obf.errors import DegenerateData, EmptyClass, ImproperPrior
from obf.special import logistic

from oracles import (
    improper_log_h_ref,
    log_gamma_ref,
    log_marginal_quadrature,
    student_t_logpdf,
)


def stats_of(xs) -> ClassStats:
    xs = np.asarray(xs, dtype=np.float64)
    n = xs.size
    mean = float(xs.mean()) if n else None
    var = float(xs.var(ddof=1)) if n >= 2 else None
    return ClassStats(n=n, mean=mean, var=var)


def one_feature(x0, x1):
    """``matrix_stats`` of one feature given as its two class samples."""
    x = np.array(list(x0) + list(x1), dtype=np.float64)
    labels = np.array([0] * len(x0) + [1] * len(x1))
    return matrix_stats(x[:, None], labels)


def score(spec, x0, x1):
    """``log_h_table`` of one feature: (log_h, pi_star, log1m_pi_star)."""
    lh, pi_star, log1m, ok = log_h_table(spec, one_feature(x0, x1))
    assert ok[0]
    return float(lh[0]), float(pi_star[0]), float(log1m[0])


class TestUpdateHyper:
    """The conjugate update of one block, ``_starred``: (s*, kappa*, nu*)."""

    def test_direct_substitution(self):
        s_star, kappa_star, nu_star = _starred(
            NIWHyper(s=0.5, kappa=3.0, m=0.0, nu=0.1), 4, 1.0, 0.25,
        )
        assert kappa_star == 7.0
        assert nu_star == pytest.approx(4.1)
        assert s_star == pytest.approx(0.5 + 0.75 + (0.4 / 4.1))

    def test_empty_sample_identity(self):
        prior = NIWHyper(s=1.3, kappa=2.2, m=-0.7, nu=0.9)
        assert _starred(prior, 0, prior.m, 0.0) == (prior.s, prior.kappa, prior.nu)
        assert log_marginal(prior, ClassStats(n=0)) == pytest.approx(0.0, abs=1e-12)

    def test_jeffreys_preset(self):
        post = _starred(NIWHyper(s=0.0, kappa=0.0, m=None, nu=0.0), 5, 2.0, 1.5)
        assert post == (6.0, 5.0, 5.0)

    def test_constant_feature_improper_is_degenerate(self):
        with pytest.raises(DegenerateData):
            log_marginal(
                NIWHyper(s=0.0, kappa=0.0, m=None, nu=0.0),
                ClassStats(n=5, mean=2.0, var=0.0),
                log_norm_weight=0.0,
            )


class TestLogMarginal:
    def test_empty_sample_is_log_one(self):
        prior = NIWHyper(s=0.5, kappa=3.0, m=0.0, nu=0.1)
        assert log_marginal(prior, ClassStats(n=0)) == pytest.approx(0.0, abs=1e-12)

    def test_single_point_is_student_t(self):
        prior = NIWHyper(s=0.8, kappa=2.5, m=0.3, nu=0.7)
        for x in (-2.0, 0.0, 0.31, 4.5):
            got = log_marginal(prior, ClassStats(n=1, mean=x))
            scale = math.sqrt(prior.s * (prior.nu + 1) / (prior.kappa * prior.nu))
            ref = student_t_logpdf(x, df=prior.kappa, loc=prior.m, scale=scale)
            assert got == pytest.approx(ref, rel=1e-10, abs=1e-10)

    def test_quadrature_example(self):
        prior = NIWHyper(s=0.5, kappa=3.0, m=0.0, nu=0.1)
        got = log_marginal(prior, stats_of([0.0, 1.0]))
        ref = log_marginal_quadrature(0.5, 3.0, 0.0, 0.1, [0.0, 1.0])
        assert abs(got - ref) <= 1e-6 + 1e-6 * abs(ref)

    def test_improper_requires_weight(self):
        prior = NIWHyper(s=0.0, kappa=0.0, m=None, nu=0.0)
        with pytest.raises(ImproperPrior):
            log_marginal(prior, stats_of([0.0, 1.0, 2.0]))
        # with an explicit weight the improper marginal evaluates
        value = log_marginal(prior, stats_of([0.0, 1.0, 2.0]), log_norm_weight=0.0)
        assert math.isfinite(value)


class TestDeriveLogL:
    def test_unit_blocks(self):
        block = NIWHyper(s=2.0, kappa=2.0, m=0.0, nu=1.0)
        spec = PriorSpec(good0=block, good1=block, bad=block, pi=0.5)
        assert spec.logL == pytest.approx(0.5 * math.log(1.0 / (2 * math.pi)))

    def test_pp_preset_against_reference(self):
        spec = pp_prior()
        log_ab = (
            0.5 * 3.0 * math.log(0.25)
            - log_gamma_ref(1.5)
            + 0.5 * math.log(0.1 / (2 * math.pi))
        )
        assert spec.logL == pytest.approx(2 * log_ab - log_ab, rel=1e-12)
        assert derive_logL(spec) == spec.logL

    def test_scale_shift_identity(self):
        b0 = NIWHyper(s=0.7, kappa=2.0, m=0.0, nu=0.3)
        b1 = NIWHyper(s=1.1, kappa=4.0, m=0.5, nu=0.2)
        bb = NIWHyper(s=0.9, kappa=3.0, m=0.1, nu=0.4)
        base = PriorSpec(good0=b0, good1=b1, bad=bb, pi=0.4)
        c = 3.7

        def scaled(b):
            return NIWHyper(s=c * b.s, kappa=b.kappa, m=b.m, nu=b.nu)

        shifted = PriorSpec(good0=scaled(b0), good1=scaled(b1), bad=scaled(bb), pi=0.4)
        expect = 0.5 * (b0.kappa + b1.kappa - bb.kappa) * math.log(c)
        assert shifted.logL - base.logL == pytest.approx(expect, rel=1e-12)

    def test_rejects_improper(self):
        with pytest.raises(ImproperPrior):
            derive_logL(jp_prior())


class TestPriorSpec:
    def test_mixed_propriety_rejected(self):
        proper = NIWHyper(s=1.0, kappa=1.0, m=0.0, nu=1.0)
        improper = NIWHyper(s=0.0, kappa=0.0, m=None, nu=0.0)
        with pytest.raises(ImproperPrior):
            PriorSpec(good0=proper, good1=proper, bad=improper, pi=0.5)

    def test_user_logl_rejected_for_proper(self):
        proper = NIWHyper(s=1.0, kappa=1.0, m=0.0, nu=1.0)
        with pytest.raises(ImproperPrior):
            PriorSpec(good0=proper, good1=proper, bad=proper, pi=0.5, logL=0.0)

    def test_improper_default_weight(self):
        spec = PriorSpec(
            good0=NIWHyper(0.0, 0.0, None, 0.0),
            good1=NIWHyper(0.0, 0.0, None, 0.0),
            bad=NIWHyper(0.0, 0.0, None, 0.0),
            pi=0.3,
        )
        assert spec.logL == pytest.approx(math.log(0.1))

    def test_boundary_pi_warns(self):
        with pytest.warns(UserWarning):
            jp_prior(pi=0.0)
        with pytest.warns(UserWarning):
            jp_prior(pi=1.0)

    def test_pi_out_of_range(self):
        with pytest.raises(ValueError):
            jp_prior(pi=1.5)

    def test_hyper_round_trip(self):
        block = NIWHyper(s=0.123456789012345, kappa=3.5, m=-2.25, nu=0.0625)
        assert NIWHyper.from_dict(block.to_dict()) == block
        bare = NIWHyper(s=0.0, kappa=0.0, m=None, nu=0.0)
        assert NIWHyper.from_dict(bare.to_dict()) == bare


class TestLogH:
    """``log_h_table`` on one feature, a one-column ``matrix_stats``."""

    def test_pi_zero_and_one_passthrough(self):
        ms = one_feature([0.0, 1.0, 0.5], [3.0, 4.0, 5.0])
        with pytest.warns(UserWarning):
            zero = jp_prior(pi=0.0)
        lh, pi_star, log1m, ok = log_h_table(zero, ms)
        assert lh[0] == -math.inf and pi_star[0] == 0.0
        assert log1m[0] == 0.0 and ok[0]
        with pytest.warns(UserWarning):
            one = jp_prior(pi=1.0)
        lh, pi_star, log1m, ok = log_h_table(one, ms)
        assert lh[0] == math.inf and pi_star[0] == 1.0
        assert log1m[0] == -math.inf and ok[0]

    def test_pp_quadrature_composition(self):
        x0 = [0.0, 1.0, 0.5, 1.5]
        x1 = [10.0, 11.0, 10.5, 11.5]
        got, _, _ = score(pp_prior(pi=0.5), x0, x1)
        q0 = log_marginal_quadrature(0.5, 3.0, 0.0, 0.1, x0)
        q1 = log_marginal_quadrature(0.5, 3.0, 0.2, 0.1, x1)
        qp = log_marginal_quadrature(0.5, 3.0, 0.0, 0.1, x0 + x1)
        ref = q0 + q1 - qp  # prior odds vanish at pi = 1/2
        assert got == pytest.approx(ref, rel=1e-6, abs=1e-6)
        assert got > 10.0

    def test_jp_against_high_precision(self):
        x0 = [0.0, 1.0, 0.5, 1.5]
        x1 = [10.0, 11.0, 10.5, 11.5]
        got, _, _ = score(jp_prior(pi=0.5, L=0.1), x0, x1)
        ref = improper_log_h_ref(0.5, 0.1, x0, x1)
        assert got == pytest.approx(ref, rel=1e-10)
        assert got > 10.0

    def test_score_link_consistency(self):
        lh, pi_star, log1m = score(
            pp_prior(), [0.1, 0.4, -0.3, 0.9], [2.0, 2.2, 1.7, 2.4],
        )
        assert pi_star == logistic(lh)
        assert log1m <= 0.0

    def test_prior_odds_separation(self):
        x0, x1 = [0.1, 0.4, -0.3, 0.9], [2.0, 2.2, 1.7, 2.4]
        a, b = 0.37, 0.004
        ha, _, _ = score(pp_prior(pi=a), x0, x1)
        hb, _, _ = score(pp_prior(pi=b), x0, x1)
        expect = (math.log(a / (1 - a))) - (math.log(b / (1 - b)))
        assert ha - hb == pytest.approx(expect, abs=1e-11)


class TestComputeStats:
    """``matrix_stats`` on one column."""

    def test_hand_example(self):
        ms = matrix_stats(np.array([[1.0], [1.0], [2.0], [2.0]]), [0, 0, 1, 1])
        assert (ms.n0, ms.mean0[0], ms.var0[0]) == (2, 1.0, 0.0)
        assert (ms.n1, ms.mean1[0], ms.var1[0]) == (2, 2.0, 0.0)
        assert ms.n == 4
        assert ms.mean[0] == pytest.approx(1.5)
        assert ms.var[0] == pytest.approx(1.0 / 3.0)

    def test_constant_column(self):
        ms = matrix_stats(np.full((6, 1), 7.0), [0, 0, 0, 1, 1, 1])
        assert ms.var0[0] == 0.0 and ms.var1[0] == 0.0 and ms.var[0] == 0.0

    def test_translation_invariance(self):
        rng = np.random.default_rng(3)
        x = rng.normal(size=50)
        y = rng.integers(0, 2, size=50)
        y[:2] = 0
        y[-2:] = 1
        a = matrix_stats(x[:, None], y)
        b = matrix_stats(x[:, None] + 1000.0, y)
        assert b.var[0] == pytest.approx(a.var[0], rel=1e-12)
        assert b.var0[0] == pytest.approx(a.var0[0], rel=1e-12)

    def test_empty_class(self):
        with pytest.raises(EmptyClass):
            matrix_stats(np.array([[1.0], [2.0]]), [0, 0])

    def test_label_validation(self):
        with pytest.raises(ValueError):
            matrix_stats(np.array([[1.0], [2.0]]), [0, 2])


@settings(max_examples=60, deadline=None)
@given(
    data=st.lists(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        min_size=4, max_size=40,
    ),
    split=st.integers(min_value=2, max_value=38),
)
def test_pooling_identity(data, split):
    """pooled SS decomposes exactly into class SS plus the mean-gap term."""
    split = min(split, len(data) - 2)
    labels = np.zeros(len(data), dtype=int)
    labels[split:] = 1
    ms = matrix_stats(np.array(data)[:, None], labels)
    n0, n1, n = ms.n0, ms.n1, ms.n
    lhs = ms.var[0] * (n - 1)
    rhs = (
        (n0 - 1) * ms.var0[0]
        + (n1 - 1) * ms.var1[0]
        + (n0 * n1 / n) * (ms.mean0[0] - ms.mean1[0]) ** 2
    )
    assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-6)


class TestVectorizedAgreement:
    """Column independence: a kernel on the whole matrix equals, column by
    column, the same kernel on that column alone. A lone contiguous column
    is summed pairwise, so the bits may differ; the tolerances allow that."""

    def test_matrix_stats_matches_scalar(self):
        rng = np.random.default_rng(5)
        values = rng.normal(size=(30, 12))
        labels = np.array([0] * 14 + [1] * 16)
        ms = matrix_stats(values, labels)
        for j in range(12):
            one = matrix_stats(values[:, [j]], labels)
            assert ms.mean0[j] == pytest.approx(one.mean0[0], rel=1e-14)
            assert ms.var0[j] == pytest.approx(one.var0[0], rel=1e-12)
            assert ms.mean1[j] == pytest.approx(one.mean1[0], rel=1e-14)
            assert ms.var1[j] == pytest.approx(one.var1[0], rel=1e-12)
            assert ms.var[j] == pytest.approx(one.var[0], rel=1e-12)

    @pytest.mark.parametrize("preset", [pp_prior, jp_prior])
    def test_log_h_table_matches_scalar(self, preset):
        rng = np.random.default_rng(9)
        values = rng.normal(size=(24, 20))
        values[:, :5] += np.where(rng.integers(0, 2, size=24)[:, None], 3.0, 0.0)
        labels = np.array([0] * 11 + [1] * 13)
        spec = preset()
        ms = matrix_stats(values, labels)
        lh, pi_star, log1m, ok = log_h_table(spec, ms)
        assert ok.all()
        for j in range(20):
            one = log_h_table(spec, matrix_stats(values[:, [j]], labels))
            assert lh[j] == pytest.approx(one[0][0], rel=1e-10, abs=1e-10)
            assert pi_star[j] == pytest.approx(one[1][0], rel=1e-12, abs=1e-15)

    @pytest.mark.parametrize("cells", [1, 41 * 7, None])
    @pytest.mark.parametrize("layout", ["C", "F", "strided", "column"])
    def test_matrix_stats_bits_match_plain_numpy(self, monkeypatch, layout, cells):
        """The moments of a copy per class and of ``values - mean``, as
        plain numpy takes them of the whole matrix, bit for bit, whatever
        the input's layout and the column blocks: of two columns (the last
        of three), of seven, or one block."""
        if cells is not None:
            monkeypatch.setattr(bayes, "_BLOCK_CELLS", cells)
        def moments(x):
            mean = np.sum(x, axis=0) / x.shape[0]
            d = x - mean
            ss = np.sum(d * d, axis=0) - np.sum(d, axis=0) ** 2 / x.shape[0]
            return mean, np.maximum(ss, 0.0) / (x.shape[0] - 1)

        rng = np.random.default_rng(12)
        values = rng.normal(size=(41, 60)) * 1e3 + 7.0
        values = {"C": values, "F": np.asfortranarray(values),
                  "strided": values[:, ::3], "column": values[:, 5:6]}[layout]
        labels = rng.permutation([0] * 19 + [1] * 22)
        ms = matrix_stats(values, labels)
        expected = (*moments(values[labels == 0]), *moments(values[labels == 1]),
                    *moments(values))
        got = (ms.mean0, ms.var0, ms.mean1, ms.var1, ms.mean, ms.var)
        for a, b in zip(got, expected):
            assert a.tobytes() == b.tobytes()

    def test_matrix_stats_rejects_other_labels(self):
        with pytest.raises(ValueError):
            matrix_stats(np.ones((6, 2)), np.array([0, 0, 2, 2, 1, 1]))

    def test_log_h_table_flags_degenerate(self):
        values = np.ones((10, 3))
        values[:, 1] = np.arange(10.0)
        labels = np.array([0] * 5 + [1] * 5)
        lh, _, _, ok = log_h_table(jp_prior(), matrix_stats(values, labels))
        assert list(ok) == [False, True, False]
        assert np.isnan(lh[0]) and math.isfinite(lh[1])


class TestMonotoneLink:
    def test_ordering_preserved(self):
        rng = np.random.default_rng(21)
        values = rng.normal(size=(40, 30))
        values[:, :10] *= rng.uniform(1.0, 4.0, size=10)
        labels = np.array([0] * 20 + [1] * 20)
        lh, pi_star, _, ok = log_h_table(pp_prior(), matrix_stats(values, labels))
        assert ok.all()
        order_h = np.argsort(lh)
        pi_sorted = pi_star[order_h]
        assert np.all(np.diff(pi_sorted) >= 0.0)
