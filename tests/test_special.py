"""Numerical substrate checks against 50-digit references."""

import math

import numpy as np
import pytest

from obf.special import (
    betainc_reg,
    log_gamma,
    logistic,
    logit,
    logsumexp,
    softplus,
    student_t_two_sided_p,
)

from oracles import betainc_ref, log_gamma_ref, student_t_two_sided_p_ref


def mixed_close(got, ref, tol):
    assert abs(got - ref) <= tol * (1.0 + abs(ref)), (got, ref)


class TestLogGamma:
    def test_half_integer_grid(self):
        for x in np.arange(0.5, 500.5, 0.5):
            mixed_close(log_gamma(float(x)), log_gamma_ref(float(x)), 1e-12)

    def test_reflection_branch(self):
        for x in (1e-4, 0.01, 0.1, 0.25, 0.49):
            mixed_close(log_gamma(x), log_gamma_ref(x), 1e-12)

    def test_large_arguments(self):
        for x in (1e3, 1e4, 1e5, 5e5, 1e6):
            mixed_close(log_gamma(x), log_gamma_ref(x), 1e-12)

    def test_vectorized_matches_scalar(self):
        xs = np.array([0.3, 1.0, 2.5, 40.0, 333.3])
        out = log_gamma(xs)
        for x, v in zip(xs, out):
            assert v == log_gamma(float(x))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            log_gamma(0.0)
        with pytest.raises(ValueError):
            log_gamma(-1.5)


class TestIncompleteBeta:
    def test_against_reference(self):
        rng = np.random.default_rng(7)
        for _ in range(100):
            a = rng.uniform(0.2, 50.0)
            b = rng.uniform(0.2, 50.0)
            x = rng.uniform(0.0, 1.0)
            mixed_close(betainc_reg(a, b, x), betainc_ref(a, b, x), 1e-12)

    def test_edges(self):
        assert betainc_reg(2.0, 3.0, 0.0) == 0.0
        assert betainc_reg(2.0, 3.0, 1.0) == 1.0

    def test_symmetry(self):
        a, b, x = 3.7, 1.9, 0.42
        assert betainc_reg(a, b, x) == pytest.approx(
            1.0 - betainc_reg(b, a, 1.0 - x), abs=1e-14
        )

    def test_array_matches_scalar(self):
        a = np.array([2.0, 2.0, 2.0, 0.5, 40.0, 3.7, 1.9, 0.2, 50.0])
        b = np.array([3.0, 3.0, 3.0, 0.5, 2.0, 1.9, 3.7, 49.0, 0.3])
        x = np.array([0.0, 1.0, math.nan, 1e-9, 0.99, 0.42, 0.58, 0.5, 0.999])
        mean = (a + 1.0) / (a + b + 2.0)
        inner = (x > 0.0) & (x < 1.0)
        # both continued-fraction branches are taken
        assert np.any(inner & (x < mean)) and np.any(inner & (x >= mean))
        out = betainc_reg(a, b, x)
        assert out[0] == 0.0 and out[1] == 1.0 and math.isnan(out[2])
        for k in range(x.size):
            one = betainc_reg(float(a[k]), float(b[k]), float(x[k]))
            assert isinstance(one, float)
            assert one == out[k] or (math.isnan(one) and math.isnan(out[k]))
        for k in np.flatnonzero(inner):
            mixed_close(out[k], betainc_ref(a[k], b[k], x[k]), 1e-12)

    def test_broadcasts(self):
        out = betainc_reg(np.array([[1.0, 2.0], [3.0, 4.0]]), 2.0, 0.4)
        assert out.shape == (2, 2)
        assert out[1, 0] == betainc_reg(3.0, 2.0, 0.4)

    def test_rejects_nonpositive_parameters(self):
        with pytest.raises(ValueError):
            betainc_reg(np.array([1.0, 0.0]), 2.0, 0.5)
        with pytest.raises(ValueError):
            betainc_reg(1.0, -2.0, 0.5)


class TestStudentP:
    def test_against_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(100):
            t = rng.uniform(-8.0, 8.0)
            df = rng.uniform(1.0, 200.0)
            mixed_close(
                student_t_two_sided_p(t, df),
                student_t_two_sided_p_ref(t, df),
                1e-9,
            )

    # |t| near 0, where x = df / (df + t^2) rounds to just below 1; the
    # third is a feature of the benchmark's tall data (seed 31)
    SMALL_T = ((1e-6, 1998.0), (1e-7, 198.0), (-5.03e-5, 1997.5), (1e-9, 2.5))

    def test_small_t(self):
        for t, df in self.SMALL_T:
            got = student_t_two_sided_p(t, df)
            ref = student_t_two_sided_p_ref(t, df)
            assert abs(got - ref) <= 1e-9, (t, df, got, ref)

    def test_conventions(self):
        assert student_t_two_sided_p(0.0, 7.0) == 1.0
        assert student_t_two_sided_p(math.inf, 7.0) == 0.0
        assert student_t_two_sided_p(-math.inf, 7.0) == 0.0
        assert math.isnan(student_t_two_sided_p(math.nan, 7.0))

    def test_array_matches_scalar(self):
        t = np.array([0.0, math.inf, -math.inf, math.nan, 1e-9, -1e-7,
                      -5.03e-5, 0.3, -2.0, 4.5, -35.0, 1e3, 1e-300])
        df = np.array([1.0, 3.0, 2000.0, 10.0, 2.5, 198.0,
                       1997.5, 1.0, 17.3, 2000.0, 1.0, 1998.0, 7.0])
        live = np.isfinite(t) & (t != 0.0)
        x = df / (df + t * t)
        mean = (0.5 * df + 1.0) / (0.5 * df + 2.5)
        # both continued-fraction branches are taken
        assert np.any(live & (x < mean)) and np.any(live & (x >= mean))
        out = student_t_two_sided_p(t, df)
        assert out[0] == 1.0 and out[1] == 0.0 and out[2] == 0.0
        assert math.isnan(out[3])
        for k in range(t.size):
            one = student_t_two_sided_p(float(t[k]), float(df[k]))
            assert isinstance(one, float)
            assert one == out[k] or (math.isnan(one) and math.isnan(out[k]))
        for k in np.flatnonzero(live):
            ref = student_t_two_sided_p_ref(float(t[k]), float(df[k]))
            assert abs(out[k] - ref) <= 1e-9, (t[k], df[k], out[k], ref)

    def test_rejects_nonpositive_df(self):
        with pytest.raises(ValueError):
            student_t_two_sided_p(np.array([1.0, 2.0]), np.array([3.0, 0.0]))


class TestLinkFunctions:
    def test_logistic_symmetry(self):
        xs = np.linspace(-40, 40, 401)
        np.testing.assert_allclose(logistic(xs) + logistic(-xs), 1.0, atol=1e-15)

    def test_logistic_saturation(self):
        assert logistic(1000.0) == 1.0
        assert logistic(-1000.0) == 0.0
        assert logistic(math.inf) == 1.0
        assert logistic(-math.inf) == 0.0

    def test_softplus_identity(self):
        # log(1 - logistic(x)) == -softplus(x)
        for x in (-30.0, -1.0, 0.0, 1.0, 30.0):
            assert -softplus(x) == pytest.approx(
                math.log1p(-logistic(x)) if x < 30 else -x, rel=1e-12
            )
        assert softplus(-math.inf) == 0.0
        assert softplus(math.inf) == math.inf

    def test_logit_round_trip(self):
        for p in (0.001, 0.3, 0.5, 0.9, 0.999):
            assert logistic(logit(p)) == pytest.approx(p, rel=1e-12)
        assert logit(0.0) == -math.inf
        assert logit(1.0) == math.inf

    def test_logsumexp(self):
        vals = [math.log(0.2), math.log(0.3), math.log(0.5)]
        assert logsumexp(vals) == pytest.approx(0.0, abs=1e-12)
        assert logsumexp([]) == -math.inf
        assert logsumexp([-math.inf, -math.inf]) == -math.inf
        assert logsumexp([-math.inf, 0.0]) == pytest.approx(0.0)
