"""Classical baseline statistics and their conventions."""

import math
import warnings

import numpy as np
import pytest

from obf import baselines
from obf.bayes import ClassStats, FeatureStats, compute_stats, matrix_stats
from obf.baselines import (
    bd_array,
    bhattacharyya,
    mi_array,
    mi_spacing,
    welch_t,
    welch_t_array,
    wilks_array,
    wilks_lambda,
)
from obf.errors import DegenerateData

from oracles import student_t_two_sided_p_ref


def fstats(n0, mean0, var0, n1, mean1, var1):
    x = None  # pooled only needs counts for these tests
    pooled_n = n0 + n1
    # exact pooled moments from class moments
    mean = (n0 * mean0 + n1 * mean1) / pooled_n
    ss = (n0 - 1) * var0 + (n1 - 1) * var1 + n0 * n1 / pooled_n * (mean0 - mean1) ** 2
    return FeatureStats(
        class0=ClassStats(n0, mean0, var0),
        class1=ClassStats(n1, mean1, var1),
        pooled=ClassStats(pooled_n, mean, ss / (pooled_n - 1)),
    )


class TestWelch:
    def test_identical_stats(self):
        score = welch_t(fstats(6, 1.0, 2.0, 6, 1.0, 2.0))
        assert score.value == 0.0 and score.pvalue == 1.0

    def test_antisymmetry(self):
        a = welch_t(fstats(8, 0.3, 1.2, 11, 1.1, 0.8))
        b = welch_t(fstats(11, 1.1, 0.8, 8, 0.3, 1.2))
        assert a.value == pytest.approx(-b.value, rel=1e-15)
        assert a.pvalue == pytest.approx(b.pvalue, rel=1e-15)

    def test_reference_example(self):
        score = welch_t(fstats(10, 0.0, 1.0, 10, 1.0, 1.0))
        assert score.value == pytest.approx(-math.sqrt(5), rel=1e-12)
        ref = student_t_two_sided_p_ref(-math.sqrt(5), 18.0)
        assert score.pvalue == pytest.approx(ref, abs=1e-9)

    def test_zero_variance_conventions(self):
        same = welch_t(fstats(5, 2.0, 0.0, 5, 2.0, 0.0))
        assert same.value == 0.0 and same.pvalue == 1.0
        diff = welch_t(fstats(5, 3.0, 0.0, 5, 2.0, 0.0))
        assert diff.value == math.inf and diff.pvalue == 0.0
        diff = welch_t(fstats(5, 1.0, 0.0, 5, 2.0, 0.0))
        assert diff.value == -math.inf

    def test_location_scale_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=24)
        y = np.array([0] * 12 + [1] * 12)
        base = welch_t(compute_stats(x, y))
        shifted = welch_t(compute_stats(x + 5.0, y))
        scaled = welch_t(compute_stats(3.0 * x, y))
        assert shifted.value == pytest.approx(base.value, rel=1e-9)
        assert scaled.value == pytest.approx(base.value, rel=1e-12)

    def test_needs_two_per_class(self):
        with pytest.raises(DegenerateData):
            welch_t(FeatureStats(ClassStats(1, 0.0), ClassStats(3, 1.0, 1.0),
                                 ClassStats(4, 0.75, 1.0)))


class TestBhattacharyya:
    def test_equal_moments(self):
        assert bhattacharyya(fstats(5, 1.0, 2.0, 7, 1.0, 2.0)).value == 0.0

    def test_equal_variance_reduction(self):
        v = 1.7
        score = bhattacharyya(fstats(5, 0.0, v, 5, 2.0, v))
        assert score.value == pytest.approx(4.0 / (8.0 * v), rel=1e-12)

    def test_variance_only(self):
        score = bhattacharyya(fstats(5, 0.0, 1.0, 5, 0.0, 4.0))
        assert score.value == pytest.approx(0.5 * math.log(5.0 / 4.0), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            s = bhattacharyya(fstats(
                5, rng.normal(), rng.uniform(0.1, 3),
                5, rng.normal(), rng.uniform(0.1, 3),
            ))
            assert s.value >= 0.0

    def test_zero_variance_error(self):
        with pytest.raises(DegenerateData):
            bhattacharyya(fstats(5, 0.0, 0.0, 5, 1.0, 1.0))


class TestMiSpacing:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=40)
        y = rng.integers(0, 2, size=40)
        y[:4] = 0
        y[-4:] = 1
        base = mi_spacing(x, y).value
        perm = rng.permutation(40)
        assert mi_spacing(x[perm], y[perm]).value == pytest.approx(base, rel=1e-12)

    def test_null_mean_near_zero(self):
        rng = np.random.default_rng(42)
        vals = []
        for _ in range(100):
            x = rng.normal(size=2000)
            y = np.zeros(2000, dtype=int)
            y[1000:] = 1
            vals.append(mi_spacing(x, y).value)
        assert abs(float(np.mean(vals))) <= 0.05

    def test_separated_classes_near_log2(self):
        rng = np.random.default_rng(43)
        x0 = rng.normal(0.0, 1.0, size=1000)
        x1 = rng.normal(10.0, 1.0, size=1000)
        x = np.concatenate([x0, x1])
        y = np.array([0] * 1000 + [1] * 1000)
        assert mi_spacing(x, y).value == pytest.approx(math.log(2.0), abs=0.1)

    def test_affine_invariance(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=60)
        y = np.array([0] * 30 + [1] * 30)
        base = mi_spacing(x, y).value
        trans = mi_spacing(4.0 * x + 11.0, y).value
        assert trans == pytest.approx(base, abs=1e-9)

    def test_clamp_warning_on_ties(self):
        x = np.array([1.0] * 10 + [2.0] * 10)
        y = np.array([0, 1] * 10)
        with pytest.warns(UserWarning, match="clamped"):
            mi_spacing(x, y)

    def test_needs_four_per_class(self):
        with pytest.raises(DegenerateData):
            mi_spacing([1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 0, 1, 1])


class TestWilks:
    def test_equal_biased_moments_is_zero(self):
        # equal means, equal biased variances in classes of equal size:
        # pooled biased variance equals the shared value
        x = np.array([0.0, 2.0, 0.0, 2.0])
        y = np.array([0, 0, 1, 1])
        assert wilks_lambda(compute_stats(x, y)).value == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        fs = compute_stats([0.0, 2.0, 10.0, 12.0], [0, 0, 1, 1])
        expect = -2.0 * math.log(26.0)
        assert wilks_lambda(fs).value == pytest.approx(expect, rel=1e-12)

    def test_zero_variance_error(self):
        fs = compute_stats([1.0, 1.0, 1.0, 1.0], [0, 0, 1, 1])
        with pytest.raises(DegenerateData):
            wilks_lambda(fs)


class TestVectorizedAgreement:
    def setup_method(self):
        rng = np.random.default_rng(31)
        self.values = rng.normal(size=(26, 15))
        self.values[:, :5] += np.linspace(0.5, 2.5, 5)[None, :] * (
            rng.integers(0, 2, size=26)[:, None]
        )
        self.labels = np.array([0] * 13 + [1] * 13)
        self.ms = matrix_stats(self.values, self.labels)

    def test_welch(self):
        t, ok = welch_t_array(self.ms)
        assert ok.all()
        for j in range(15):
            ref = welch_t(compute_stats(self.values[:, j], self.labels))
            assert t[j] == pytest.approx(ref.value, rel=1e-12)

    def test_bd(self):
        bd, ok = bd_array(self.ms)
        assert ok.all()
        for j in range(15):
            ref = bhattacharyya(compute_stats(self.values[:, j], self.labels))
            assert bd[j] == pytest.approx(ref.value, rel=1e-10, abs=1e-12)

    def test_wilks(self):
        w, ok = wilks_array(self.ms)
        assert ok.all()
        for j in range(15):
            ref = wilks_lambda(compute_stats(self.values[:, j], self.labels))
            assert w[j] == pytest.approx(ref.value, rel=1e-10)

    def test_mi(self):
        mi, ok = mi_array(self.values, self.labels)
        assert ok.all()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            for j in range(15):
                ref = mi_spacing(self.values[:, j], self.labels)
                assert mi[j] == pytest.approx(ref.value, rel=1e-10, abs=1e-12)

    @pytest.mark.parametrize("sort_cells", [1, 26 * 4, 13 * 6])
    def test_mi_bits_do_not_depend_on_the_sort_block(self, monkeypatch, sort_cells):
        """Columns are sorted a block at a time; any block width, and a last
        block narrower than the rest, gives the same bits."""
        values = np.round(self.values, 1)  # ties, so some gaps are clamped
        whole, _ = mi_array(values, self.labels)
        monkeypatch.setattr(baselines, "_SORT_CELLS", sort_cells)
        blocked, _ = mi_array(values, self.labels)
        assert blocked.tobytes() == whole.tobytes()
