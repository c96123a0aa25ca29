"""Classical baseline statistics and their conventions."""

import math

import numpy as np
import pytest

from obf import baselines
from obf.bayes import MatrixStats, matrix_stats
from obf.baselines import (
    _mi_columns,
    bd_array,
    mi_array,
    welch_df_array,
    welch_t_array,
    wilks_array,
)
from obf.errors import DegenerateData, EmptyClass
from obf.special import student_t_two_sided_p

from oracles import student_t_two_sided_p_ref


def fstats(n0, mean0, var0, n1, mean1, var1) -> MatrixStats:
    """One feature's table from its class moments, pooled moments exact."""
    pooled_n = n0 + n1
    mean = (n0 * mean0 + n1 * mean1) / pooled_n
    ss = (n0 - 1) * var0 + (n1 - 1) * var1 + n0 * n1 / pooled_n * (mean0 - mean1) ** 2
    return MatrixStats(
        n0, n1, *(np.array([v]) for v in
                  (mean0, mean1, var0, var1, mean, ss / (pooled_n - 1))),
    )


def column_stats(x, labels) -> MatrixStats:
    return matrix_stats(np.asarray(x, dtype=np.float64)[:, None], labels)


def welch(ms):
    """(t, p) of one feature."""
    t, ok = welch_t_array(ms)
    assert ok[0]
    return float(t[0]), float(student_t_two_sided_p(t, welch_df_array(ms))[0])


def one(kernel, ms):
    """A kernel's value of one feature, NaN where it flags it."""
    value, ok = kernel(ms)
    assert ok[0] == (not math.isnan(value[0]))
    return float(value[0])


def mi(x, labels):
    return float(mi_array(np.asarray(x, dtype=np.float64)[:, None], labels)[0][0])


class TestWelch:
    def test_identical_stats(self):
        assert welch(fstats(6, 1.0, 2.0, 6, 1.0, 2.0)) == (0.0, 1.0)

    def test_antisymmetry(self):
        a = welch(fstats(8, 0.3, 1.2, 11, 1.1, 0.8))
        b = welch(fstats(11, 1.1, 0.8, 8, 0.3, 1.2))
        assert a[0] == pytest.approx(-b[0], rel=1e-15)
        assert a[1] == pytest.approx(b[1], rel=1e-15)

    def test_reference_example(self):
        t, p = welch(fstats(10, 0.0, 1.0, 10, 1.0, 1.0))
        assert t == pytest.approx(-math.sqrt(5), rel=1e-12)
        ref = student_t_two_sided_p_ref(-math.sqrt(5), 18.0)
        assert p == pytest.approx(ref, abs=1e-9)

    def test_zero_variance_conventions(self):
        assert welch(fstats(5, 2.0, 0.0, 5, 2.0, 0.0)) == (0.0, 1.0)
        assert welch(fstats(5, 3.0, 0.0, 5, 2.0, 0.0)) == (math.inf, 0.0)
        assert welch(fstats(5, 1.0, 0.0, 5, 2.0, 0.0))[0] == -math.inf

    def test_location_scale_equivariance(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=24)
        y = np.array([0] * 12 + [1] * 12)
        base, _ = welch(column_stats(x, y))
        shifted, _ = welch(column_stats(x + 5.0, y))
        scaled, _ = welch(column_stats(3.0 * x, y))
        assert shifted == pytest.approx(base, rel=1e-9)
        assert scaled == pytest.approx(base, rel=1e-12)

    def test_needs_two_per_class(self):
        with pytest.raises(EmptyClass):
            column_stats([0.0, 1.0, 1.0, 1.0], [0, 1, 1, 1])


class TestBhattacharyya:
    def test_equal_moments(self):
        assert one(bd_array, fstats(5, 1.0, 2.0, 7, 1.0, 2.0)) == 0.0

    def test_equal_variance_reduction(self):
        v = 1.7
        value = one(bd_array, fstats(5, 0.0, v, 5, 2.0, v))
        assert value == pytest.approx(4.0 / (8.0 * v), rel=1e-12)

    def test_variance_only(self):
        value = one(bd_array, fstats(5, 0.0, 1.0, 5, 0.0, 4.0))
        assert value == pytest.approx(0.5 * math.log(5.0 / 4.0), rel=1e-12)

    def test_nonnegative(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            value = one(bd_array, fstats(
                5, rng.normal(), rng.uniform(0.1, 3),
                5, rng.normal(), rng.uniform(0.1, 3),
            ))
            assert value >= 0.0

    def test_zero_variance_error(self):
        bd, ok = bd_array(fstats(5, 0.0, 0.0, 5, 1.0, 1.0))
        assert not ok[0] and math.isnan(bd[0])


class TestMiSpacing:
    def test_permutation_invariance(self):
        rng = np.random.default_rng(10)
        x = rng.normal(size=40)
        y = rng.integers(0, 2, size=40)
        y[:4] = 0
        y[-4:] = 1
        base = mi(x, y)
        perm = rng.permutation(40)
        assert mi(x[perm], y[perm]) == pytest.approx(base, rel=1e-12)

    def test_null_mean_near_zero(self):
        rng = np.random.default_rng(42)
        vals = []
        for _ in range(100):
            x = rng.normal(size=2000)
            y = np.zeros(2000, dtype=int)
            y[1000:] = 1
            vals.append(mi(x, y))
        assert abs(float(np.mean(vals))) <= 0.05

    def test_separated_classes_near_log2(self):
        rng = np.random.default_rng(43)
        x0 = rng.normal(0.0, 1.0, size=1000)
        x1 = rng.normal(10.0, 1.0, size=1000)
        x = np.concatenate([x0, x1])
        y = np.array([0] * 1000 + [1] * 1000)
        assert mi(x, y) == pytest.approx(math.log(2.0), abs=0.1)

    def test_affine_invariance(self):
        rng = np.random.default_rng(44)
        x = rng.normal(size=60)
        y = np.array([0] * 30 + [1] * 30)
        base = mi(x, y)
        trans = mi(4.0 * x + 11.0, y)
        assert trans == pytest.approx(base, abs=1e-9)

    def test_clamp_count_on_ties(self):
        # two values, alternating labels: every gap but one in each sample ties
        x = np.array([1.0] * 10 + [2.0] * 10)
        y = np.array([0, 1] * 10)
        _, clamped, gaps = _mi_columns(x[:, None], y)
        assert gaps == 19 + 9 + 9
        assert clamped[0] == 18 + 8 + 8

    def test_needs_four_per_class(self):
        with pytest.raises(DegenerateData):
            mi([1.0, 2.0, 3.0, 4.0, 5.0], [0, 0, 0, 1, 1])


class TestWilks:
    def test_equal_biased_moments_is_zero(self):
        # equal means, equal biased variances in classes of equal size:
        # pooled biased variance equals the shared value
        ms = column_stats([0.0, 2.0, 0.0, 2.0], [0, 0, 1, 1])
        assert one(wilks_array, ms) == pytest.approx(0.0, abs=1e-12)

    def test_hand_example(self):
        ms = column_stats([0.0, 2.0, 10.0, 12.0], [0, 0, 1, 1])
        expect = -2.0 * math.log(26.0)
        assert one(wilks_array, ms) == pytest.approx(expect, rel=1e-12)

    def test_zero_variance_error(self):
        w, ok = wilks_array(column_stats([1.0, 1.0, 1.0, 1.0], [0, 0, 1, 1]))
        assert not ok[0] and math.isnan(w[0])


class TestVectorizedAgreement:
    """Column independence: each kernel on the whole matrix equals, column by
    column, the same kernel on that column alone. A lone contiguous column
    is summed pairwise, so the bits may differ; the tolerances allow that."""

    def setup_method(self):
        rng = np.random.default_rng(31)
        self.values = rng.normal(size=(26, 15))
        self.values[:, :5] += np.linspace(0.5, 2.5, 5)[None, :] * (
            rng.integers(0, 2, size=26)[:, None]
        )
        self.labels = np.array([0] * 13 + [1] * 13)
        self.ms = matrix_stats(self.values, self.labels)

    def columns(self):
        for j in range(self.values.shape[1]):
            yield j, matrix_stats(self.values[:, [j]], self.labels)

    def test_welch(self):
        t, ok = welch_t_array(self.ms)
        assert ok.all()
        for j, ms in self.columns():
            assert t[j] == pytest.approx(welch_t_array(ms)[0][0], rel=1e-12)

    def test_bd(self):
        bd, ok = bd_array(self.ms)
        assert ok.all()
        for j, ms in self.columns():
            ref = bd_array(ms)[0][0]
            assert bd[j] == pytest.approx(ref, rel=1e-10, abs=1e-12)

    def test_wilks(self):
        w, ok = wilks_array(self.ms)
        assert ok.all()
        for j, ms in self.columns():
            assert w[j] == pytest.approx(wilks_array(ms)[0][0], rel=1e-10)

    def test_mi(self):
        values, ok = mi_array(self.values, self.labels)
        assert ok.all()
        for j in range(self.values.shape[1]):
            ref = mi(self.values[:, j], self.labels)
            assert values[j] == pytest.approx(ref, rel=1e-10, abs=1e-12)
    @pytest.mark.parametrize("sort_cells", [1, 26 * 4, 13 * 6])
    def test_mi_bits_do_not_depend_on_the_sort_block(self, monkeypatch, sort_cells):
        """Columns are sorted a block at a time; any block width, and a last
        block narrower than the rest, gives the same bits."""
        values = np.round(self.values, 1)  # ties, so some gaps are clamped
        whole, _ = mi_array(values, self.labels)
        monkeypatch.setattr(baselines, "_SORT_CELLS", sort_cells)
        blocked, _ = mi_array(values, self.labels)
        assert blocked.tobytes() == whole.tobytes()
