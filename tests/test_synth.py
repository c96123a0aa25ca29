"""Generator correctness: config invariants, distributions, determinism."""

import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as sps

from obf import synth
from obf.errors import ConfigInvalid, NotPD
from obf.synth import (
    DESK_GROUP_SIGMAS,
    GLOBAL,
    HETERO,
    HIGHVAR_NULL,
    LOWVAR_NULL,
    SynthConfig,
    block_covariance,
    desk_config,
    generate,
    full_config,
    truth_set,
)
from oracles import generate_per_stream


def tiny_config(**overrides):
    base = dict(
        n_features=120, n_global=10, n_hetero=40, n_lowvar=50, n_highvar=20,
        block_size=5, rho=0.8, n_groups=2,
        group_sigmas=DESK_GROUP_SIGMAS, n_subclasses=2,
    )
    base.update(overrides)
    return SynthConfig(**base)


FROZEN_TINY_DIGEST = (
    "c2d5f4d41251d8d6b69dd144874b083b3cd53dc790f66287d0d0422a6211b873"
)

# generate(preset, n, seed=7): sha256 of values.tobytes() then the truth tags
FROZEN_SIZE_DIGESTS = {
    ("full", 20): "3c2516669d53eeba2fc72de7923fa429511fa67798e6cd6b013a96bbc140b580",
    ("full", 200): "8709837248b8932dafd155fb49082040d05b9156964ba5609cdd92a0e7aeeb7f",
    ("desk", 650): "11c45c3e63e0efa748f1004c7be36bd7fe03a026e17c9a2048e8fbc0f60ed774",
    ("desk", 2000): "ca6c4e58ea0f3148f9adb3d2fd1d047c7d74312dd6903bde90c97ce396b68423",
}


class TestBlockCovariance:
    def test_k1(self):
        cov, low = block_covariance(1, 0.8, 0.3)
        assert cov.shape == (1, 1) and cov[0, 0] == 0.3
        assert low[0, 0] == pytest.approx(math.sqrt(0.3))

    def test_k2_values(self):
        cov, _ = block_covariance(2, 0.8, 0.16)
        np.testing.assert_allclose(cov, [[0.16, 0.128], [0.128, 0.16]], rtol=1e-15)

    def test_cholesky_reconstructs(self):
        cov, low = block_covariance(5, 0.8, 0.49)
        np.testing.assert_allclose(low @ low.T, cov, atol=1e-12)
        assert np.allclose(np.triu(low, 1), 0.0)

    def test_not_pd(self):
        with pytest.raises(NotPD):
            block_covariance(3, -0.6, 1.0)


class TestConfigValidation:
    def test_presets_validate(self):
        full_config().validate()
        desk_config().validate()

    def test_counts_must_sum(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(n_features=121).validate()

    def test_block_divisibility(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(n_global=12, n_lowvar=48).validate()

    def test_group_divisibility(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(n_groups=4).validate()  # 10 global blocks=2, not /4

    def test_hetero_orientation_halves(self):
        # 5 blocks per group is odd
        with pytest.raises(ConfigInvalid):
            tiny_config(n_hetero=50, n_lowvar=40).validate()

    def test_rho_range(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(rho=1.0).validate()
        with pytest.raises(ConfigInvalid):
            tiny_config(rho=-0.3).validate()  # -1/(k-1) = -0.25

    def test_group_sigmas_shape(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(group_sigmas=((0.16, 0.16),)).validate()

    def test_subclass_constraint(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(n_subclasses=3).validate()

    def test_mu1_pattern(self):
        with pytest.raises(ConfigInvalid):
            tiny_config(mu1_pattern="linear").validate()
        np.testing.assert_allclose(
            tiny_config().mu1(), [1.0, 0.5, 1.0 / 3.0, 0.25, 0.2]
        )

    def test_round_trip_and_digest(self):
        cfg = desk_config()
        again = SynthConfig.from_dict(cfg.to_dict())
        assert again == cfg
        assert again.digest() == cfg.digest()
        assert tiny_config().digest() != cfg.digest()


class TestGenerate:
    def test_determinism_bit_identical(self):
        cfg = tiny_config()
        a = generate(cfg, 24, 99)
        b = generate(cfg, 24, 99)
        assert np.array_equal(a.values, b.values)
        assert a.truth == b.truth
        assert np.array_equal(a.labels, b.labels)

    def test_seed_changes_data(self):
        cfg = tiny_config()
        a = generate(cfg, 24, 1)
        b = generate(cfg, 24, 2)
        assert not np.array_equal(a.values, b.values)
        assert a.config_digest == b.config_digest

    def test_frozen_digest(self):
        # cross-platform reproducibility pin: Philox streams + Box-Muller
        data = generate(tiny_config(), 12, 2024)
        digest = hashlib.sha256(data.values.tobytes()).hexdigest()
        assert digest == FROZEN_TINY_DIGEST

    @pytest.mark.parametrize("preset, n", sorted(FROZEN_SIZE_DIGESTS))
    def test_frozen_digest_at_size(self, preset, n):
        # full and desk presets at real sizes; desk n=650 ends each block
        # stream inside a Philox block (n * k = 3250 is not a multiple of 4)
        config = {"full": full_config, "desk": desk_config}[preset]()
        data = generate(config, n, 7)
        assert matrix_digest(data) == FROZEN_SIZE_DIGESTS[preset, n]

    def test_shapes_roles_and_labels(self):
        cfg = tiny_config()
        data = generate(cfg, 26, 5)
        assert data.values.shape == (26, 120)
        assert list(np.bincount(data.labels)) == [13, 13]
        counts = {tag: data.truth.count(tag) for tag in
                  (GLOBAL, HETERO, LOWVAR_NULL, HIGHVAR_NULL)}
        assert counts == {GLOBAL: 10, HETERO: 40, LOWVAR_NULL: 50,
                          HIGHVAR_NULL: 20}
        assert len(truth_set(data)) == 50

    def test_subclass_split_odd(self):
        data = generate(tiny_config(), 26, 5)  # n1 = 13 -> 7 + 6
        sub = data.subclass
        assert int(np.count_nonzero(sub == 0)) == 7
        assert int(np.count_nonzero(sub == 1)) == 6
        assert int(np.count_nonzero(sub == -1)) == 13

    def test_full_scale_config_generates(self):
        data = generate(full_config(), 8, 0)
        assert data.values.shape == (8, 20000)
        assert len(truth_set(data)) == 100

    def test_all_null_config(self):
        cfg = SynthConfig(
            n_features=30, n_global=0, n_hetero=0, n_lowvar=20, n_highvar=10,
            block_size=5, rho=0.8, n_groups=1, group_sigmas=((0.16, 0.16),),
        )
        data = generate(cfg, 10, 3)
        assert truth_set(data) == frozenset()

    def test_n_validation(self):
        with pytest.raises(ConfigInvalid):
            generate(tiny_config(), 7, 0)
        with pytest.raises(ConfigInvalid):
            generate(tiny_config(), 2, 0)


def matrix_digest(data) -> str:
    """sha256 over the value bytes followed by the newline-joined truth tags."""
    h = hashlib.sha256(data.values.tobytes())
    h.update("\n".join(data.truth).encode("ascii"))
    return h.hexdigest()


def assert_same_matrix(got, want):
    assert got.values.tobytes() == want.values.tobytes()
    assert got.truth == want.truth
    assert np.array_equal(got.labels, want.labels)
    assert np.array_equal(got.subclass, want.subclass)
    assert got.config_digest == want.config_digest


EDGE_CONFIGS = {
    "no_blocked_roles": SynthConfig(
        n_features=6, n_global=0, n_hetero=0, n_lowvar=0, n_highvar=6,
        n_groups=2, group_sigmas=DESK_GROUP_SIGMAS,
    ),
    "no_highvar": tiny_config(n_features=100, n_highvar=0),
    "block_size_1": SynthConfig(
        n_features=14, n_global=2, n_hetero=4, n_lowvar=6, n_highvar=2,
        block_size=1, n_groups=2, group_sigmas=DESK_GROUP_SIGMAS,
    ),
    "single_group": SynthConfig(
        n_features=27, n_global=6, n_hetero=6, n_lowvar=12, n_highvar=3,
        block_size=3, rho=0.5, n_groups=1, group_sigmas=((0.25, 0.49),),
    ),
}


class TestBatchedAgainstPerStream:
    @pytest.mark.parametrize("name", sorted(EDGE_CONFIGS))
    @pytest.mark.parametrize("n", (4, 6, 26))  # n1 = 3 and 13 split oddly
    def test_edge_configs(self, name, n):
        config = EDGE_CONFIGS[name]
        assert_same_matrix(generate(config, n, 31), generate_per_stream(config, n, 31))

    @pytest.mark.parametrize("n", (4000, 20_000))
    def test_batch_boundaries(self, n):
        # 4000 leaves a partial last batch of blocks and of mixtures; 20000
        # puts two streams, the fewest, in each batch
        config = tiny_config()
        assert_same_matrix(generate(config, n, 5), generate_per_stream(config, n, 5))

    @settings(max_examples=60, deadline=None)
    @given(
        groups=st.integers(1, 3),
        k=st.integers(1, 4),
        per_group=st.tuples(st.integers(0, 2), st.integers(0, 1),
                            st.integers(0, 2), st.integers(0, 3)),
        rho=st.sampled_from((0.0, 0.5, 0.8, -0.2)),
        sigmas=st.lists(st.tuples(st.sampled_from((0.09, 0.16, 0.49, 1.0)),
                                  st.sampled_from((0.09, 0.25, 0.64, 1.0))),
                        min_size=3, max_size=3),
        half_n=st.integers(2, 20),
        seed=st.one_of(st.integers(0, 2**64 - 1), st.integers(-2**63, -1)),
        budget=st.sampled_from((1, 37, 1 << 16)),
    )
    def test_small_configs(self, groups, k, per_group, rho, sigmas, half_n,
                           seed, budget):
        n_global = per_group[0] * groups * k
        n_hetero = 2 * per_group[1] * groups * k
        n_lowvar = per_group[2] * groups * k
        n_highvar = per_group[3] * groups
        total = n_global + n_hetero + n_lowvar + n_highvar
        if total == 0:
            n_highvar = total = groups
        config = SynthConfig(
            n_features=total, n_global=n_global, n_hetero=n_hetero,
            n_lowvar=n_lowvar, n_highvar=n_highvar, block_size=k, rho=rho,
            n_groups=groups, group_sigmas=tuple(sigmas[:groups]),
        )
        n = 2 * half_n
        with mock.patch.object(synth, "_BATCH_WORDS", budget):
            got = generate(config, n, seed)
        assert_same_matrix(got, generate_per_stream(config, n, seed))


class TestSamplerDistribution:
    def test_ks_marginals(self):
        # one 5-wide global block, single group: class-0 marginal is N(0, 0.16)
        cfg = SynthConfig(
            n_features=5, n_global=5, n_hetero=0, n_lowvar=0, n_highvar=0,
            block_size=5, rho=0.8, n_groups=1, group_sigmas=((0.16, 0.49),),
        )
        data = generate(cfg, 200_000, 11)
        x0 = data.values[data.labels == 0]
        for j in range(5):
            res = sps.kstest(x0[:, j], "norm", args=(0.0, math.sqrt(0.16)))
            assert res.pvalue > 0.001, (j, res)
        # class-1 marginal of feature j is N(mu1_j, 0.49); standardize and
        # test against the unit normal (columns keep block order here since
        # the placement permutation acts on 5 columns of one block)
        x1 = data.values[data.labels == 1]
        mu1_by_col = np.empty(5)
        perm_mean = x1.mean(axis=0)
        mu1_by_col = cfg.mu1()[np.argsort(np.argsort(-perm_mean))]
        z = (x1 - mu1_by_col[None, :]) / math.sqrt(0.49)
        for j in range(5):
            res = sps.kstest(z[:, j], "norm")
            assert res.pvalue > 0.001, (j, res)

    def test_lln_marker_block_moments(self):
        cfg = desk_config()
        data = generate(cfg, 20_000, 0)
        mu1 = cfg.mu1()
        # group of a column is recoverable from empirical class-0 variance
        marker_cols = [i for i, t in enumerate(data.truth) if t == GLOBAL]
        assert len(marker_cols) == 10
        markers = data.values[:, marker_cols]
        x0 = markers[data.labels == 0]
        got_mean1 = markers[data.labels == 1].mean(axis=0)
        # columns of one block are contiguous in draw order, not on disk;
        # instead check the set of class-1 means covers mu1 for each block
        for col in x0.T:
            var0 = float(col.var(ddof=1))
            sigma0 = min(cfg.group_sigmas, key=lambda p: abs(p[0] - var0))[0]
            assert abs(var0 - sigma0) < 0.02
        np.testing.assert_allclose(
            np.sort(got_mean1), np.sort(np.concatenate([mu1, mu1])), atol=0.02
        )

    def test_lln_block_covariance_entries(self):
        # small config so block membership is recoverable via correlation
        cfg = SynthConfig(
            n_features=10, n_global=10, n_hetero=0, n_lowvar=0, n_highvar=0,
            block_size=5, rho=0.8, n_groups=2,
            group_sigmas=((0.16, 0.16), (0.49, 0.64)),
        )
        data = generate(cfg, 20_000, 1)
        x0 = data.values[data.labels == 0]
        emp = np.cov(x0, rowvar=False)
        # within a block: off-diagonal sigma*rho; across blocks: ~0
        for i in range(10):
            vi = emp[i, i]
            sigma = min((0.16, 0.49), key=lambda s: abs(s - vi))
            assert abs(vi - sigma) < 0.02
            for j in range(i + 1, 10):
                off = emp[i, j]
                same_block = abs(off) > 0.05
                if same_block:
                    target = 0.8 * min((0.16, 0.49), key=lambda s: abs(s - vi))
                    assert abs(off - target) < 0.02
                else:
                    assert abs(off) < 0.02

    def test_null_mean_gap_envelope(self):
        cfg = tiny_config()
        for seed in range(10):
            for n in (400, 1600):
                data = generate(cfg, n, seed)
                x0 = data.values[data.labels == 0]
                x1 = data.values[data.labels == 1]
                null_cols = [i for i, t in enumerate(data.truth)
                             if t in (LOWVAR_NULL, HIGHVAR_NULL)]
                gap = np.abs(x0[:, null_cols].mean(axis=0)
                             - x1[:, null_cols].mean(axis=0))
                scale = np.sqrt(data.values[:, null_cols].var(axis=0, ddof=1))
                envelope = 10.0 * math.sqrt(math.log(math.log(n)) / n) * 2.0
                assert float(np.max(gap / scale)) < envelope

    def test_hetero_markers_differ_in_class1(self):
        cfg = tiny_config()
        data = generate(cfg, 40_000, 8)
        x0 = data.values[data.labels == 0]
        x1 = data.values[data.labels == 1]
        for col, tag in enumerate(data.truth):
            if tag != HETERO:
                continue
            mean_gap = abs(x0[:, col].mean() - x1[:, col].mean())
            var_ratio = x1[:, col].var(ddof=1) / x0[:, col].var(ddof=1)
            assert mean_gap > 0.05 or abs(var_ratio - 1.0) > 0.05, col

    def test_highvar_null_identical_between_classes(self):
        cfg = tiny_config()
        data = generate(cfg, 40_000, 9)
        x0 = data.values[data.labels == 0]
        x1 = data.values[data.labels == 1]
        for col, tag in enumerate(data.truth):
            if tag != HIGHVAR_NULL:
                continue
            assert abs(x0[:, col].mean() - x1[:, col].mean()) < 0.05
            assert abs(x0[:, col].var(ddof=1) - x1[:, col].var(ddof=1)) < 0.05

