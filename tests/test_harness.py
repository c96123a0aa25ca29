"""Sweep harness: method parsing, scoring, determinism, parallel merge."""

import concurrent.futures
import os
import resource
import sys
import tracemalloc

import numpy as np
import pytest

from obf.baselines import mi_array
from obf.bayes import MatrixStats, jp_prior, log_h_table, matrix_stats, pp_prior
from obf.errors import ConfigInvalid
from obf import harness
from obf.harness import (
    MARKER_TAGS,
    ExperimentPlan,
    MethodSpec,
    parse_method,
    run_plan,
    run_sweep,
    score_selection,
)
from obf.rng import replicate_seed
from obf.selection import Rule
from obf.synth import (
    DESK_GROUP_SIGMAS, SynthConfig, column_batches, desk_config, generate, layout,
)

from oracles import np_prefix_length, replicate_cell_materialized


def toy_separated_config():
    """10 markers whose weakest mean shift is 10 sample sds."""
    return SynthConfig(
        n_features=20, n_global=10, n_hetero=0, n_lowvar=10, n_highvar=0,
        block_size=5, rho=0.8, n_groups=1, group_sigmas=((0.0004, 0.0004),),
    )


def small_config():
    return SynthConfig(
        n_features=120, n_global=10, n_hetero=40, n_lowvar=50, n_highvar=20,
        block_size=5, rho=0.8, n_groups=2, group_sigmas=DESK_GROUP_SIGMAS,
    )


class TestScoreSelection:
    def test_perfect(self):
        assert score_selection({1, 2}, {1, 2}, 10) == (10, 2, 0)

    def test_empty_selection(self):
        assert score_selection(set(), {1, 2, 3}, 10) == (7, 0, 0)

    def test_counting(self):
        assert score_selection({2, 3, 4}, {1, 2, 3}, 10) == (8, 2, 1)


class TestParseMethod:
    def test_obf_forms(self):
        m = parse_method("mnc-obf-pp")
        assert m == MethodSpec(name="MNC-OBF-PP", kind="obf", rule=Rule("mnc"),
                               prior=pp_prior())
        m = parse_method("cmnc-obf-jp:D=100")
        assert m.rule.criterion == "cmnc" and m.rule.param == 100
        assert m.name == "CMNC-OBF-JP(D=100)"
        m = parse_method("mr-obf-pp:T=0.9")
        assert m.rule.param.threshold == pytest.approx(0.9)
        m = parse_method("np-obf-jp:alpha=0.5,pi=0.01")
        assert m.rule.param == pytest.approx(0.5)
        assert m.prior.pi == pytest.approx(0.01)

    def test_baseline_forms(self):
        assert parse_method("bd:D=50").name == "BD(D=50)"
        assert parse_method("t:D=50").kind == "welch_t"
        assert parse_method("wilks:D=10").rule == Rule("cmnc", 10)
        assert parse_method("mi:D=10").kind == "mi"

    @pytest.mark.parametrize("text, name", [
        ("mnc-obf-pp:pi=0.5", "MNC-OBF-PP(pi=0.5)"),
        ("np-obf-jp:pi=0.01,alpha=0.5", "NP-OBF-JP(a=0.5;pi=0.01)"),
        ("cmnc-obf-jp:L=0.2,D=07", "CMNC-OBF-JP(D=7;L=0.2)"),
    ])
    def test_name_shows_every_parameter(self, text, name):
        assert parse_method(text).name == name

    def test_same_name_twice_is_rejected(self):
        for pair in (("mnc-obf-pp", "mnc-obf-pp"), ("t:D=20", "welch:D=20")):
            with pytest.raises(ConfigInvalid, match="appears more than once"):
                ExperimentPlan(small_config(), (20,), 1,
                               tuple(map(parse_method, pair)))

    def test_rejects_malformed(self):
        for bad in ("cmnc-obf-jp", "bd", "xyz-obf-pp", "mr-obf-pp:T=x",
                    "mnc-obf-pp:L=0.2", "bd:D=50,extra", "mnc-obf-pp:D=5",
                    "bd:D=50,pi=0.1"):
            with pytest.raises(ConfigInvalid):
                parse_method(bad)


class TestPlanValidation:
    def test_grid_must_increase(self):
        with pytest.raises(ConfigInvalid):
            ExperimentPlan(small_config(), (100, 100), 1,
                           (parse_method("mnc-obf-jp"),))

    def test_grid_must_be_even(self):
        with pytest.raises(ConfigInvalid):
            ExperimentPlan(small_config(), (101,), 1,
                           (parse_method("mnc-obf-jp"),))

    def test_needs_methods(self):
        with pytest.raises(ConfigInvalid):
            ExperimentPlan(small_config(), (100,), 1, ())


class TestRunPlan:
    def test_separated_toy_perfect_score(self):
        plan = ExperimentPlan(
            synth=toy_separated_config(), n_grid=(40,), replicates=1,
            methods=(parse_method("cmnc-obf-jp:D=10"),), base_seed=7,
        )
        rows = run_plan(plan)
        assert len(rows) == 1
        assert rows[0].mean_correct == 20.0
        assert rows[0].mean_true_positives == 10.0
        assert rows[0].mean_false_positives == 0.0

    def test_determinism(self):
        plan = ExperimentPlan(
            synth=small_config(), n_grid=(20, 40), replicates=3,
            methods=(parse_method("mnc-obf-jp"), parse_method("bd:D=50")),
            base_seed=3,
        )
        assert run_plan(plan) == run_plan(plan)

    def test_method_permutation_invariance(self):
        methods = (parse_method("mnc-obf-jp"), parse_method("bd:D=50"),
                   parse_method("cmnc-obf-pp:D=50"))
        plan = ExperimentPlan(small_config(), (30,), 2, methods, base_seed=5)
        swapped = ExperimentPlan(small_config(), (30,), 2, methods[::-1],
                                 base_seed=5)
        a = {r.method: r for r in run_plan(plan)}
        b = {r.method: r for r in run_plan(swapped)}
        assert a == b

    def test_seed_isolation(self):
        plan_a = ExperimentPlan(small_config(), (40,), 2,
                                (parse_method("mnc-obf-jp"),), base_seed=1)
        plan_b = ExperimentPlan(small_config(), (40,), 2,
                                (parse_method("mnc-obf-jp"),), base_seed=2)
        rows_a = run_plan(plan_a)
        rows_b = run_plan(plan_b)
        assert rows_a[0].config_digest == rows_b[0].config_digest
        assert rows_a[0].base_seed != rows_b[0].base_seed
        assert rows_a[0].mean_correct != rows_b[0].mean_correct

    def test_workers_capped_at_cpus_and_cells(self, monkeypatch):
        started = []

        class RecordingPool:
            """Records the worker count and runs the cells in-process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(harness, "usable_cpus", lambda: 3)
        methods = (parse_method("mnc-obf-jp"),)
        four_cells = ExperimentPlan(small_config(), (20, 30), 2, methods)
        two_cells = ExperimentPlan(small_config(), (20,), 2, methods)
        run_sweep(four_cells, threads=64)
        run_sweep(four_cells, threads=0)
        run_sweep(two_cells, threads=8)
        run_sweep(four_cells, threads=1)
        assert started == [3, 3, 2]

    def test_one_cpu_affinity_starts_no_pool(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

        # the process may run on one CPU of the four the machine has
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        plan = ExperimentPlan(small_config(), (20, 30), 2,
                              (parse_method("mnc-obf-jp"),))
        rows = run_sweep(plan, threads=0).rows
        assert run_sweep(plan, threads=8).rows == rows
        assert started == []

    def test_negative_threads_rejected_before_any_pool(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        plan = ExperimentPlan(small_config(), (20, 30), 2,
                              (parse_method("mnc-obf-jp"),))
        with pytest.raises(ConfigInvalid, match="threads"):
            run_sweep(plan, threads=-1)
        assert started == []

    def test_threads_do_not_change_rows(self):
        plan = ExperimentPlan(
            synth=small_config(), n_grid=(20, 30), replicates=4,
            methods=(parse_method("mnc-obf-jp"), parse_method("wilks:D=50")),
            base_seed=11,
        )
        assert run_plan(plan, threads=1) == run_plan(plan, threads=4)

    def test_conservation_per_row(self):
        plan = ExperimentPlan(
            synth=small_config(), n_grid=(30,), replicates=3,
            methods=(parse_method("mnc-obf-pp"), parse_method("mi:D=20")),
            base_seed=9,
        )
        n_truth = 50
        for row in run_plan(plan):
            assert row.mean_correct == pytest.approx(
                120 - row.mean_false_positives
                - (n_truth - row.mean_true_positives)
            )

    def test_no_degenerate_on_continuous_data(self):
        plan = ExperimentPlan(small_config(), (30,), 2,
                              (parse_method("mnc-obf-jp"),), base_seed=13)
        assert run_plan(plan)[0].mean_degenerate == 0.0

    def test_mi_below_four_points_a_class_scores_no_feature(self):
        """n = 4 and 6 leave 2 and 3 points a class: MI selects none and
        counts every feature degenerate, and the sweep goes on."""
        methods = tuple(map(parse_method, ("mnc-obf-jp", "mi:D=10", "t:D=10")))
        rows = run_plan(ExperimentPlan(small_config(), (4, 6, 8, 12), 2, methods,
                                       base_seed=4))
        without = run_plan(ExperimentPlan(small_config(), (8, 12), 2, methods,
                                          base_seed=4))
        for row in rows[:6]:
            if row.method == "MI(D=10)":
                assert (row.mean_selected, row.mean_degenerate) == (0.0, 120.0)
            else:
                assert row.mean_selected > 0 and row.mean_degenerate == 0.0
        assert rows[6:] == without

    def test_extending_grid_keeps_existing_rows(self):
        methods = (parse_method("mnc-obf-jp"),)
        short = ExperimentPlan(small_config(), (20,), 3, methods, base_seed=6)
        long = ExperimentPlan(small_config(), (20, 40), 3, methods, base_seed=6)
        assert run_plan(short)[0] == run_plan(long)[0]


class TestNpAgainstLoop:
    @pytest.mark.filterwarnings("ignore:pi at the boundary")
    @pytest.mark.parametrize("text", [
        "np-obf-jp:alpha=0.5", "np-obf-pp:alpha=2",
        # pi = 1: every score is +inf, so all features tie at cost 0
        "np-obf-jp:alpha=0,pi=1",
    ])
    def test_rows_match_greedy_loop(self, text):
        method = parse_method(text)
        plan = ExperimentPlan(small_config(), (30,), 2, (method,), base_seed=8)
        row = run_plan(plan)[0]
        prior = {"np-obf-jp:alpha=0.5": jp_prior, "np-obf-pp:alpha=2": pp_prior,
                 "np-obf-jp:alpha=0,pi=1": lambda: jp_prior(1.0)}[text]()
        selected, true_pos = [], []
        for rep in range(2):
            data = generate(plan.synth, 30, replicate_seed(8, 30, rep))
            lh, _, log1m, ok = log_h_table(
                prior, matrix_stats(data.values, data.labels)
            )
            order = np.argsort(-np.where(ok, lh, -np.inf), kind="stable")
            costs = np.where(ok[order], np.exp(log1m[order]), np.inf)
            picked = order[:np_prefix_length(costs, method.rule.param)]
            truth = np.array([t in MARKER_TAGS for t in data.truth])
            selected.append(picked.size)
            true_pos.append(int(np.count_nonzero(truth[picked])))
        assert row.mean_selected == np.mean(selected)
        assert row.mean_true_positives == np.mean(true_pos)


class TestProbe:
    def test_all_null_config(self):
        cfg = SynthConfig(
            n_features=30, n_global=0, n_hetero=0, n_lowvar=20, n_highvar=10,
            block_size=5, rho=0.8, n_groups=1, group_sigmas=((0.16, 0.16),),
        )
        plan = ExperimentPlan(cfg, (20,), 2, (parse_method("mnc-obf-jp"),),
                              base_seed=0)
        probe = run_sweep(plan, probe_preset="jp").probe
        assert probe[0].median_log_h_truth is None
        assert probe[0].median_log_h_null is not None

    def test_truth_median_grows(self):
        plan = ExperimentPlan(
            small_config(), (40, 400), 3, (parse_method("mnc-obf-jp"),),
            base_seed=21,
        )
        probe = run_sweep(plan, probe_preset="jp").probe
        assert probe[1].median_log_h_truth > probe[0].median_log_h_truth

    def test_null_median_falls(self):
        plan = ExperimentPlan(
            small_config(), (40, 400), 3, (parse_method("mnc-obf-jp"),),
            base_seed=21,
        )
        probe = run_sweep(plan, probe_preset="jp").probe
        assert probe[1].median_log_h_null < probe[0].median_log_h_null

    def test_sweep_returns_rows_and_probe(self):
        plan = ExperimentPlan(
            small_config(), (30,), 2, (parse_method("mnc-obf-jp"),),
            base_seed=2,
        )
        result = run_sweep(plan, probe_preset="jp")
        assert len(result.rows) == 1
        assert len(result.probe) == 1


EVERY_KIND = tuple(map(parse_method, (
    "mnc-obf-jp", "mnc-obf-pp", "mr-obf-pp:T=0.3", "cmnc-obf-jp:D=7",
    "np-obf-jp:alpha=0.5", "t:D=7", "bd:D=7", "mi:D=7", "wilks:D=7",
)))

# config, n: batches of several streams with a short last one (n = 4000);
# above n = 32767 the narrowest batches, two streams of each family, a
# lone last stream joined to its batch, and with blocks of one column a
# family of one column joined to the other family's batch
BATCHED_CASES = {
    "desk-ratios-4000": (small_config(), 4000),
    "blocks-of-5-32770": (SynthConfig(
        n_features=45, n_global=10, n_hetero=20, n_lowvar=10, n_highvar=5,
        block_size=5, n_groups=1, group_sigmas=((0.09, 0.25),)), 32770),
    "blocks-of-1-32770": (SynthConfig(
        n_features=8, n_global=3, n_hetero=2, n_lowvar=2, n_highvar=1,
        block_size=1, n_groups=1, group_sigmas=((0.09, 0.25),)), 32770),
    "two-lone-families": (SynthConfig(
        n_features=2, n_global=1, n_hetero=0, n_lowvar=0, n_highvar=1,
        block_size=1, n_groups=1, group_sigmas=((0.09, 0.25),)), 40),
    "one-column": (SynthConfig(
        n_features=1, n_global=0, n_hetero=0, n_lowvar=0, n_highvar=1,
        n_groups=1, group_sigmas=((0.09, 0.25),)), 40),
}


class TestBatchedCell:
    @pytest.mark.parametrize("case", sorted(BATCHED_CASES))
    def test_batches_are_wide_and_contiguous(self, case):
        config, n = BATCHED_CASES[case]
        draw = layout(config, n, 3)
        batches = [(x.flags.c_contiguous, *x.shape)
                   for x in column_batches(config, draw)]
        assert all(contiguous and rows == n for contiguous, rows, _ in batches)
        widths = [width for _, _, width in batches]
        assert sum(widths) == config.n_features
        assert min(widths) >= min(2, config.n_features)

    @pytest.mark.parametrize("case", sorted(BATCHED_CASES))
    def test_batched_moments_and_mi_match_the_matrix(self, case):
        config, n = BATCHED_CASES[case]
        draw = layout(config, n, 3)
        stats, mi = [], []
        for x in column_batches(config, draw):
            stats.append(matrix_stats(x, draw.labels))
            mi.append(mi_array(x, draw.labels)[0])
        got = MatrixStats.joined(stats, draw.inverse)
        data = generate(config, n, 3)
        want = matrix_stats(data.values, data.labels)
        for name in ("mean0", "mean1", "var0", "var1", "mean", "var"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
        assert (np.concatenate(mi)[draw.inverse].tobytes()
                == mi_array(data.values, data.labels)[0].tobytes())

    @pytest.mark.parametrize("case", sorted(BATCHED_CASES))
    def test_cell_matches_the_materialized_cell(self, case):
        config, n = BATCHED_CASES[case]
        payload = (config, 4, n, 1, EVERY_KIND, "jp", MARKER_TAGS)
        key, per_method, probe = harness._replicate_cell(payload)
        want_key, want_per_method, want_probe = replicate_cell_materialized(payload)
        assert (key, per_method) == (want_key, want_per_method)
        assert [a.tobytes() for a in probe] == [a.tobytes() for a in want_probe]

    def test_small_n_matches_the_materialized_cell(self):
        for n in (4, 6, 8):
            payload = (small_config(), 4, n, 0, EVERY_KIND, "pp", MARKER_TAGS)
            got = harness._replicate_cell(payload)
            want = replicate_cell_materialized(payload)
            assert got[:2] == want[:2]
            assert [a.tobytes() for a in got[2]] == [a.tobytes() for a in want[2]]

    def test_cell_peak_is_far_below_the_matrix(self):
        """A desk cell at n = 2000 holds a batch and some F-long vectors,
        not the 32 MB matrix."""
        config, n = desk_config(), 2000
        payload = (config, 1, n, 0, EVERY_KIND, "jp", MARKER_TAGS)
        tracemalloc.start()
        try:
            harness._replicate_cell(payload)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < n * config.n_features * 8 / 4

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="the thresholds are glibc's")
    def test_batches_reuse_the_pages_freed_before(self):
        """A cell does not fault its batches' temporaries in afresh: without
        the malloc thresholds it takes thousands of minor faults."""
        payload = (desk_config(), 1, 2000, 0, EVERY_KIND, "jp", MARKER_TAGS)
        harness._replicate_cell(payload)
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        harness._replicate_cell(payload)
        assert resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before < 1000
