"""Tests of the benchmark itself: every check passes on real outputs and
fails on a copy with one value altered.

    python3 -m pytest -q perfbench/selftest.py

The real outputs come from one traced round of a small workload (the desk
preset at n = 40, features-in-rows) run in this process.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import checks  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, grid_values  # noqa: E402

SEED = 3
SMALL = dataclasses.replace(WORKLOADS["tall"], name="small", n=40,
                            transpose=True, n_grid="20:100:80", top_d=20)
GRID = grid_values(SMALL.n_grid)


@pytest.fixture(scope="module")
def real(tmp_path_factory):
    """One traced round of the small workload and its parsed outputs."""
    run_dir = str(tmp_path_factory.mktemp("round"))
    config, data, names = run.set_up(SMALL, SEED, run_dir)
    tracer = tracing.Tracer()
    lines = run.command_lines(SMALL, SEED, run_dir, 1, 1)
    codes = [code for _, _, code in run.run_traced(lines, run_dir, tracer)]

    def path(name):
        return os.path.join(run_dir, name)

    with open(path("select.stdout"), encoding="utf-8") as fh:
        stdout = fh.read()
    header, matrix = checks.read_matrix(path("simulated.csv"))
    return dict(
        run_dir=run_dir, config=config, data=data, names=names, codes=codes,
        tracer=tracer, header=header, matrix=matrix, stdout=stdout,
        truth=checks.read_table(path("simulated.truth.csv")),
        ranked=checks.read_table(path("ranked.csv")),
        selected=checks.read_table(path("selected.csv")),
        curve=checks.read_table(path("curve.csv")),
        metrics=checks.read_table(path("sweep/metrics.csv")),
    )


def altered(table, row, column, change):
    """A copy of a table with one cell replaced by change(old text)."""
    copy = checks.Table(table.header, table.rows)
    j = copy.header.index(column)
    copy.rows[row][j] = change(copy.rows[row][j])
    return copy


def scaled(factor, shift=0.0):
    return lambda text: repr(float(text) * factor + shift)


def sweep_row(metrics, n, method):
    for i, row in enumerate(metrics.rows):
        if row[0] == str(n) and row[1] == method:
            return i
    raise KeyError((n, method))


def test_commands_succeed_and_pass_every_check(real):
    assert real["codes"] == [0] * 5
    failures = run.check_outputs(SMALL, SEED, real["run_dir"], real["config"],
                                 real["data"], real["names"])
    assert failures == []


def test_traced_run_reports_every_layer(real):
    metrics = real["tracer"].metrics()
    assert set(metrics) == set(tracing.TIME_METRICS) | set(tracing.COUNT_METRICS)
    assert all(m["value"] > 0 for m in metrics.values()), metrics
    assert metrics["harness.cells"]["value"] == len(GRID) * SMALL.replicates
    assert metrics["special.welch_p_calls"]["value"] == len(real["names"])
    # select reads the dataset twice: once to sniff the header, once to parse
    counts = real["tracer"].by_command()["select"]["counts"]
    assert counts["dataio.files_read"] == 2


def test_simulate_values_fail_on_one_changed_cell(real):
    checks.check_simulate_values(real["header"], real["matrix"], real["data"],
                                 real["names"])
    matrix = real["matrix"].copy()
    matrix[5, 7] = np.nextafter(matrix[5, 7], np.inf)
    with pytest.raises(checks.CheckError):
        checks.check_simulate_values(real["header"], matrix, real["data"],
                                     real["names"])


def test_simulate_truth_fails_on_one_changed_tag(real):
    checks.check_simulate_truth(real["truth"], real["names"], SMALL.tags)
    truth = altered(real["truth"], 0, "tag",
                    lambda t: "LOWVAR_NULL" if t != "LOWVAR_NULL" else "GLOBAL")
    with pytest.raises(checks.CheckError):
        checks.check_simulate_truth(truth, real["names"], SMALL.tags)


def test_rank_features_fail_on_a_repeated_feature(real):
    checks.check_rank_features(real["ranked"], real["names"])
    first = real["ranked"].rows[0][0]
    ranked = altered(real["ranked"], 1, "feature", lambda _: first)
    with pytest.raises(checks.CheckError):
        checks.check_rank_features(ranked, real["names"])


@pytest.mark.parametrize("column", ["rank", "log_h"])
def test_rank_order_fails(real, column):
    checks.check_rank_order(real["ranked"])
    top = real["ranked"].rows[0][real["ranked"].header.index(column)]
    # row 2 takes the value of row 0, one above it in log_h
    ranked = altered(real["ranked"], 2, column,
                     lambda _: top if column == "rank" else repr(float(top) + 1.0))
    with pytest.raises(checks.CheckError):
        checks.check_rank_order(ranked)


@pytest.mark.parametrize("column", ["pi_star", "log1m_pi_star"])
def test_rank_probabilities_fail(real, column):
    checks.check_rank_probabilities(real["ranked"])
    with pytest.raises(checks.CheckError):
        checks.check_rank_probabilities(
            altered(real["ranked"], 0, column, scaled(0.999)))


def _last_scored(ranked):
    return ranked.col("status").count("ok") - 1


def test_rank_log_h_fails_on_a_changed_score(real):
    args = (real["data"].values, real["data"].labels, SMALL.prior, real["names"])
    checks.check_rank_log_h(real["ranked"], *args)
    ranked = altered(real["ranked"], _last_scored(real["ranked"]), "log_h",
                     scaled(1.0 + 1e-6))
    with pytest.raises(checks.CheckError):
        checks.check_rank_log_h(ranked, *args)


@pytest.mark.parametrize("column, change", [
    ("welch_t", scaled(1.0 + 1e-9)),
    ("welch_p", scaled(1.0, 1e-8)),
])
def test_rank_welch_fails(real, column, change):
    args = (real["data"].values, real["data"].labels, real["names"])
    checks.check_rank_welch(real["ranked"], *args)
    with pytest.raises(checks.CheckError):
        checks.check_rank_welch(altered(real["ranked"], 10, column, change), *args)


def test_select_set_fails_on_a_swapped_feature(real):
    checks.check_select_set(real["selected"], real["ranked"])
    count = len(real["selected"].rows)
    assert count > 0
    outsider = real["ranked"].rows[count][0]
    selected = altered(real["selected"], 0, "feature", lambda _: outsider)
    with pytest.raises(checks.CheckError):
        checks.check_select_set(selected, real["ranked"])


@pytest.mark.parametrize("field", ["selected", "expected_tp", "expected_fp"])
def test_select_expected_fails(real, field):
    checks.check_select_expected(real["stdout"], real["ranked"])
    words = real["stdout"].split()
    for i, word in enumerate(words):
        key, _, value = word.partition("=")
        if key == field:
            new = str(int(value) + 1) if key == "selected" else repr(float(value) + 1e-6)
            words[i] = f"{key}={new}"
    with pytest.raises(checks.CheckError):
        checks.check_select_expected(" ".join(words), real["ranked"])


def test_roc_points_fail_on_a_changed_k(real):
    checks.check_roc_points(real["curve"], real["ranked"])
    curve = altered(real["curve"], 3, "k", lambda _: "4")
    with pytest.raises(checks.CheckError):
        checks.check_roc_points(curve, real["ranked"])


def test_roc_diagonal_fails_on_a_changed_point(real):
    checks.check_roc_diagonal(real["curve"])
    curve = altered(real["curve"], 5, "expected_false_positives",
                    scaled(1.0, 1e-6))
    with pytest.raises(checks.CheckError):
        checks.check_roc_diagonal(curve)


def test_roc_monotone_fails_on_a_falling_point(real):
    checks.check_roc_monotone(real["curve"])
    before = real["curve"].rows[4][2]
    curve = altered(real["curve"], 5, "expected_true_positives",
                    lambda _: repr(float(before) - 1e-3))
    with pytest.raises(checks.CheckError):
        checks.check_roc_monotone(curve)


def test_sweep_rows_fail_on_a_changed_n(real):
    checks.check_sweep_rows(real["metrics"], GRID, len(SMALL.methods))
    metrics = altered(real["metrics"], 0, "n", lambda _: "22")
    with pytest.raises(checks.CheckError):
        checks.check_sweep_rows(metrics, GRID, len(SMALL.methods))


def test_sweep_exact_d_fails(real):
    checks.check_sweep_exact_d(real["metrics"])
    row = sweep_row(real["metrics"], GRID[0], f"CMNC-OBF-PP(D={SMALL.top_d})")
    metrics = altered(real["metrics"], row, "mean_selected", scaled(1.0, -0.5))
    with pytest.raises(checks.CheckError):
        checks.check_sweep_exact_d(metrics)


def test_sweep_trend_fails(real):
    checks.check_sweep_trend(real["metrics"])
    low = real["metrics"].rows[sweep_row(real["metrics"], GRID[0], "MNC-OBF-PP")]
    row = sweep_row(real["metrics"], GRID[-1], "MNC-OBF-PP")
    start = real["metrics"].header.index("mean_correct")
    metrics = altered(real["metrics"], row, "mean_correct",
                      lambda _: low[start])
    with pytest.raises(checks.CheckError):
        checks.check_sweep_trend(metrics)


@pytest.fixture(scope="module")
def cells(real):
    return checks.recompute_cells(real["config"], GRID[-1], SEED,
                                  SMALL.replicates, SMALL.top_d)


@pytest.mark.parametrize("method, field", [
    ("MNC-OBF-JP", "mean_true_positives"),
    ("MNC-OBF-JP", "sd_correct"),
    (f"T-TEST(D={SMALL.top_d})", "mean_correct"),
])
def test_sweep_recompute_fails(real, cells, method, field):
    checks.check_sweep_recompute(real["metrics"], GRID[-1], cells)
    row = sweep_row(real["metrics"], GRID[-1], method)
    metrics = altered(real["metrics"], row, field, scaled(1.0, 0.5))
    with pytest.raises(checks.CheckError):
        checks.check_sweep_recompute(metrics, GRID[-1], cells)


def test_benchmark_json_names_what_run_prints():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    end_to_end = {"setup_s": "s"}
    end_to_end.update({f"{c}_s": "s" for c in run.COMMANDS})
    end_to_end.update({f"{c}_rss_mb": "MB" for c in run.COMMANDS})
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == end_to_end
    per_layer = {name: "s" for name in tracing.TIME_METRICS}
    per_layer.update(tracing.COUNT_METRICS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == per_layer
    assert sorted(w["name"] for w in spec["workloads"]) == sorted(WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tall", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
