"""Command-line interface: rank, select, simulate, consistency, roc.

Exit codes: 0 all requested outputs written, 2 input file missing,
unreadable or malformed, 3 configuration error (including a prior that
leaves no feature scorable at this sample size), 4 all features degenerate.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from ._version import __version__
from .bayes import log_h_table, matrix_stats
from .baselines import (
    bd_array,
    mi_array,
    welch_df_array,
    welch_t_array,
    wilks_array,
)
from .dataio import (
    RunConfig,
    atomic_write_text,
    dataset_from_rows,
    fmt_number,
    load_config,
    provenance_lines,
    read_csv_text,
    read_dataset,
    render_csv,
    render_dataset,
)
from .errors import (
    AllDegenerate,
    BadSize,
    ConfigInvalid,
    DatasetParseError,
    DegenerateData,
    EmptyClass,
    ImproperPrior,
    NotPD,
    TooLarge,
)
from .harness import ExperimentPlan, run_plan
from .selection import (
    ScoreTable,
    rank_order,
    roc,
    select_cmnc,
    select_mnc,
    select_mr,
    select_np,
)
from .special import student_t_two_sided_p
from .svgplot import line_chart
from .synth import generate

RANKED_COLUMNS = [
    "feature", "log_h", "pi_star", "log1m_pi_star", "rank",
    "welch_t", "welch_p", "bd", "mi", "log_wilks_lambda", "status",
]


def _require(cfg: RunConfig, attr: str, section: str):
    value = getattr(cfg, attr)
    if value is None:
        raise ConfigInvalid(f"config is missing the [{section}] section")
    return value


def _screen_dataset(values, labels, prior):
    """Score every feature with the filter and all baselines."""
    ms = matrix_stats(values, labels)
    lh, pi_star, log1m, ok = log_h_table(prior, ms)
    nf = values.shape[1]

    t, t_ok = welch_t_array(ms)
    df = welch_df_array(ms)
    welch_p = np.full(nf, np.nan)
    for i in range(nf):
        if t_ok[i]:
            welch_p[i] = student_t_two_sided_p(float(t[i]), float(df[i]))
    bd, _ = bd_array(ms)
    try:
        mi, _ = mi_array(values, labels)
    except DegenerateData:
        mi = np.full(nf, np.nan)
    wilks, _ = wilks_array(ms)
    return {
        "log_h": lh, "pi_star": pi_star, "log1m_pi_star": log1m, "ok": ok,
        "welch_t": t, "welch_p": welch_p, "bd": bd, "mi": mi,
        "log_wilks_lambda": wilks,
    }


def _ranked_rows(names, scores):
    ok = scores["ok"]
    if not np.any(ok):
        raise AllDegenerate("every feature is degenerate under this prior")
    rows = []
    rank = 0
    for idx in rank_order(scores["log_h"], ok).tolist():
        good = bool(ok[idx])
        rank = rank + 1 if good else rank
        rows.append([
            names[idx],
            fmt_number(scores["log_h"][idx]) if good else "",
            fmt_number(scores["pi_star"][idx]) if good else "",
            fmt_number(scores["log1m_pi_star"][idx]) if good else "",
            str(rank) if good else "",
            fmt_number(scores["welch_t"][idx]),
            fmt_number(scores["welch_p"][idx]),
            fmt_number(scores["bd"][idx]),
            fmt_number(scores["mi"][idx]),
            fmt_number(scores["log_wilks_lambda"][idx]),
            "ok" if good else "degenerate",
        ])
    return rows


def _table_from_dataset(prior, values, labels, names) -> ScoreTable:
    ms = matrix_stats(values, labels)
    lh, pi_star, log1m, ok = log_h_table(prior, ms)
    if not np.any(ok):
        raise AllDegenerate("every feature is degenerate under this prior")
    keep = np.flatnonzero(ok)
    return ScoreTable.from_arrays(
        [names[i] for i in keep], lh[keep], pi_star[keep], log1m[keep]
    )


def _table_from_ranked(path, header, rows) -> ScoreTable:
    """Scores of the ``ok`` rows of a ranked file; each must carry numbers."""
    needed = ("feature", "log_h", "pi_star", "log1m_pi_star", "status")
    missing = [name for name in needed if name not in header]
    if missing:
        raise DatasetParseError(f"{path}: ranked file lacks columns {missing}")
    idx = {name: header.index(name) for name in needed}
    ids, scores = [], []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetParseError(
                f"{path}: expected {len(header)} cells, found {len(row)}",
                row=i + 2, column=len(row),
            )
        if row[idx["status"]] != "ok":
            continue
        ids.append(row[idx["feature"]])
        for name in ("log_h", "pi_star", "log1m_pi_star"):
            cell = row[idx[name]]
            try:
                value = float(cell)
            except ValueError:
                value = math.nan
            if math.isnan(value):
                raise DatasetParseError(
                    f"{path}: ok row has no number in {name}: {cell!r}",
                    row=i + 2, column=idx[name] + 1,
                )
            scores.append(value)
    if not ids:
        raise AllDegenerate("ranked file contains no scorable features")
    lh, pi_star, log1m = np.array(scores, dtype=np.float64).reshape(-1, 3).T
    return ScoreTable.from_arrays(ids, lh, pi_star, log1m)


def _load_table(args, cfg) -> ScoreTable:
    """Scores from a ranked file, or from a dataset scored under [prior]."""
    header, rows, _ = read_csv_text(args.input)
    if {"feature", "log_h", "pi_star"} <= set(header):
        return _table_from_ranked(args.input, header, rows)
    prior = _require(cfg, "prior", "prior")
    dataset = dataset_from_rows(
        header, rows, args.input,
        label_column=args.label_column, transpose=args.transpose,
    )
    # the cell text outweighs the parsed matrix: free it before scoring
    del header, rows
    return _table_from_dataset(prior, *dataset)


def cmd_rank(args) -> int:
    cfg = load_config(args.config)
    prior = _require(cfg, "prior", "prior")
    values, labels, names = read_dataset(
        args.input, label_column=args.label_column, transpose=args.transpose
    )
    scores = _screen_dataset(values, labels, prior)
    rows = _ranked_rows(names, scores)
    comments = provenance_lines(cfg.digest(), args.seed, cfg.items)
    atomic_write_text(args.out, render_csv(RANKED_COLUMNS, rows, comments))
    return 0


def _apply_selection(table: ScoreTable, settings):
    if settings.criterion == "mr":
        return select_mr(table, settings.loss)
    if settings.criterion == "mnc":
        return select_mnc(table)
    if settings.criterion == "cmnc":
        return select_cmnc(table, settings.d)
    return select_np(table, settings.alpha)


def cmd_select(args) -> int:
    cfg = load_config(args.config)
    settings = _require(cfg, "selection", "selection")
    table = _load_table(args, cfg)
    result = _apply_selection(table, settings)
    position = {fid: i for i, fid in enumerate(table.feature_ids)}
    rank_of = {fid: i + 1 for i, fid in enumerate(result.ranking)}
    header = ["feature", "rank", "log_h", "pi_star"]
    rows = []
    # left-to-right sums in selection order, which fix the printed digits
    expected_tp = 0.0
    expected_fp = 0.0
    for fid in result.selected:
        i = position[fid]
        expected_tp += float(table.pi_star[i])
        expected_fp += math.exp(table.log1m[i])
        rows.append([
            str(fid), str(rank_of[fid]), fmt_number(table.log_h[i]),
            fmt_number(table.pi_star[i]),
        ])
    comments = provenance_lines(cfg.digest(), args.seed, cfg.items)
    comments.append(f"# criterion: {result.criterion}"
                    + (f" param={fmt_number(result.param)}" if result.param is not None else ""))
    atomic_write_text(args.out, render_csv(header, rows, comments))
    print(
        f"selected={len(result.selected)} "
        f"expected_tp={fmt_number(expected_tp)} "
        f"expected_fp={fmt_number(expected_fp)}"
    )
    return 0


def cmd_simulate(args) -> int:
    cfg = load_config(args.config)
    synth = _require(cfg, "synth", "synth")
    seed = args.seed if args.seed is not None else 0
    data = generate(synth, args.n, seed)
    comments = provenance_lines(cfg.digest(), seed, cfg.items)
    comments.append(f"# synth_digest: {data.config_digest}")
    names = [f"f{i:06d}" for i in range(synth.n_features)]
    atomic_write_text(
        args.out, render_dataset(data.values, data.labels, names, comments)
    )
    root, ext = os.path.splitext(args.out)
    truth_path = f"{root}.truth{ext or '.csv'}"
    truth_rows = [[names[i], tag] for i, tag in enumerate(data.truth)]
    atomic_write_text(
        truth_path, render_csv(["feature", "tag"], truth_rows, comments)
    )
    return 0


def cmd_consistency(args) -> int:
    cfg = load_config(args.config)
    synth = _require(cfg, "synth", "synth")
    if cfg.n_grid is None:
        raise ConfigInvalid("config is missing the [plan] section")
    plan = ExperimentPlan(
        synth=synth, n_grid=cfg.n_grid, replicates=cfg.replicates,
        methods=cfg.methods, base_seed=cfg.base_seed,
    )
    rows = run_plan(plan, threads=args.threads)
    os.makedirs(args.out, exist_ok=True)
    comments = provenance_lines(cfg.digest(), plan.base_seed, cfg.items)
    comments.append(f"# synth_digest: {synth.digest()}")
    header = [
        "n", "method", "mean_correct", "sd_correct", "mean_selected",
        "mean_true_positives", "mean_false_positives", "mean_degenerate",
    ]
    csv_rows = [
        [
            str(r.n), r.method, fmt_number(r.mean_correct),
            fmt_number(r.sd_correct), fmt_number(r.mean_selected),
            fmt_number(r.mean_true_positives),
            fmt_number(r.mean_false_positives),
            fmt_number(r.mean_degenerate),
        ]
        for r in rows
    ]
    atomic_write_text(
        os.path.join(args.out, "metrics.csv"),
        render_csv(header, csv_rows, comments),
    )
    series = []
    for method in plan.methods:
        pts = [(r.n, r.mean_correct) for r in rows if r.method == method.name]
        series.append((method.name, pts))
    svg = line_chart(
        series, xlabel="sample size n", ylabel="mean correctly labeled features",
        title="Selection consistency",
    )
    atomic_write_text(os.path.join(args.out, "consistency.svg"), svg)
    return 0


def cmd_roc(args) -> int:
    cfg = load_config(args.config)
    table = _load_table(args, cfg)
    curve = roc(table)
    comments = provenance_lines(cfg.digest(), args.seed, cfg.items)
    rows = [
        [str(k), fmt_number(x), fmt_number(y)]
        for k, (x, y) in enumerate(curve.points)
    ]
    atomic_write_text(
        f"{args.out}.csv",
        render_csv(
            ["k", "expected_false_positives", "expected_true_positives"],
            rows, comments,
        ),
    )
    svg = line_chart(
        [("ranking", list(curve.points))],
        xlabel="expected false positives", ylabel="expected true positives",
        title="Selection ROC",
    )
    atomic_write_text(f"{args.out}.svg", svg)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="obf",
        description="Bayesian feature screening toolkit",
    )
    parser.add_argument("--version", action="version", version=f"obf {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=False, needs_n=False):
        if needs_input:
            p.add_argument("input", help="dataset CSV (or ranked CSV where supported)")
        p.add_argument("--config", required=True, help="run configuration file")
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", required=True, help="output path")
        p.add_argument("--threads", type=int, default=1,
                       help="worker processes (0 = auto)")
        p.add_argument("--label-column", default="label")
        p.add_argument("--transpose", action="store_true",
                       help="dataset has features in rows")
        if needs_n:
            p.add_argument("--n", type=int, required=True,
                           help="number of samples to generate")

    p = sub.add_parser("rank", help="score and rank every feature")
    common(p, needs_input=True)
    p.set_defaults(func=cmd_rank)

    p = sub.add_parser("select", help="apply a selection criterion")
    common(p, needs_input=True)
    p.set_defaults(func=cmd_select)

    p = sub.add_parser("simulate", help="generate a synthetic dataset")
    common(p, needs_n=True)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("consistency", help="run a sample-size sweep")
    common(p)
    p.set_defaults(func=cmd_consistency)

    p = sub.add_parser("roc", help="emit the expected TP/FP curve")
    common(p, needs_input=True)
    p.set_defaults(func=cmd_roc)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (DatasetParseError, EmptyClass) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except (ConfigInvalid, ImproperPrior, BadSize, TooLarge, NotPD,
            DegenerateData, ValueError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except AllDegenerate as err:
        print(f"error: {err}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
