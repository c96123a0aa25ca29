"""Command-line interface: rank, select, simulate, consistency, roc.

Exit codes: 0 all requested outputs written, 2 input file missing,
unreadable or malformed, or output path cannot be written, 3 configuration
error (including a prior that leaves no feature scorable at this sample
size), 4 all features degenerate.
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
    data_lines,
    fmt_column,
    fmt_number,
    load_config,
    open_text,
    provenance_lines,
    read_csv_text,
    read_dataset,
    render_csv,
    render_dataset,
    table_from_ranked,
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
    OutputError,
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

    t, _ = welch_t_array(ms)
    welch_p = student_t_two_sided_p(t, welch_df_array(ms))
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
    order = rank_order(scores["log_h"], ok)
    good = ok[order]

    def column(key, only_ok=False):
        values = scores[key][order]
        if only_ok:
            values = np.where(good, values, np.nan)
        return fmt_column(values)

    rank = np.cumsum(good).tolist()
    return list(zip(
        [names[i] for i in order.tolist()],
        column("log_h", True), column("pi_star", True),
        column("log1m_pi_star", True),
        [str(r) if g else "" for r, g in zip(rank, good.tolist())],
        column("welch_t"), column("welch_p"), column("bd"), column("mi"),
        column("log_wilks_lambda"),
        ["ok" if g else "degenerate" for g in good.tolist()],
    ))


def _table_from_dataset(prior, values, labels, names) -> ScoreTable:
    ms = matrix_stats(values, labels)
    lh, pi_star, log1m, ok = log_h_table(prior, ms)
    if not np.any(ok):
        raise AllDegenerate("every feature is degenerate under this prior")
    keep = np.flatnonzero(ok)
    return ScoreTable.from_arrays(
        [names[i] for i in keep], lh[keep], pi_star[keep], log1m[keep]
    )


def _load_table(args, cfg) -> ScoreTable:
    """Scores from a ranked file, or from a dataset scored under [prior].

    The first data line chooses the reader; both read the file already open.
    """
    with open_text(args.input) as fh:
        header = next(data_lines(fh), "").split(",")
        if {"feature", "log_h", "pi_star"} <= set(header):
            header, rows, _ = read_csv_text(args.input, fh)
            return table_from_ranked(args.input, header, rows)
        prior = _require(cfg, "prior", "prior")
        dataset = read_dataset(
            args.input, label_column=args.label_column,
            transpose=args.transpose, fh=fh,
        )
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


def cmd_select(args) -> int:
    cfg = load_config(args.config)
    rule = _require(cfg, "selection", "selection")
    table = _load_table(args, cfg)
    if rule.criterion == "mnc":
        result = select_mnc(table)
    else:
        select = {"mr": select_mr, "cmnc": select_cmnc, "np": select_np}
        result = select[rule.criterion](table, rule.param)
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
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as err:
        raise OutputError(f"cannot write {args.out}: {err.strerror}") from None
    rows = run_plan(plan, threads=args.threads)
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
    except (DatasetParseError, EmptyClass, OutputError) as err:
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
