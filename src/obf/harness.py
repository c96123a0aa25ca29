"""Consistency and comparison sweeps over the synthetic generator.

A plan fixes a generator config, a grid of sample sizes, a replicate count,
and a list of scoring methods. Every (n, replicate) cell draws its own
dataset from a seed mixed out of (base_seed, n, replicate), so extending the
grid or adding replicates never reshuffles existing cells. Replicates are
independent work units; results are merged by key, which keeps the output
identical across worker counts.

Features whose score is undefined under a method (degenerate under an
improper prior, zero variance for a baseline, every feature under MI where
a class has fewer than 4 points) are counted and treated as not selected; a
sweep never aborts on a single bad probe.

A cell draws its dataset a batch of columns at a time and reduces each
batch as it comes, so a worker holds one batch and a few F-long vectors,
never the n x F matrix.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bayes import (
    MatrixStats, PriorSpec, jp_prior, log_h_table, matrix_stats, pp_prior,
)
from .baselines import (
    MI_MIN_PER_CLASS, bd_array, mi_array, welch_t_array, wilks_array,
)
from .errors import ConfigInvalid
from .rng import replicate_seed
from .selection import Rule, parse_rule, rank_order
# generate is not called here, but stays a name of this module: the
# benchmark's tracer (perfbench/tracing.py) wraps it by name
from .synth import (  # noqa: F401
    GLOBAL, HETERO, SynthConfig, column_batches, generate, layout,
)
from .workers import usable_cpus

OBF_PRESETS = ("pp", "jp")
# head of a baseline method string -> (kind, name)
BASELINES = {"t": ("welch_t", "T-TEST"), "welch": ("welch_t", "T-TEST"),
             "bd": ("bd", "BD"), "mi": ("mi", "MI"), "wilks": ("wilks", "WILKS")}
# how a method name shows each parameter, in this order
_SHOWN = {"t": "T", "d": "D", "alpha": "a", "pi": "pi", "l": "L"}
MARKER_TAGS = (GLOBAL, HETERO)
# glibc's mallopt parameters M_TRIM_THRESHOLD and M_MMAP_THRESHOLD
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3


@dataclass(frozen=True)
class MethodSpec:
    """The filter under a prior, or a baseline's key, cut by a rule."""

    name: str
    kind: str
    rule: Rule
    prior: Optional[PriorSpec] = None


def _prior_for(preset: str, **overrides) -> PriorSpec:
    """A preset prior with its pi and, for jp, its weight L overridden."""
    return (pp_prior if preset == "pp" else jp_prior)(**overrides)


def parse_method(text: str) -> MethodSpec:
    """Parse a compact method string.

    Grammar: ``mnc-obf-pp``, ``mr-obf-jp:T=0.9``, ``cmnc-obf-pp:D=100``,
    ``np-obf-jp:alpha=0.05`` for the Bayesian filter (optionally with
    ``pi=``/``L=`` preset overrides), and ``bd:D=100``, ``t:D=100``,
    ``mi:D=100``, ``wilks:D=100`` for the baselines. The name shows every
    parameter given, e.g. ``NP-OBF-JP(a=0.05;pi=0.01)``.
    """
    text = text.strip()
    where = f"method {text!r}"
    head, _, tail = text.lower().partition(":")
    params = {}
    if tail:
        for kv in tail.split(","):
            key, _, value = kv.partition("=")
            if not value:
                raise ConfigInvalid(f"malformed method parameter {kv!r} in {text!r}")
            params[key.strip()] = value.strip()
    shown = dict(params)

    parts = head.split("-")
    if len(parts) == 3 and parts[1] == "obf" and parts[2] in OBF_PRESETS:
        criterion, _, preset = parts
        kind, label = "obf", head.upper()
        if preset == "pp" and "l" in params:
            raise ConfigInvalid(f"{where}: L override only applies to the jp preset")
        try:
            prior = _prior_for(preset, **{
                name: float(params.pop(name.lower()))
                for name in ("pi", "L") if name.lower() in params
            })
        except ValueError as err:
            raise ConfigInvalid(f"{where}: {err}") from None
    elif head in BASELINES:
        criterion, prior = "cmnc", None
        kind, label = BASELINES[head]
    else:
        raise ConfigInvalid(f"unknown method {text!r}")
    rule = parse_rule(criterion, params, where)
    # D shows as the integer it reads as: D=0100 names the method (D=100)
    if "d" in shown:
        shown["d"] = str(rule.param)
    suffix = ";".join(f"{_SHOWN[k]}={shown[k]}" for k in _SHOWN if k in shown)
    name = f"{label}({suffix})" if suffix else label
    return MethodSpec(name=name, kind=kind, rule=rule, prior=prior)


@dataclass(frozen=True)
class ExperimentPlan:
    synth: SynthConfig
    n_grid: tuple
    replicates: int
    methods: tuple
    base_seed: int = 0

    def __post_init__(self):
        if not self.n_grid:
            raise ConfigInvalid("n_grid must be non-empty")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ConfigInvalid("n_grid must be strictly increasing")
        if any(n < 4 or n % 2 for n in self.n_grid):
            raise ConfigInvalid("n_grid entries must be even and >= 4")
        if self.replicates < 1:
            raise ConfigInvalid("replicates must be >= 1")
        if not self.methods:
            raise ConfigInvalid("methods must be non-empty")
        names = [m.name for m in self.methods]
        twice = [name for name in names if names.count(name) > 1]
        if twice:
            raise ConfigInvalid(f"method {twice[0]} appears more than once")


@dataclass(frozen=True)
class MetricRow:
    n: int
    method: str
    mean_correct: float
    sd_correct: float
    mean_selected: float
    mean_true_positives: float
    mean_false_positives: float
    mean_degenerate: float
    base_seed: int
    config_digest: str


def score_selection(selected, truth, total: int):
    """(correct, true positives, false positives) of a selected set."""
    selected = set(selected)
    truth = set(truth)
    tp = len(selected & truth)
    fp = len(selected - truth)
    correct = total - fp - (len(truth) - tp)
    return correct, tp, fp


def _keep_freed_memory():
    """Have glibc's malloc keep the memory one batch frees for the next.

    A cell allocates and frees temporaries of about a batch (0.5 MB) for
    every batch. By default glibc maps each such block afresh, or gives the
    top of its heap back to the system, and the next batch faults every page
    in again: 45,000 minor faults in five desk cells (n = 200 to 2000),
    against 6,600 when a cell held its matrix, and 1,500 with these
    thresholds. The peak is still one batch's. Other systems are left as
    they are.
    """
    if not sys.platform.startswith("linux"):
        return
    import ctypes

    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, 32 << 20)
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def _replicate_cell(payload):
    """Score every method on one (n, replicate) draw.

    The draw is reduced a batch of columns at a time (``column_batches``):
    each batch's moments, and its spacing MI where a method needs it, go
    into draw-order vectors, which are put in placement order once. The
    n x F matrix is never held.
    """
    config, base_seed, n, rep, methods, probe_preset, probe_tags = payload
    _keep_freed_memory()
    draw = layout(config, n, replicate_seed(base_seed, n, rep))
    nf = config.n_features
    # each class has n / 2 points; with fewer than MI needs, MI scores none
    with_mi = (any(method.kind == "mi" for method in methods)
               and n // 2 >= MI_MIN_PER_CLASS)
    stats, mi = [], []
    for x in column_batches(config, draw):
        # looked up as globals of this module, so that a tracer can wrap them
        stats.append(matrix_stats(x, draw.labels))
        if with_mi:
            mi.append(mi_array(x, draw.labels)[0])
    ms = MatrixStats.joined(stats, draw.inverse)
    truth = {i for i, tag in enumerate(draw.truth) if tag in MARKER_TAGS}

    obf_cache = {}

    def obf_scores(prior: PriorSpec):
        if prior not in obf_cache:
            obf_cache[prior] = log_h_table(prior, ms)
        return obf_cache[prior]

    baseline_cache = {}

    def baseline_key(kind: str):
        if kind not in baseline_cache:
            if kind == "welch_t":
                t, ok = welch_t_array(ms)
                baseline_cache[kind] = (np.abs(t), ok)
            elif kind == "bd":
                baseline_cache[kind] = bd_array(ms)
            elif kind == "mi":
                baseline_cache[kind] = (
                    np.concatenate(mi)[draw.inverse] if with_mi
                    else np.full(nf, np.nan),
                    np.full(nf, with_mi),
                )
            elif kind == "wilks":
                value, ok = wilks_array(ms)
                baseline_cache[kind] = (-value, ok)
        return baseline_cache[kind]

    per_method = {}
    for method in methods:
        if method.kind == "obf":
            key, pi_star, log1m, ok = obf_scores(method.prior)
        else:
            key, ok = baseline_key(method.kind)
            pi_star = log1m = None
        picked = method.rule.cut(rank_order(key, ok), pi_star, log1m, ok)
        correct, tp, fp = score_selection(picked.tolist(), truth, nf)
        per_method[method.name] = (
            correct, tp, fp, picked.size, int(np.count_nonzero(~ok)),
        )

    probe = None
    if probe_preset is not None:
        lh, _, _, ok = obf_scores(_prior_for(probe_preset))
        probe_mask = np.array([t in probe_tags for t in draw.truth], dtype=bool)
        probe = (lh[probe_mask & ok].copy(), lh[~probe_mask & ok].copy())
    return (n, rep), per_method, probe


@dataclass(frozen=True)
class ProbePoint:
    n: int
    median_log_h_truth: Optional[float]
    median_log_h_null: Optional[float]


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    probe: Optional[tuple] = None


def run_sweep(
    plan: ExperimentPlan,
    threads: int = 1,
    probe_preset: Optional[str] = None,
    probe_tags: tuple = MARKER_TAGS,
) -> SweepResult:
    """Execute a plan; optionally track score medians by truth tag.

    ``threads`` worker processes (0 = one per usable CPU) run the cells,
    never more than there are usable CPUs or cells.
    """
    if threads < 0:
        raise ConfigInvalid(f"threads must be 0 (one per CPU) or more, got {threads}")
    plan.synth.validate()
    digest = plan.synth.digest()
    payloads = [
        (plan.synth, plan.base_seed, n, rep, plan.methods, probe_preset, probe_tags)
        for n in plan.n_grid
        for rep in range(plan.replicates)
    ]
    cpus = usable_cpus()
    workers = min(threads or cpus, cpus, len(payloads))
    if workers == 1:
        results = [_replicate_cell(p) for p in payloads]
    else:
        # imported here: it costs every command that runs no sweep ~12 ms
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_replicate_cell, payloads, chunksize=1))
    by_cell = {key: (metrics, probe) for key, metrics, probe in results}

    rows = []
    for n in plan.n_grid:
        for method in plan.methods:
            correct, tp, fp, n_sel, degen = np.array(
                [by_cell[(n, r)][0][method.name] for r in range(plan.replicates)],
                dtype=np.float64,
            ).T
            sd = float(np.std(correct, ddof=1)) if plan.replicates > 1 else 0.0
            rows.append(MetricRow(
                n=n,
                method=method.name,
                mean_correct=float(np.mean(correct)),
                sd_correct=sd,
                mean_selected=float(np.mean(n_sel)),
                mean_true_positives=float(np.mean(tp)),
                mean_false_positives=float(np.mean(fp)),
                mean_degenerate=float(np.mean(degen)),
                base_seed=plan.base_seed,
                config_digest=digest,
            ))

    probe_rows = None
    if probe_preset is not None:
        probe_rows = []
        for n in plan.n_grid:
            truth_vals = np.concatenate(
                [by_cell[(n, r)][1][0] for r in range(plan.replicates)]
            )
            null_vals = np.concatenate(
                [by_cell[(n, r)][1][1] for r in range(plan.replicates)]
            )
            probe_rows.append(ProbePoint(
                n=n,
                median_log_h_truth=(
                    float(np.median(truth_vals)) if truth_vals.size else None
                ),
                median_log_h_null=(
                    float(np.median(null_vals)) if null_vals.size else None
                ),
            ))
        probe_rows = tuple(probe_rows)
    return SweepResult(rows=tuple(rows), probe=probe_rows)


def run_plan(plan: ExperimentPlan, threads: int = 1):
    """Metric rows of a plan, one per (n, method), in plan order."""
    return list(run_sweep(plan, threads=threads).rows)
