"""Consistency and comparison sweeps over the synthetic generator.

A plan fixes a generator config, a grid of sample sizes, a replicate count,
and a list of scoring methods. Every (n, replicate) cell draws its own
dataset from a seed mixed out of (base_seed, n, replicate), so extending the
grid or adding replicates never reshuffles existing cells. Replicates are
independent work units; results are merged by key, which keeps the output
identical across worker counts.

Features whose score is undefined under a method (degenerate under an
improper prior, zero variance for a baseline) are counted and treated as
not selected; a sweep never aborts on a single bad probe.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bayes import jp_prior, log_h_table, matrix_stats, pp_prior
from .baselines import bd_array, mi_array, welch_t_array, wilks_array
from .errors import ConfigInvalid
from .rng import replicate_seed
from .selection import budget_cut, rank_order, threshold_cut, top_cut
from .synth import GLOBAL, HETERO, SynthConfig, generate

OBF_PRESETS = ("pp", "jp")
OBF_CRITERIA = ("mr", "mnc", "cmnc", "np")
BASELINE_KINDS = ("welch_t", "bd", "mi", "wilks")
MARKER_TAGS = (GLOBAL, HETERO)


@dataclass(frozen=True)
class MethodSpec:
    """One scoring method: an OBF preset/criterion or a top-D baseline."""

    name: str
    kind: str
    preset: Optional[str] = None
    criterion: Optional[str] = None
    param: Optional[float] = None
    top_d: Optional[int] = None
    pi: Optional[float] = None
    weight: Optional[float] = None


def parse_method(text: str) -> MethodSpec:
    """Parse a compact method string.

    Grammar: ``mnc-obf-pp``, ``mr-obf-jp:T=0.9``, ``cmnc-obf-pp:D=100``,
    ``np-obf-jp:alpha=0.05`` for the Bayesian filter (optionally with
    ``pi=``/``L=`` preset overrides), and ``bd:D=100``, ``t:D=100``,
    ``mi:D=100``, ``wilks:D=100`` for the baselines.
    """
    t = text.strip().lower()
    head, _, tail = t.partition(":")
    params = {}
    if tail:
        for kv in tail.split(","):
            key, _, value = kv.partition("=")
            if not value:
                raise ConfigInvalid(f"malformed method parameter {kv!r} in {text!r}")
            params[key.strip()] = value.strip()

    def fnum(key):
        try:
            return float(params[key])
        except KeyError:
            raise ConfigInvalid(f"method {text!r} requires {key}=") from None
        except ValueError:
            raise ConfigInvalid(f"bad number for {key} in {text!r}") from None

    pi = float(params["pi"]) if "pi" in params else None
    weight = float(params["l"]) if "l" in params else None

    def reject_extras(allowed):
        extras = set(params) - allowed
        if extras:
            raise ConfigInvalid(
                f"unknown parameter(s) {sorted(extras)} in method {text!r}"
            )

    parts = head.split("-")
    if len(parts) == 3 and parts[1] == "obf":
        criterion, _, preset = parts
        if criterion not in OBF_CRITERIA or preset not in OBF_PRESETS:
            raise ConfigInvalid(f"unknown method {text!r}")
        if preset == "pp" and weight is not None:
            raise ConfigInvalid("L override only applies to the jp preset")
        crit_key = {"mr": {"t"}, "cmnc": {"d"}, "np": {"alpha"}, "mnc": set()}
        reject_extras({"pi", "l"} | crit_key[criterion])
        param = None
        suffix = ""
        if criterion == "mr":
            param = fnum("t")
            suffix = f"(T={params['t']})"
        elif criterion == "cmnc":
            param = int(fnum("d"))
            suffix = f"(D={param})"
        elif criterion == "np":
            param = fnum("alpha")
            suffix = f"(a={params['alpha']})"
        name = f"{criterion.upper()}-OBF-{preset.upper()}{suffix}"
        return MethodSpec(
            name=name, kind="obf", preset=preset, criterion=criterion,
            param=param, pi=pi, weight=weight,
        )

    kinds = {"t": "welch_t", "welch": "welch_t", "bd": "bd", "mi": "mi",
             "wilks": "wilks"}
    if head in kinds:
        reject_extras({"d"})
        d = int(fnum("d"))
        labels = {"welch_t": "T-TEST", "bd": "BD", "mi": "MI", "wilks": "WILKS"}
        kind = kinds[head]
        return MethodSpec(name=f"{labels[kind]}(D={d})", kind=kind, top_d=d)
    raise ConfigInvalid(f"unknown method {text!r}")


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


def _prior_for(method: MethodSpec):
    pi = method.pi if method.pi is not None else 0.005
    if method.preset == "pp":
        return pp_prior(pi)
    weight = method.weight if method.weight is not None else 0.1
    return jp_prior(pi, weight)


def _replicate_cell(payload):
    """Score every method on one generated (n, replicate) dataset."""
    config, base_seed, n, rep, methods, probe_preset, probe_tags = payload
    seed = replicate_seed(base_seed, n, rep)
    data = generate(config, n, seed)
    ms = matrix_stats(data.values, data.labels)
    truth_mask = np.array([t in MARKER_TAGS for t in data.truth], dtype=bool)
    n_truth = int(np.count_nonzero(truth_mask))
    total = config.n_features

    obf_cache = {}

    def obf_scores(method: MethodSpec):
        key = (method.preset, method.pi, method.weight)
        if key not in obf_cache:
            obf_cache[key] = log_h_table(_prior_for(method), ms)
        return obf_cache[key]

    baseline_cache = {}

    def baseline_key(kind: str):
        if kind not in baseline_cache:
            if kind == "welch_t":
                t, ok = welch_t_array(ms)
                baseline_cache[kind] = (np.abs(t), ok)
            elif kind == "bd":
                baseline_cache[kind] = bd_array(ms)
            elif kind == "mi":
                baseline_cache[kind] = mi_array(data.values, data.labels)
            elif kind == "wilks":
                value, ok = wilks_array(ms)
                baseline_cache[kind] = (-value, ok)
        return baseline_cache[kind]

    per_method = {}
    for method in methods:
        if method.kind == "obf":
            lh, pi_star, log1m, ok = obf_scores(method)
            order = rank_order(lh, ok)
            if method.criterion == "np":
                costs = np.where(ok, np.exp(log1m), np.inf)
                picked = budget_cut(order, costs, method.param)
            elif method.criterion == "cmnc":
                picked = top_cut(order, int(method.param), int(np.count_nonzero(ok)))
            else:
                t = 0.5 if method.criterion == "mnc" else method.param
                picked = threshold_cut(order, pi_star, t)
        else:
            key, ok = baseline_key(method.kind)
            picked = top_cut(rank_order(key, ok), method.top_d,
                             int(np.count_nonzero(ok)))
        tp = int(np.count_nonzero(truth_mask[picked]))
        fp = picked.size - tp
        correct = total - fp - (n_truth - tp)
        per_method[method.name] = (
            correct, tp, fp, picked.size, int(np.count_nonzero(~ok)),
        )

    probe = None
    if probe_preset is not None:
        probe_method = MethodSpec(name="probe", kind="obf", preset=probe_preset,
                                  criterion="mnc")
        lh, _, _, ok = obf_scores(probe_method)
        probe_mask = np.array([t in probe_tags for t in data.truth], dtype=bool)
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
    """Execute a plan; optionally track score medians by truth tag."""
    plan.synth.validate()
    digest = plan.synth.digest()
    payloads = [
        (plan.synth, plan.base_seed, n, rep, plan.methods, probe_preset, probe_tags)
        for n in plan.n_grid
        for rep in range(plan.replicates)
    ]
    if threads == 0:
        threads = os.cpu_count() or 1
    if threads == 1 or len(payloads) == 1:
        results = [_replicate_cell(p) for p in payloads]
    else:
        with ProcessPoolExecutor(max_workers=threads) as pool:
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


def posterior_convergence_probe(
    plan: ExperimentPlan,
    preset: str = "jp",
    truth_tags: tuple = MARKER_TAGS,
    threads: int = 1,
):
    """Median score trajectories of marker vs null features across the grid."""
    return list(
        run_sweep(plan, threads=threads, probe_preset=preset,
                  probe_tags=truth_tags).probe
    )
