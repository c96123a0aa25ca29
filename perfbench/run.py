"""Benchmark of the five obf commands on one workload, end to end or traced.

    python3 perfbench/run.py --workload wide --seed 1 --seconds 40 --trace 0

Run from anywhere; the program is taken from ``src/`` next to this
directory. Set-up makes the workload's dataset from ``--seed``. A round then
runs ``simulate``, ``rank``, ``select``, ``roc`` (several times, since one
run is mostly interpreter start-up) and ``consistency``, each as its own ``obf``
process started by ``launcher.py``, timed by wall clock, with the peak RSS
of its process tree taken from ``os.wait4``. A run makes the workload's
minimum of rounds, then more while another fits in ``--seconds`` of
measured time. Every output is checked apart from the program (see
``checks.py``); later rounds must reproduce the first round's bytes.

With ``--trace 1`` the commands run once each in this process through
``obf.cli.main``, with the wrappers of ``tracing.py`` installed, and the
per-layer metrics are printed instead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import functools  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402

from workloads import WORKLOADS, grid_values  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")
COMMANDS = ("simulate", "rank", "select", "roc", "consistency")
# roc is mostly interpreter start-up, so a moment's load moves one run of it;
# a run makes six runs of it, spread over its rounds, and reports the median
ROC_RUNS = 6
# what the commands write, compared byte for byte between rounds
OUTPUTS = (
    "simulated.csv", "simulated.truth.csv", "ranked.csv", "selected.csv",
    "select.stdout", "curve.csv", "curve.svg", "sweep/metrics.csv",
    "sweep/consistency.svg",
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="make further rounds while one more fits")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def feature_names(count):
    return [f"f{i:06d}" for i in range(count)]


def write_features_in_rows(path, data, names):
    """The dataset with one row per feature, read back with --transpose.

    Numbers have 17 significant digits, which parse back to the same
    doubles; this is faster to write than obf's shortest form.
    """
    n = data.values.shape[0]
    row_format = ",".join(["%.17g"] * n)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("probe," + ",".join(f"s{i:04d}" for i in range(n)) + "\n")
        fh.write("label," + ",".join(map(str, data.labels.tolist())) + "\n")
        for name, row in zip(names, data.values.T.tolist()):
            fh.write(f"{name},{row_format % tuple(row)}\n")


def set_up(wl, seed, run_dir):
    """Write the config and make the dataset; returns what the checks need."""
    from obf.synth import desk_config, full_config, generate

    config = {"full": full_config, "desk": desk_config}[wl.synth_preset]()
    with open(os.path.join(run_dir, "run.ini"), "w", encoding="utf-8") as fh:
        fh.write(wl.config_text(seed))
    data = generate(config, wl.n, seed)
    names = feature_names(config.n_features)
    if wl.transpose:
        write_features_in_rows(os.path.join(run_dir, "dataset.csv"), data, names)
    return config, data, names


def command_lines(wl, seed, run_dir, threads, roc_runs):
    """(command, argv) of one round, paths absolute.

    The ``roc_runs`` runs of ``roc`` are spread over three points of the
    round (after ``rank``, ``select`` and ``consistency``), so that its
    samples fall at different times.
    """
    def path(name):
        return os.path.join(run_dir, name)

    cfg = ["--config", path("run.ini")]
    data = path("dataset.csv" if wl.transpose else "simulated.csv")
    flags = ["--transpose"] if wl.transpose else []
    roc = ("roc", ["roc", path("ranked.csv"), *cfg, "--out", path("curve")])
    after_rank, after_select, after_sweep = (
        [roc] * (roc_runs // 3 + (i < roc_runs % 3)) for i in range(3)
    )
    return [
        ("simulate", ["simulate", *cfg, "--n", str(wl.n), "--seed", str(seed),
                      "--out", path("simulated.csv")]),
        ("rank", ["rank", data, *cfg, "--out", path("ranked.csv"), *flags]),
        *after_rank,
        ("select", ["select", data, *cfg, "--out", path("selected.csv"), *flags]),
        *after_select,
        ("consistency", ["consistency", *cfg, "--out", path("sweep"),
                         "--threads", str(threads)]),
        *after_sweep,
    ]


class Launcher:
    """The small process that starts each command (see ``launcher.py``)."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py")],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def run(self, argv, run_dir, stdout_name):
        """(wall seconds, peak RSS in MB, exit code) of one obf process."""
        request = {
            "argv": [sys.executable, "-m", "obf.cli", *argv], "cwd": run_dir,
            "env": dict(os.environ, PYTHONPATH=SRC),
            "stdout": os.path.join(run_dir, stdout_name),
        }
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        return reply["seconds"], reply["rss_mb"], reply["code"]

    def close(self):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=60)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()


def run_traced(lines, run_dir, tracer):
    """Run each command once in this process, under the wrappers.

    Returns (command, wall seconds, exit code) per command.
    """
    import obf.cli
    from tracing import installed

    results = []
    with installed(tracer):
        main = tracer.wrap("cli", obf.cli.main)
        for command, argv in lines:
            tracer.command = command
            out = io.StringIO()
            start = time.perf_counter()
            try:
                with contextlib.redirect_stdout(out):
                    code = main(argv)
            except Exception:
                traceback.print_exc()
                code = -1
            results.append((command, time.perf_counter() - start, code))
            if command == "select":
                with open(os.path.join(run_dir, "select.stdout"), "w",
                          encoding="utf-8") as fh:
                    fh.write(out.getvalue())
    return results


def check_outputs(wl, seed, run_dir, config, data, names):
    """Failures of the independent checks, as 'check: message' strings."""
    import checks

    @functools.cache
    def table(name):
        return checks.read_table(os.path.join(run_dir, name))

    def select_stdout():
        with open(os.path.join(run_dir, "select.stdout"), encoding="utf-8") as fh:
            return fh.read()

    grid = grid_values(wl.n_grid)
    values, labels = data.values, data.labels
    # each check with a function that reads its arguments
    plan = (
        (checks.check_simulate_values, lambda: (
            *checks.read_matrix(os.path.join(run_dir, "simulated.csv")),
            data, names)),
        (checks.check_simulate_truth, lambda: (
            table("simulated.truth.csv"), names, wl.tags)),
        (checks.check_rank_features, lambda: (table("ranked.csv"), names)),
        (checks.check_rank_order, lambda: (table("ranked.csv"),)),
        (checks.check_rank_probabilities, lambda: (table("ranked.csv"),)),
        (checks.check_rank_log_h, lambda: (
            table("ranked.csv"), values, labels, wl.prior, names)),
        (checks.check_rank_welch, lambda: (
            table("ranked.csv"), values, labels, names)),
        (checks.check_select_set, lambda: (
            table("selected.csv"), table("ranked.csv"))),
        (checks.check_select_expected, lambda: (
            select_stdout(), table("ranked.csv"))),
        (checks.check_roc_points, lambda: (table("curve.csv"), table("ranked.csv"))),
        (checks.check_roc_diagonal, lambda: (table("curve.csv"),)),
        (checks.check_roc_monotone, lambda: (table("curve.csv"),)),
        (checks.check_sweep_rows, lambda: (
            table("sweep/metrics.csv"), grid, len(wl.methods))),
        (checks.check_sweep_exact_d, lambda: (table("sweep/metrics.csv"),)),
        (checks.check_sweep_trend, lambda: (table("sweep/metrics.csv"),)),
        (checks.check_sweep_recompute, lambda: (
            table("sweep/metrics.csv"), grid[-1],
            checks.recompute_cells(config, grid[-1], seed, wl.replicates,
                                   wl.top_d))),
    )
    failures = []
    for check, arguments in plan:
        try:
            check(*arguments())
        except Exception as err:  # a missing or malformed output fails its check
            failures.append(f"{check.__name__}: {type(err).__name__}: {err}")
    return failures


def digests(run_dir):
    out = {}
    for name in OUTPUTS:
        try:
            with open(os.path.join(run_dir, name), "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
        except OSError:
            out[name] = None
    return out


def measure(wl, args, run_dir, config, data, names, setup_s, launcher):
    """Untraced rounds; returns (failures, attempted, failed, metrics)."""
    lines = command_lines(wl, args.seed, run_dir, wl.threads,
                          ROC_RUNS // wl.rounds)
    times = {c: [] for c in COMMANDS}
    rss = {c: [] for c in COMMANDS}
    failures, attempted, failed = [], 0, 0
    first = None
    measured = 0.0
    rounds = 0
    while True:
        round_s = 0.0
        for command, argv in lines:
            seconds, peak_mb, code = launcher.run(
                argv, run_dir,
                "select.stdout" if command == "select" else "last.stdout")
            attempted += 1
            failed += code != 0
            round_s += seconds
            times[command].append(seconds)
            rss[command].append(peak_mb)
        measured += round_s
        if first is None:
            failures += check_outputs(wl, args.seed, run_dir, config, data, names)
            first = digests(run_dir)
        else:
            failures += [f"round output {name} differs from the first round's"
                         for name, d in digests(run_dir).items() if d != first[name]]
        rounds += 1
        if rounds >= wl.rounds and measured + round_s > args.seconds:
            break
    metrics = {"setup_s": {"value": setup_s, "unit": "s"}}
    for c in COMMANDS:
        metrics[f"{c}_s"] = {"value": statistics.median(times[c]), "unit": "s"}
    for c in COMMANDS:
        metrics[f"{c}_rss_mb"] = {"value": statistics.median(rss[c]), "unit": "MB"}
    return failures, attempted, failed, metrics


def trace(wl, args, run_dir, config, data, names):
    """One traced pass; returns (failures, attempted, failed, metrics)."""
    from tracing import Tracer

    tracer = Tracer()
    lines = command_lines(wl, args.seed, run_dir, 1, 1)
    results = run_traced(lines, run_dir, tracer)
    failures = check_outputs(wl, args.seed, run_dir, config, data, names)
    report = {
        "workload": wl.name, "seed": args.seed,
        "wall_s": {command: seconds for command, seconds, _ in results},
        "commands": tracer.by_command(),
    }
    trace_path = os.path.join(RUNS, f"trace-{wl.name}-seed{args.seed}.json")
    with open(trace_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    for command, seconds, _ in results:
        print(f"traced {command}: {seconds:.3f} s", file=sys.stderr)
    print(f"trace written to {trace_path}", file=sys.stderr)
    failed = sum(code != 0 for _, _, code in results)
    return failures, len(results), failed, tracer.metrics()


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "obf", "cli.py")):
        print(f"error: no obf sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    wl = WORKLOADS[args.workload]
    run_dir = os.path.join(RUNS, f"{wl.name}-seed{args.seed}-{os.getpid()}")
    os.makedirs(run_dir)
    # started while this process is still small; see launcher.py
    launcher = None if args.trace else Launcher()
    try:
        config, data, names = set_up(wl, args.seed, run_dir)
        setup_s = time.perf_counter() - _START
        if args.trace:
            outcome = trace(wl, args, run_dir, config, data, names)
        else:
            outcome = measure(wl, args, run_dir, config, data, names, setup_s,
                              launcher)
    finally:
        if launcher is not None:
            launcher.close()
        shutil.rmtree(run_dir, ignore_errors=True)
    failures, attempted, failed, metrics = outcome
    for failure in failures:
        print(f"check failed: {failure}", file=sys.stderr)
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
