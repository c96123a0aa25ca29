"""Per-layer spans of the traced run, recorded from outside the program.

Timing and counting wrappers go on the names that callers look up at call
time: the module attributes of ``obf.cli`` and ``obf.harness``, and the
methods of ``obf.rng.Stream`` (which ``obf.synth`` builds) and of
``obf.selection.ScoreTable``. Nothing under ``src/`` changes, and the
wrappers are removed when the run ends.

Where spans nest, a layer is charged its self time: its span's duration
minus the time of the spans it opened. Spans are totalled in memory per
(command, layer), so a breakdown per command stays available.

No function that runs once per cell (``fmt_number``, ``parse_float``) is
wrapped: ``simulate`` makes 4M such calls and the wrapper would swamp them.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager


def _calls(args):
    return 1


def _file_size(args):
    return os.path.getsize(args[0])


def _features(args):
    return int(args[1].mean0.shape[0])


_READ = (("dataio.files_read", _calls), ("dataio.bytes_read", _file_size))
_SCORED = (("bayes.features_scored", _features),)

# attribute looked up by obf.cli -> (layer, counters)
CLI_SPANS = {
    "read_dataset": ("dataio.read_dataset", _READ),
    "read_csv_text": ("dataio.read_csv_text", _READ),
    "render_csv": ("dataio.render", ()),
    "render_dataset": ("dataio.render", ()),
    "atomic_write_text": ("dataio.write", (("dataio.bytes_written", _file_size),)),
    "generate": ("synth.generate", ()),
    "matrix_stats": ("bayes.matrix_stats", ()),
    "log_h_table": ("bayes.log_h_table", _SCORED),
    "welch_t_array": ("baselines.welch", ()),
    "welch_df_array": ("baselines.welch", ()),
    "bd_array": ("baselines.bd", ()),
    "wilks_array": ("baselines.wilks", ()),
    "mi_array": ("baselines.mi", ()),
    "student_t_two_sided_p": ("special.welch_p", (("special.welch_p_calls", _calls),)),
    "select_mr": ("selection.rule", ()),
    "select_mnc": ("selection.rule", ()),
    "select_cmnc": ("selection.rule", ()),
    "select_np": ("selection.rule", ()),
    "roc": ("selection.rule", ()),
    "line_chart": ("svgplot.line_chart", ()),
    "run_plan": ("harness", ()),
}
# attribute looked up by obf.harness inside each sweep cell
HARNESS_SPANS = {
    "generate": ("synth.generate", (("harness.cells", _calls),)),
    "matrix_stats": ("bayes.matrix_stats", ()),
    "log_h_table": ("bayes.log_h_table", _SCORED),
    "welch_t_array": ("baselines.welch", ()),
    "bd_array": ("baselines.bd", ()),
    "wilks_array": ("baselines.wilks", ()),
    "mi_array": ("baselines.mi", ()),
}
STREAM_SPANS = {
    "__init__": ("rng.stream_init", (("synth.streams", _calls),)),
    "normals": ("rng.draws", ()),
    "uniforms": ("rng.draws", ()),
    "permutation": ("rng.permutation", ()),
}

# per-layer metric -> layer whose self time it sums; "cli" is the span of
# the whole command, so its self time is what no wrapped layer took
TIME_METRICS = {
    "cli.self_s": "cli",
    "dataio.read_dataset_s": "dataio.read_dataset",
    "dataio.read_csv_text_s": "dataio.read_csv_text",
    "dataio.render_s": "dataio.render",
    "dataio.write_s": "dataio.write",
    "synth.generate_s": "synth.generate",
    "rng.stream_init_s": "rng.stream_init",
    "rng.draws_s": "rng.draws",
    "rng.permutation_s": "rng.permutation",
    "bayes.matrix_stats_s": "bayes.matrix_stats",
    "bayes.log_h_table_s": "bayes.log_h_table",
    "baselines.welch_s": "baselines.welch",
    "baselines.bd_s": "baselines.bd",
    "baselines.wilks_s": "baselines.wilks",
    "baselines.mi_s": "baselines.mi",
    "special.welch_p_s": "special.welch_p",
    "selection.table_s": "selection.table",
    "selection.rule_s": "selection.rule",
    "harness.self_s": "harness",
    "svgplot.line_chart_s": "svgplot.line_chart",
}
COUNT_METRICS = {
    "dataio.files_read": "count",
    "dataio.bytes_read": "B",
    "dataio.bytes_written": "B",
    "synth.streams": "count",
    "bayes.features_scored": "count",
    "special.welch_p_calls": "count",
    "harness.cells": "count",
}


class Tracer:
    """Self time and call counts per (command, layer), plus named counters."""

    def __init__(self):
        self.command = None
        self.layers = {}   # (command, layer) -> [calls, total_s, self_s]
        self.counts = {}   # (command, counter) -> amount
        self._open = []    # time spent in the children of each open span

    def wrap(self, layer, fn, counters=()):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._open.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = time.perf_counter() - start
                children = self._open.pop()
                if self._open:
                    self._open[-1] += took
                rec = self.layers.setdefault((self.command, layer), [0, 0.0, 0.0])
                rec[0] += 1
                rec[1] += took
                rec[2] += took - children
            for name, amount in counters:
                key = (self.command, name)
                self.counts[key] = self.counts.get(key, 0) + amount(args)
            return result
        return traced

    def metrics(self) -> dict:
        """Every per-layer metric, summed over the commands."""
        out = {}
        for metric, layer in TIME_METRICS.items():
            total = sum(rec[2] for (_, lay), rec in self.layers.items()
                        if lay == layer)
            out[metric] = {"value": total, "unit": "s"}
        for metric, unit in COUNT_METRICS.items():
            total = sum(v for (_, name), v in self.counts.items() if name == metric)
            out[metric] = {"value": total, "unit": unit}
        return out

    def by_command(self) -> dict:
        """The spans and counters of each command, for the trace file."""
        out = {}
        for (command, layer), (calls, total, own) in self.layers.items():
            out.setdefault(command, {"layers": {}, "counts": {}})["layers"][layer] = {
                "calls": calls, "total_s": total, "self_s": own,
            }
        for (command, name), value in self.counts.items():
            out.setdefault(command, {"layers": {}, "counts": {}})["counts"][name] = value
        return out


@contextmanager
def installed(tracer: Tracer):
    """Install the wrappers for the length of a ``with`` block."""
    import obf.cli
    import obf.harness
    from obf.rng import Stream
    from obf.selection import ScoreTable

    saved = []

    def patch(owner, attr, wrapped):
        saved.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapped)

    try:
        for module, spans in ((obf.cli, CLI_SPANS), (obf.harness, HARNESS_SPANS)):
            for attr, (layer, counters) in spans.items():
                patch(module, attr, tracer.wrap(layer, getattr(module, attr), counters))
        for attr, (layer, counters) in STREAM_SPANS.items():
            patch(Stream, attr, tracer.wrap(layer, vars(Stream)[attr], counters))
        from_arrays = vars(ScoreTable)["from_arrays"].__func__
        patch(ScoreTable, "from_arrays",
              classmethod(tracer.wrap("selection.table", from_arrays)))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
