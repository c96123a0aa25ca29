"""The benchmark's two workloads and the configuration file each one runs.

Both datasets hold 4M cells (about 79 MB of CSV); only the split between the
cost per feature and the cost per sample differs between them.
"""

from __future__ import annotations

from dataclasses import dataclass

# Every selection rule (MNC under both priors, MR, CMNC, NP) and every
# baseline (Welch t, Bhattacharyya, mutual information, Wilks).
_METHODS = (
    "mnc-obf-jp", "mnc-obf-pp", "mr-obf-{p}:T=0.9", "cmnc-obf-{p}:D={d}",
    "np-obf-{q}:alpha=0.5", "t:D={d}", "bd:D={d}", "mi:D={d}", "wilks:D={d}",
)


@dataclass(frozen=True)
class Workload:
    name: str
    synth_preset: str     # [synth] preset of obf
    n: int                # samples of the dataset that simulate, rank, select see
    transpose: bool       # dataset stored features-in-rows, read with --transpose
    prior: str            # [prior] preset used by rank, select and roc
    n_grid: str           # [plan] n_grid of the consistency sweep
    replicates: int
    threads: int          # worker processes of the untraced consistency run
    top_d: int            # D of the CMNC rule and the top-D baselines
    tags: tuple           # (tag, count) of every feature role in the preset
    rounds: int           # rounds a run makes at least (see run.py)

    @property
    def methods(self) -> tuple:
        other = "pp" if self.prior == "jp" else "jp"
        return tuple(
            m.format(p=self.prior, q=other, d=self.top_d) for m in _METHODS
        )

    def config_text(self, seed: int) -> str:
        """The INI file every command of the workload reads."""
        return (
            f"[prior]\npreset = {self.prior}\n\n"
            "[selection]\ncriterion = mnc\n\n"
            f"[synth]\npreset = {self.synth_preset}\n\n"
            "[plan]\n"
            f"n_grid = {self.n_grid}\n"
            f"replicates = {self.replicates}\n"
            f"base_seed = {seed}\n"
            f"methods = {'; '.join(self.methods)}\n"
        )


WORKLOADS = {
    "wide": Workload(
        name="wide", synth_preset="full", n=200, transpose=True, prior="jp",
        n_grid="20:200:180", replicates=1, threads=1, top_d=100,
        tags=(("GLOBAL", 20), ("HETERO", 80), ("LOWVAR_NULL", 11900),
              ("HIGHVAR_NULL", 8000)),
        rounds=1,
    ),
    "tall": Workload(
        name="tall", synth_preset="desk", n=2000, transpose=False, prior="pp",
        n_grid="200:2000:450", replicates=2, threads=2, top_d=50,
        tags=(("GLOBAL", 10), ("HETERO", 40), ("LOWVAR_NULL", 1150),
              ("HIGHVAR_NULL", 800)),
        rounds=2,
    ),
}


def grid_values(n_grid: str) -> tuple:
    """The sample sizes of a start:stop:step grid, stop included."""
    start, stop, step = (int(b) for b in n_grid.split(":"))
    return tuple(range(start, stop + 1, step))
