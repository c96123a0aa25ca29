"""File formats and configuration parsing.

All delimited output is comma-separated UTF-8 with LF line endings, '.'
decimals, and '#'-prefixed comment lines. Numbers are written in their
shortest round-trip decimal form, so re-parsing reproduces bit-identical
values. Every output file starts with a provenance header (tool version,
config digest, seed) and echoes the resolved configuration. Writes go
through a temp file and rename, so readers never observe partial output.

Run configuration is flat INI: sections [prior], [selection], [synth],
[plan]; unknown sections or keys are errors, not warnings.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
import tempfile
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ._version import __version__
from .bayes import NIWHyper, PriorSpec, jp_prior, pp_prior
from .errors import ConfigInvalid, DatasetParseError
from .harness import parse_method
from .selection import LossSpec
from .synth import SynthConfig, desk_config, full_config


def fmt_number(x) -> str:
    """Shortest decimal that round-trips; blank for missing."""
    if x is None:
        return ""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


def atomic_write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-obf-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
            # mkstemp makes the file 0600 and os.replace keeps the mode, so
            # give it the mode open() would: 0666 less the umask
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def provenance_lines(config_digest: str, seed, extra_items=None) -> list:
    lines = [
        f"# tool: obf {__version__}",
        f"# config_digest: {config_digest}",
        f"# seed: {seed if seed is not None else 'none'}",
    ]
    if extra_items:
        for key in sorted(extra_items):
            lines.append(f"# config.{key}={extra_items[key]}")
    return lines


def render_csv(header, rows, comments) -> str:
    out = list(comments)
    out.append(",".join(header))
    for row in rows:
        out.append(",".join(row))
    return "\n".join(out) + "\n"


def read_csv_text(path):
    """(header, data rows, comment lines) of a '#'-commented CSV file."""
    comments = []
    header = None
    rows = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            for raw in fh:
                line = raw.rstrip("\n").rstrip("\r")
                if not line:
                    continue
                if line.startswith("#"):
                    comments.append(line)
                    continue
                if header is None:
                    header = line.split(",")
                else:
                    rows.append(line.split(","))
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise DatasetParseError(f"cannot read {path}: {reason}") from None
    if header is None:
        raise DatasetParseError(f"{path}: no header row")
    return header, rows, comments


# ---------------------------------------------------------------------------
# Datasets (samples in rows, features in columns, one {0,1} label column)
# ---------------------------------------------------------------------------


def read_dataset(path, label_column: str = "label", transpose: bool = False):
    """Parse a dataset file into (values, labels, feature_names).

    With ``transpose=True`` the file follows the features-in-rows microarray
    convention: the header names the samples, each data row is a feature,
    and the row named ``label_column`` holds the class labels.
    """
    header, rows, _ = read_csv_text(path)
    return dataset_from_rows(header, rows, path, label_column, transpose)


def dataset_from_rows(header, rows, path, label_column: str = "label",
                      transpose: bool = False):
    """``read_dataset`` on the header and rows ``read_csv_text`` gave.

    ``path`` only names the file in error messages.
    """
    if transpose:
        names = [r[0] if r else "" for r in rows]
        width = len(header)
        for i, r in enumerate(rows):
            if len(r) != width:
                raise DatasetParseError(
                    f"{path}: ragged row", row=i + 2, column=len(r)
                )
        header = names
        # the file's columns become sample rows; column 0 holds the names
        rows = [list(col) for col in zip(*rows)][1:]

    def position(sample_i, cell_j):
        """1-based (row, column) of a cell in the file's own orientation."""
        if transpose:
            return cell_j + 2, sample_i + 2
        return sample_i + 2, cell_j + 1

    if label_column not in header:
        raise DatasetParseError(f"{path}: no {label_column!r} column")
    label_idx = header.index(label_column)
    feature_names = [h for i, h in enumerate(header) if i != label_idx]
    if len(set(feature_names)) != len(feature_names):
        raise DatasetParseError(f"{path}: duplicate feature names")
    n = len(rows)
    values = np.empty((n, len(feature_names)), dtype=np.float64)
    labels = np.empty(n, dtype=np.int8)
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DatasetParseError(
                f"{path}: expected {len(header)} cells, found {len(row)}",
                row=i + 2, column=len(row),
            )
        col = 0
        for j, cell in enumerate(row):
            r_pos, c_pos = position(i, j)
            if j == label_idx:
                if cell not in ("0", "1"):
                    raise DatasetParseError(
                        f"{path}: label must be 0 or 1, found {cell!r}",
                        row=r_pos, column=c_pos,
                    )
                labels[i] = int(cell)
                continue
            try:
                v = float(cell)
            except ValueError:
                raise DatasetParseError(
                    f"{path}: not a number: {cell!r}",
                    row=r_pos, column=c_pos,
                ) from None
            if not math.isfinite(v):
                raise DatasetParseError(
                    f"{path}: non-finite value {cell!r}",
                    row=r_pos, column=c_pos,
                )
            values[i, col] = v
            col += 1
    n1 = int(np.count_nonzero(labels))
    if n1 < 2 or n - n1 < 2:
        raise DatasetParseError(f"{path}: need at least 2 samples per class")
    return values, labels, feature_names


def render_dataset(values, labels, feature_names, comments) -> str:
    header = list(feature_names) + ["label"]
    rows = []
    for i in range(values.shape[0]):
        cells = [fmt_number(v) for v in values[i]]
        cells.append(str(int(labels[i])))
        rows.append(cells)
    return render_csv(header, rows, comments)


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_PRIOR_KEYS = {
    "preset", "pi", "logl",
    "s0", "kappa0", "m0", "nu0",
    "s1", "kappa1", "m1", "nu1",
    "sb", "kappab", "mb", "nub",
}
_SELECTION_KEYS = {"criterion", "t", "d", "alpha", "lambdas"}
_SYNTH_KEYS = {
    "preset", "n_features", "n_global", "n_hetero", "n_lowvar", "n_highvar",
    "block_size", "rho", "n_groups", "group_sigmas", "n_subclasses",
    "mu1_pattern",
}
_PLAN_KEYS = {"n_grid", "replicates", "base_seed", "methods"}
_SECTIONS = {
    "prior": _PRIOR_KEYS,
    "selection": _SELECTION_KEYS,
    "synth": _SYNTH_KEYS,
    "plan": _PLAN_KEYS,
}

_PRIOR_PRESETS = {"pp": pp_prior, "jp": jp_prior}


def _preset_values(spec: PriorSpec) -> dict:
    """A preset prior as [prior] keys; logl only where it is not derived."""
    vals = {"pi": spec.pi}
    for suffix, block in (("0", spec.good0), ("1", spec.good1), ("b", spec.bad)):
        vals.update({f"{key}{suffix}": v for key, v in block.to_dict().items()})
    if not spec.is_proper:
        vals["logl"] = spec.logL
    return vals


@dataclass(frozen=True)
class SelectionSettings:
    criterion: str
    loss: Optional[LossSpec] = None
    d: Optional[int] = None
    alpha: Optional[float] = None


@dataclass
class RunConfig:
    prior: Optional[PriorSpec] = None
    selection: Optional[SelectionSettings] = None
    synth: Optional[SynthConfig] = None
    n_grid: Optional[tuple] = None
    replicates: Optional[int] = None
    base_seed: Optional[int] = None
    methods: Optional[tuple] = None
    items: dict = field(default_factory=dict)

    def digest(self) -> str:
        payload = "\n".join(f"{k}={self.items[k]}" for k in sorted(self.items))
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _as_float(section, key, raw):
    try:
        return float(raw)
    except ValueError:
        raise ConfigInvalid(f"[{section}] {key}: not a number: {raw!r}") from None


def _as_int(section, key, raw):
    try:
        return int(raw)
    except ValueError:
        raise ConfigInvalid(f"[{section}] {key}: not an integer: {raw!r}") from None


def _build_prior(sec: dict) -> PriorSpec:
    preset = sec.get("preset", "custom")
    if preset in _PRIOR_PRESETS:
        vals = _preset_values(_PRIOR_PRESETS[preset]())
    elif preset == "custom":
        vals = {}
    else:
        raise ConfigInvalid(f"[prior] unknown preset {preset!r}")
    for key, raw in sec.items():
        if key == "preset":
            continue
        vals[key] = _as_float("prior", key, raw)

    def block(suffix: str) -> NIWHyper:
        try:
            s = vals[f"s{suffix}"]
            kappa = vals[f"kappa{suffix}"]
            nu = vals[f"nu{suffix}"]
        except KeyError as err:
            raise ConfigInvalid(f"[prior] missing key {err.args[0]}") from None
        try:
            return NIWHyper(s=s, kappa=kappa, m=vals.get(f"m{suffix}"), nu=nu)
        except ValueError as err:
            raise ConfigInvalid(f"[prior] block {suffix}: {err}") from None

    if "pi" not in vals:
        raise ConfigInvalid("[prior] missing key pi")
    try:
        return PriorSpec(
            good0=block("0"), good1=block("1"), bad=block("b"),
            pi=vals["pi"], logL=vals.get("logl"),
        )
    except ValueError as err:
        raise ConfigInvalid(f"[prior] {err}") from None


def _build_selection(sec: dict) -> SelectionSettings:
    criterion = sec.get("criterion")
    if criterion not in ("mr", "mnc", "cmnc", "np"):
        raise ConfigInvalid(f"[selection] unknown criterion {criterion!r}")
    try:
        if criterion == "mr":
            if "lambdas" in sec:
                parts = [float(p) for p in sec["lambdas"].split(",")]
                if len(parts) != 4:
                    raise ConfigInvalid(
                        "[selection] lambdas needs gg,gb,bg,bb"
                    )
                loss = LossSpec(*parts)
            elif "t" in sec:
                t = _as_float("selection", "t", sec["t"])
                if not 0.0 <= t <= 1.0:
                    raise ConfigInvalid("[selection] T must lie in [0, 1]")
                loss = LossSpec(0.0, t, 1.0 - t, 0.0)
            else:
                raise ConfigInvalid("[selection] mr needs t or lambdas")
            return SelectionSettings(criterion="mr", loss=loss)
        if criterion == "mnc":
            return SelectionSettings(criterion="mnc")
        if criterion == "cmnc":
            if "d" not in sec:
                raise ConfigInvalid("[selection] cmnc needs d")
            return SelectionSettings(
                criterion="cmnc", d=_as_int("selection", "d", sec["d"])
            )
        if "alpha" not in sec:
            raise ConfigInvalid("[selection] np needs alpha")
        alpha = _as_float("selection", "alpha", sec["alpha"])
        if alpha < 0.0:
            raise ConfigInvalid("[selection] alpha must be >= 0")
        return SelectionSettings(criterion="np", alpha=alpha)
    except ValueError as err:
        raise ConfigInvalid(f"[selection] {err}") from None


def _build_synth(sec: dict) -> SynthConfig:
    preset = sec.get("preset")
    if preset == "full":
        base = full_config().to_dict()
    elif preset == "desk":
        base = desk_config().to_dict()
    elif preset is None:
        base = {}
    else:
        raise ConfigInvalid(f"[synth] unknown preset {preset!r}")
    for key, raw in sec.items():
        if key == "preset":
            continue
        if key == "group_sigmas":
            pairs = []
            for chunk in raw.split(","):
                bits = chunk.split(":")
                if len(bits) != 2:
                    raise ConfigInvalid(
                        "[synth] group_sigmas must be s0:s1 pairs"
                    )
                pairs.append(
                    (
                        _as_float("synth", key, bits[0]),
                        _as_float("synth", key, bits[1]),
                    )
                )
            base[key] = pairs
        elif key in ("rho",):
            base[key] = _as_float("synth", key, raw)
        elif key == "mu1_pattern":
            base[key] = raw
        else:
            base[key] = _as_int("synth", key, raw)
    try:
        config = SynthConfig.from_dict(base)
    except TypeError as err:
        raise ConfigInvalid(f"[synth] {err}") from None
    config.validate()
    return config


def _parse_grid(raw: str) -> tuple:
    raw = raw.strip()
    if ":" in raw:
        bits = raw.split(":")
        if len(bits) != 3:
            raise ConfigInvalid("[plan] n_grid range must be start:stop:step")
        start, stop, step = (int(b) for b in bits)
        return tuple(range(start, stop + 1, step))
    return tuple(int(b) for b in raw.split(","))


def load_config(path) -> RunConfig:
    """Parse and resolve a run configuration file, strictly."""
    # ';' stays out of the comment prefixes: it separates method entries
    cp = configparser.ConfigParser(
        interpolation=None, inline_comment_prefixes=("#",)
    )
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cp.read_file(fh)
    except OSError as err:
        raise ConfigInvalid(f"cannot read config {path}: {err}") from None
    except configparser.Error as err:
        raise ConfigInvalid(f"bad config {path}: {err}") from None

    cfg = RunConfig()
    for section in cp.sections():
        if section not in _SECTIONS:
            raise ConfigInvalid(f"unknown config section [{section}]")
        known = _SECTIONS[section]
        for key in cp[section]:
            if key not in known:
                raise ConfigInvalid(f"unknown key {key!r} in [{section}]")
            cfg.items[f"{section}.{key}"] = cp[section][key]

    if cp.has_section("prior"):
        cfg.prior = _build_prior(dict(cp["prior"]))
    if cp.has_section("selection"):
        cfg.selection = _build_selection(dict(cp["selection"]))
    if cp.has_section("synth"):
        cfg.synth = _build_synth(dict(cp["synth"]))
    if cp.has_section("plan"):
        sec = dict(cp["plan"])
        try:
            cfg.n_grid = _parse_grid(sec["n_grid"])
            cfg.replicates = _as_int("plan", "replicates", sec["replicates"])
            cfg.base_seed = _as_int(
                "plan", "base_seed", sec.get("base_seed", "0")
            )
            methods = tuple(
                parse_method(m) for m in sec["methods"].split(";") if m.strip()
            )
        except KeyError as err:
            raise ConfigInvalid(f"[plan] missing key {err.args[0]}") from None
        except ValueError as err:
            raise ConfigInvalid(f"[plan] {err}") from None
        if not methods:
            raise ConfigInvalid("[plan] methods must be non-empty")
        cfg.methods = methods
    return cfg
