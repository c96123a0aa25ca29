"""File formats and configuration parsing.

All delimited output is comma-separated UTF-8 with LF line endings, '.'
decimals, and '#'-prefixed comment lines. Numbers are written in their
shortest round-trip decimal form, byte for byte ``repr``'s, so re-parsing
reproduces bit-identical values. Arrays of them are formatted in numpy: the
digits come from Ryu's method in exact integer arithmetic, and each layout
is one gather into a byte matrix; zero, subnormal and non-finite cells and
magnitudes outside [2**-37, 2**54) go to ``repr`` one by one. Every output
file starts with a provenance header (tool version, config digest, seed)
and echoes the resolved configuration. Writes go through a temp file and
rename, so readers never observe partial output; a dataset is rendered into
it row by row, never as one string.

A dataset file is opened once. Its data lines are cut into line-aligned
byte ranges, up to one per usable CPU, and each range is one pass of numpy's
C parser (``obf.segments``): the first in this process, the others in
forked workers that send their numbers through a pipe straight into place.
Label cells and feature names are split off as text. A range that parser
rejects is read line by line under ``float()``'s grammar by the process
that owns it, which names the row and column of its first error; only a
byte that is not UTF-8 has the file read again, in text mode, to name it.
The reading process peaks at the matrix plus its own range's share of it.

Run configuration is flat INI: sections [prior], [selection], [synth],
[plan]; unknown sections or keys are errors, not warnings.
"""

from __future__ import annotations

import configparser
import hashlib
import math
import os
import tempfile
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from . import segments
from ._version import __version__
from .bayes import NIWHyper, PriorSpec, jp_prior, pp_prior
from .errors import AllDegenerate, ConfigInvalid, DatasetParseError, OutputError
from .harness import parse_method
from .selection import CRITERIA, Rule, ScoreTable, parse_rule
from .synth import SynthConfig, desk_config, full_config


def fmt_number(x) -> str:
    """Shortest decimal that round-trips; blank for NaN."""
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    x = float(x)
    if math.isnan(x):
        return ""
    return repr(x)


# ---------------------------------------------------------------------------
# repr's text of whole float64 arrays
#
# A double x with biased exponent e and mantissa m is a * 2**e2, where
# a = 4 * (2**52 + m) and e2 = e - 1077. Ryu (Adams, PLDI 2018) takes
# q = log10Pow5(-e2) - (-e2 > 1) and i = -e2 - q, so that x / 10**-i is
# a * 5**i / 2**q, and finds the shortest decimal between the floors
#   vm < vr < vp  of  (a - 2, a, a + 2) * 5**i / 2**q
# (a - 1 in place of a - 2 for a power of two). Where q <= _SCALE, the
# multiplier n = 5**i * 2**(_SCALE - q) is an integer, so the floors come
# without error: vr = a * n >> _SCALE, from 31-bit limbs in int64. That
# covers 2**-37 <= |x| < 2**54; zero, subnormal and non-finite cells and the
# magnitudes outside go to repr one by one. Only integer operations make the
# bytes, so they cannot depend on which SIMD kernels numpy picks.
#
# Ryu's trailing-zero flags mark the floors that drop nothing. vr drops
# nothing where the bits below _SCALE are zero, and then removed digits of 5
# and zeros are a tie, which rounds to even. A bound drops nothing only where
# q <= 1 (|x| >= 2**50); there, scaled, it ends in 5, or in 0 after an odd
# digit with vr a multiple of 10 inside the interval. So whether such a
# bound is inside never changes the digits removed or the rounding, and its
# flag is left out.
# ---------------------------------------------------------------------------

_LIMB = 31
_LIMB_MASK = (1 << _LIMB) - 1
_SCALE = 2 * _LIMB
_LOW_MASK = (1 << _SCALE) - 1
_E_MAX = 1076  # the largest biased exponent with e2 < 0, so |x| < 2**54


def _pow5_table():
    """Rows indexed by _E_MAX - e, down to the last e with q <= _SCALE: the
    decimal exponent -i, the three limbs of n, and 2 * n split at _SCALE."""
    rows = []
    for e in range(_E_MAX, 0, -1):
        e2 = e - 1077
        q = ((-e2 * 732923) >> 20) - (e2 < -1)  # Ryu's log10Pow5
        if q > _SCALE:
            break
        i = -e2 - q
        n = 5 ** i << (_SCALE - q)
        rows.append([-i, n & _LIMB_MASK, n >> _LIMB & _LIMB_MASK, n >> _SCALE,
                     2 * n >> _SCALE, 2 * n & _LOW_MASK])
    return np.array(rows, dtype=np.int64).T.copy()


_E10, _N0, _N1, _N2, _TWICE_HIGH, _TWICE_LOW = _pow5_table()
_E_MIN = _E_MAX - _E10.size + 1
_POW10 = 10 ** np.arange(19, dtype=np.int64)


def _bounds(bits, e):
    """Ryu's vr, vp and vm, and whether vr is exact, for biased exponents e
    in [_E_MIN, _E_MAX]."""
    k = _E_MAX - e
    m = bits & ((1 << 52) - 1)
    vr, low = _times_pow5((m | (1 << 52)) << 2, k)
    # a * n is vr * 2**_SCALE + low; adding or taking 2 * n moves vr by its
    # high part, and by one more where the low parts carry or borrow
    high, twice_low = _TWICE_HIGH[k], _TWICE_LOW[k]
    vp = vr + high + ((low + twice_low) >> _SCALE)
    vm = vr - high - (low < twice_low)
    pow2 = np.flatnonzero(m == 0)
    if pow2.size:
        # a power of two has the nearer lower neighbour: (a - 1) * n
        at = k[pow2]
        n_low = _N0[at] | (_N1[at] << _LIMB)
        vm[pow2] = vr[pow2] - _N2[at] - (low[pow2] < n_low)
    return vr, vp, vm, low == 0


def _times_pow5(a, k):
    """(a * n >> _SCALE, a * n & _LOW_MASK) for the table's n at k."""
    n0, n1, n2 = _N0[k], _N1[k], _N2[k]
    lo = a & _LIMB_MASK
    hi = a >> _LIMB
    c = lo * n0
    low = c & _LIMB_MASK
    c >>= _LIMB
    c += lo * n1
    c += hi * n0
    low |= (c & _LIMB_MASK) << _LIMB
    c >>= _LIMB
    c += lo * n2
    c += hi * n1
    c += (hi * n2) << _LIMB
    return c, low


def _shortest(bits, e):
    """(digits, decimal exponent, digit count) of the shortest round-trip
    decimal of each double, given its bits and biased exponent in
    [_E_MIN, _E_MAX]; the closest such decimal where several are shortest."""
    vr, vp, vm, exact = _bounds(bits, e)
    # Ryu's loop removes r digits, r the largest s with a multiple of 10**s
    # in (vm, vp], and rounds vr there: up where the removed digits are half
    # or more (an exact half to even), or where vr met vm.
    r = np.zeros_like(vr)
    for s in range(1, 19):
        vp //= 10
        more = vp * 10 ** s > vm
        if not more.any():
            break
        r += more
    p10 = _POW10[r]
    sig = vr // p10
    rem = vr - sig * p10
    half = 2 * rem - p10
    even_tie = (half == 0) & exact & (sig % 2 == 0)
    sig += (vr - rem <= vm) | ((half >= 0) & ~even_tie)
    count = 17 + (vr >= 10 ** 17) + (vr >= 10 ** 18) - r
    count += sig >= _POW10[count]
    r += _E10[_E_MAX - e]
    return sig, r, count


# A cell's text is a gather from these columns: the 17 digit places
# (right-aligned), then constants and the exponent.
_MINUS, _POINT, _ZERO, _E, _XSIGN, _X1, _X0, _SEP, _NUL = range(17, 26)
_CELL = 25  # the longest repr of a float64, 24 characters, and a separator


def _template(neg, decpt, count):
    """The columns of repr's text, then ',' and NUL padding, of a cell with
    this sign, decimal point position and digit count."""
    d = list(range(17 - count, 17))
    cols = [_MINUS] if neg else []
    if decpt <= -4 or decpt > 16:
        cols += d[:1] + ([_POINT] + d[1:] if count > 1 else [])
        cols += [_E, _XSIGN, _X1, _X0]
    elif decpt <= 0:
        cols += [_ZERO, _POINT] + [_ZERO] * -decpt + d
    elif decpt < count:
        cols += d[:decpt] + [_POINT] + d[decpt:]
    else:
        cols += d + [_ZERO] * (decpt - count) + [_POINT, _ZERO]
    cols.append(_SEP)
    return cols + [_NUL] * (_CELL - len(cols))


# by sign, decimal point position clipped to -4..17, and digit count 1..17
_LAYOUTS = (2, 22, 17)


def _templates():
    """The template of each layout, by its flat index in _LAYOUTS."""
    out = np.empty((*_LAYOUTS, _CELL), dtype=np.uint8)
    for neg, decpt, count in np.ndindex(*_LAYOUTS):
        out[neg, decpt, count] = _template(neg, decpt - 4, count + 1)
    return out.reshape(-1, _CELL)


_TEMPLATES = _templates()


def _fast_cells(bits, e):
    """``_repr_cells`` of cells with biased exponents in [_E_MIN, _E_MAX]."""
    sig, decpt, count = _shortest(bits, e)
    decpt += count
    layout = np.ravel_multi_index(
        (bits < 0, np.clip(decpt, -4, 17) + 4, count - 1), _LAYOUTS
    ).astype(np.int16)
    # one constant column gather per layout, over the cells sorted by layout
    order = np.argsort(layout, kind="stable")
    src = _columns(sig[order], decpt[order] - 1)
    layout = layout[order]
    cells = np.empty((layout.size, _CELL), dtype=np.uint8)
    starts = np.flatnonzero(np.diff(layout, prepend=-1)).tolist()
    for a, b in zip(starts, [*starts[1:], layout.size]):
        np.take(src[a:b], _TEMPLATES[layout[a]], axis=1, out=cells[a:b])
    out = np.empty_like(cells)
    out.view(f"V{_CELL}")[order] = cells.view(f"V{_CELL}")
    return out


def _columns(sig, x10):
    """The columns that templates gather from, for cells with digits
    ``sig`` (below 10**17) and decimal exponent ``x10`` in d.ddd form."""
    src = np.empty((sig.size, _NUL + 1), dtype=np.uint8)
    src[:, _MINUS:] = np.frombuffer(b"-.0e+00,\0", dtype=np.uint8)
    # the first digit, then 8 pairs from the 4-digit quads of two halves
    first = sig // 10 ** 16
    src[:, 0] = first + 48
    sig = sig - first * 10 ** 16
    halves = np.empty((sig.size, 2), dtype=np.uint32)
    halves[:, 0] = sig // 10 ** 8
    halves[:, 1] = sig - halves[:, 0] * np.int64(10 ** 8)
    quads = np.empty((sig.size, 4), dtype=np.uint32)
    quads[:, 0::2] = halves // 10000
    quads[:, 1::2] = halves - quads[:, 0::2] * 10000
    pairs = np.empty((sig.size, 8), dtype=np.uint8)
    pairs[:, 0::2] = quads // 100
    pairs[:, 1::2] = quads - pairs[:, 0::2] * np.uint32(100)
    tens = pairs // 10
    src[:, 1:17:2] = tens + 48
    src[:, 2:17:2] = pairs - tens * np.uint8(10) + np.uint8(48)
    at = np.flatnonzero((x10 < -4) | (x10 > 15))
    if at.size:
        x10 = x10[at]
        src[at[x10 < 0], _XSIGN] = ord("-")
        x10 = np.abs(x10)
        src[at, _X1] += (x10 // 10).astype(np.uint8)
        src[at, _X0] += (x10 % 10).astype(np.uint8)
    return src


def _repr_cells(x):
    """Row i: the ASCII of ``repr(x[i])``, then ',' and NUL padding, for a
    1-D float64 array ``x``."""
    x = np.ascontiguousarray(x, dtype=np.float64)
    bits = x.view(np.int64)
    e = (bits >> 52) & 0x7FF
    fast = (e >= _E_MIN) & (e <= _E_MAX)
    if fast.all():
        return _fast_cells(bits, e)
    cells = np.zeros((x.size, _CELL), dtype=np.uint8)
    at = np.flatnonzero(fast)
    if at.size:
        cells[at] = _fast_cells(bits[at], e[at])
    for i in np.flatnonzero(~fast).tolist():
        text = repr(float(x[i])).encode("ascii") + b","
        cells[i, :len(text)] = np.frombuffer(text, dtype=np.uint8)
    return cells


def fmt_column(values) -> list:
    """``fmt_number`` of each element of a float array, in one pass."""
    x = np.asarray(values, dtype=np.float64).ravel()
    cells = _repr_cells(x)
    blank = np.isnan(x)
    cells[blank] = 0
    cells[blank, 0] = ord(",")
    return cells.tobytes().translate(None, b"\0").decode("ascii").split(",")[:-1]


def atomic_write_text(path, text) -> None:
    """Write ``text`` to ``path`` through a temporary file and a rename.

    ``text`` is a string, or an iterable of chunks that are strings or
    ASCII bytes; strings are encoded as UTF-8. Raises ``OutputError`` when
    the path cannot be written. No temporary file is left behind, and the
    target is untouched, when the write fails or the chunks raise.
    """
    directory = os.path.dirname(os.path.abspath(path)) or "."
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-obf-")
        with os.fdopen(fd, "wb") as fh:
            for chunk in (text,) if isinstance(text, str) else text:
                fh.write(chunk.encode("utf-8") if isinstance(chunk, str) else chunk)
            # mkstemp makes the file 0600 and os.replace keeps the mode, so
            # give it the mode open() would: 0666 less the umask
            umask = os.umask(0)
            os.umask(umask)
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException as err:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)
        if isinstance(err, OSError):
            reason = err.strerror or err
            raise OutputError(f"cannot write {path}: {reason}") from None
        raise


def provenance_lines(config_digest: str, seed, extra_items=None) -> list:
    lines = [
        f"# tool: obf {__version__}",
        f"# config_digest: {config_digest}",
        f"# seed: {seed if seed is not None else 'none'}",
    ]
    if extra_items:
        for key in sorted(extra_items):
            # a value continued over several lines stays a block of comments
            first, *rest = str(extra_items[key]).split("\n")
            lines.append(f"# config.{key}={first}")
            lines.extend(f"#   {line}" for line in rest)
    return lines


def render_csv(header, rows, comments) -> str:
    lines = [*comments, ",".join(header), *map(",".join, rows)]
    return "\n".join(lines) + "\n"


@contextmanager
def open_text(path):
    """``path`` opened as UTF-8 text. A failure to open or to decode it, on
    any read inside the block, raises ``DatasetParseError``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            yield fh
    except (OSError, UnicodeDecodeError) as err:
        reason = getattr(err, "strerror", None) or err
        raise DatasetParseError(f"cannot read {path}: {reason}") from None


def data_lines(fh, comments=None):
    """The lines of an open CSV file that are neither blank nor '#' comments,
    without line endings; comment lines go to ``comments`` when given."""
    for raw in fh:
        line = raw.rstrip("\n").rstrip("\r")
        if line.startswith("#"):
            if comments is not None:
                comments.append(line)
        elif line:
            yield line


def read_csv_text(path, fh=None):
    """(header, data rows, comment lines) of a '#'-commented CSV file.

    ``fh``, when given, is ``path`` already opened by ``open_text``; it is
    read from its start. Every data row has as many cells as the header.
    Error positions count the header as row 1 and skip blank and comment
    lines.
    """
    if fh is None:
        with open_text(path) as fh:
            return read_csv_text(path, fh)
    fh.seek(0)
    comments = []
    header = None
    rows = []
    for line in data_lines(fh, comments):
        row = line.split(",")
        if header is None:
            header = row
        elif len(row) == len(header):
            rows.append(row)
        else:
            raise DatasetParseError(
                f"{path}: expected {len(header)} cells, found {len(row)}",
                row=len(rows) + 2, column=len(row),
            )
    if header is None:
        raise DatasetParseError(f"{path}: no header row")
    return header, rows, comments


# ---------------------------------------------------------------------------
# Datasets (samples in rows, features in columns, one {0,1} label column)
# ---------------------------------------------------------------------------


def read_dataset(path, label_column: str = "label", transpose: bool = False,
                 fh=None):
    """Parse a dataset file into (values, labels, feature_names).

    With ``transpose=True`` the file follows the features-in-rows microarray
    convention: the header names the samples, each data row is a feature,
    and the row named ``label_column`` holds the class labels. ``fh``, when
    given, is ``path`` already opened by ``open_text``.

    ``obf.segments`` reads it (see there) and names each error's row and
    column; ``read_csv_text`` names a byte that is not UTF-8.
    """
    if fh is None:
        with open_text(path) as fh:
            return read_dataset(path, label_column, transpose, fh)
    try:
        return segments.read(path, fh.fileno(), label_column, transpose)
    except UnicodeDecodeError:
        # a ragged row before the byte, or else the byte itself
        read_csv_text(path, fh)
        raise


def _float_or_nan(cell) -> float:
    try:
        return float(cell)
    except ValueError:
        return math.nan


def table_from_ranked(path, header, rows) -> ScoreTable:
    """Scores of the ``ok`` rows of a ranked file; each must carry numbers
    and an id no other ``ok`` row has."""
    needed = ("feature", "log_h", "pi_star", "log1m_pi_star", "status")
    missing = [name for name in needed if name not in header]
    if missing:
        raise DatasetParseError(f"{path}: ranked file lacks columns {missing}")
    feature, *scored, status = (header.index(name) for name in needed)
    ok = [i for i, row in enumerate(rows) if row[status] == "ok"]
    if not ok:
        raise AllDegenerate("ranked file contains no scorable features")
    # one list per score column: far smaller than one small list per row
    cells = [[rows[i][c] for i in ok] for c in scored]
    try:
        scores = np.array(cells, dtype=np.float64)
    except ValueError:
        scores = np.array([[_float_or_nan(cell) for cell in col] for col in cells])
    if np.isnan(scores).any():
        k, m = np.argwhere(np.isnan(scores.T))[0]
        raise DatasetParseError(
            f"{path}: ok row has no number in {needed[m + 1]}: {cells[m][k]!r}",
            row=ok[k] + 2, column=scored[m] + 1,
        )
    ids = [rows[i][feature] for i in ok]
    if len(set(ids)) < len(ids):
        first = {}
        for k, fid in enumerate(ids):
            if first.setdefault(fid, k) != k:
                raise DatasetParseError(
                    f"{path}: feature {fid!r} has a second ok row",
                    row=ok[k] + 2, column=feature + 1,
                )
    return ScoreTable.from_arrays(ids, *scores)


# cells formatted at a time: a few MB of temporaries
_RENDER_CELLS = 1 << 14


def render_dataset(values, labels, feature_names, comments):
    """The dataset CSV as UTF-8 chunks: the header, then one chunk per row,
    formatted ``_RENDER_CELLS`` cells at a time; a cell's text is
    ``fmt_number``'s (``repr``) on finite values."""
    header = "\n".join([*comments, ",".join([*feature_names, "label"])]) + "\n"
    yield header.encode("utf-8")
    step = max(1, _RENDER_CELLS // (values.shape[1] + 1))
    for start in range(0, values.shape[0], step):
        block = values[start:start + step]
        rows = _repr_cells(block.ravel()).reshape(len(block), -1)
        for row, label in zip(rows, labels[start:start + step].tolist()):
            yield row.tobytes().translate(None, b"\0") + b"%d\n" % label


# ---------------------------------------------------------------------------
# Run configuration
# ---------------------------------------------------------------------------

_PRIOR_KEYS = {
    "preset", "pi", "logl",
    "s0", "kappa0", "m0", "nu0",
    "s1", "kappa1", "m1", "nu1",
    "sb", "kappab", "mb", "nub",
}
_SELECTION_KEYS = {"criterion", *(k for keys in CRITERIA.values() for k in keys)}
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


@dataclass
class RunConfig:
    prior: Optional[PriorSpec] = None
    selection: Optional[Rule] = None
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
    if ":" not in raw:
        return tuple(_as_int("plan", "n_grid", b) for b in raw.split(","))
    bits = raw.split(":")
    if len(bits) != 3:
        raise ConfigInvalid("[plan] n_grid range must be start:stop:step")
    start, stop, step = (_as_int("plan", "n_grid", b) for b in bits)
    if step <= 0:
        raise ConfigInvalid(f"[plan] n_grid step must be > 0, got {step}")
    return tuple(range(start, stop + 1, step))


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
        sec = dict(cp["selection"])
        cfg.selection = parse_rule(sec.pop("criterion", None), sec, "[selection]")
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
        if not methods:
            raise ConfigInvalid("[plan] methods must be non-empty")
        cfg.methods = methods
    return cfg
