"""The dataset file contract: number grammar, error positions, rendering."""

import errno
import gc
import math
import os
import pickle
import struct
import subprocess
import sys
import threading
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from obf import dataio, segments, workers
from obf.cli import main
from obf.dataio import (
    atomic_write_text, fmt_column, fmt_number, read_dataset, render_csv,
    render_dataset,
)
from obf.errors import DatasetParseError, OutputError
from oracles import read_dataset_rows

# samples in rows: sample i is file row i + 2, feature j is file column j + 1;
# features in rows: feature j is file row j + 2, sample i is file column i + 2
FEATURES = ["a", "b", "c"]
LABELS = ["0", "0", "0", "1", "1", "1"]
GRID = [
    ["0.5", "1.0", "-2.0"],
    ["0.25", "1.5", "-2.5"],
    ["0.75", "0.5", "-1.0"],
    ["3.0", "1.25", "-2.25"],
    ["3.5", "0.75", "-1.5"],
    ["2.5", "1.0", "-2.0"],
]


def dataset_text(transpose, grid=GRID, labels=LABELS, names=FEATURES,
                 label_name="label", label_at=None):
    """A dataset file in either orientation, from cells by (sample, feature);
    the labels come after feature ``label_at``, or last."""
    at = len(names) if label_at is None else label_at
    columns = [list(col) for col in zip(*grid)]
    columns.insert(at, list(labels))
    names = list(names)
    names.insert(at, label_name)
    if transpose:
        header = ["id"] + [f"s{i + 1}" for i in range(len(grid))]
        rows = [[name] + col for name, col in zip(names, columns)]
    else:
        header = names
        rows = [list(row) for row in zip(*columns)]
    return "\n".join(",".join(r) for r in [header] + rows) + "\n"


def read(tmp_path, text, transpose):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8")
    return read_dataset(str(path), transpose=transpose)


def parse_error(tmp_path, text, transpose):
    with pytest.raises(DatasetParseError) as info:
        read(tmp_path, text, transpose)
    return info.value


def file_position(transpose, sample, cell):
    """(row, column) in the file of a sample's cell; cell 3 is the label."""
    if transpose:
        return cell + 2, sample + 2
    return sample + 2, cell + 1


def with_cell(sample, feature, text):
    grid = [list(row) for row in GRID]
    grid[sample][feature] = text
    return grid


ORIENTATIONS = pytest.mark.parametrize(
    "transpose", [False, True], ids=["samples-in-rows", "features-in-rows"]
)


@ORIENTATIONS
def test_reads_both_orientations_alike(tmp_path, transpose):
    values, labels, names = read(tmp_path, dataset_text(transpose), transpose)
    assert names == FEATURES
    assert labels.dtype == np.int8 and labels.tolist() == [0, 0, 0, 1, 1, 1]
    assert values.dtype == np.float64 and values.flags.c_contiguous
    assert values.tolist() == [[float(c) for c in row] for row in GRID]


@ORIENTATIONS
def test_numbers_follow_float_grammar(tmp_path, transpose):
    cells = ["1_0", "１", " 7 ", "+.5", "-0.0", "5e-324"]
    grid = [[cell, "1.0", "2.0"] for cell in cells]
    text = dataset_text(transpose, grid=grid)
    values, _, _ = read(tmp_path, text, transpose)
    expected = np.array([float(cell) for cell in cells], dtype=np.float64)
    assert values[:, 0].tobytes() == expected.tobytes()


@ORIENTATIONS
@pytest.mark.parametrize("cell", ["oops", "0x1", "", "1 2", "1#2", "1\x1c"])
def test_not_a_number(tmp_path, transpose, cell):
    text = dataset_text(transpose, grid=with_cell(2, 1, cell))
    err = parse_error(tmp_path, text, transpose)
    assert f"not a number: {cell!r}" in str(err)
    assert (err.row, err.column) == file_position(transpose, 2, 1)


@ORIENTATIONS
@pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
def test_non_finite(tmp_path, transpose, cell):
    text = dataset_text(transpose, grid=with_cell(4, 2, cell))
    err = parse_error(tmp_path, text, transpose)
    assert "non-finite" in str(err)
    assert (err.row, err.column) == file_position(transpose, 4, 2)


@ORIENTATIONS
@pytest.mark.parametrize("cell", ["2", "1.0", " 1", ""])
def test_label_not_0_or_1(tmp_path, transpose, cell):
    labels = list(LABELS)
    labels[3] = cell
    err = parse_error(tmp_path, dataset_text(transpose, labels=labels), transpose)
    assert "label must be 0 or 1" in str(err)
    assert (err.row, err.column) == file_position(transpose, 3, 3)


@ORIENTATIONS
def test_ragged_row(tmp_path, transpose):
    lines = dataset_text(transpose).splitlines()
    # drop the last cell of file row 4
    lines[3] = lines[3].rsplit(",", 1)[0]
    err = parse_error(tmp_path, "\n".join(lines) + "\n", transpose)
    assert (err.row, err.column) == (4, len(lines[3].split(",")))


@ORIENTATIONS
def test_missing_label_column(tmp_path, transpose):
    text = dataset_text(transpose, label_name="class")
    err = parse_error(tmp_path, text, transpose)
    line = "row" if transpose else "column"
    assert f"no 'label' {line}" in str(err)
    assert (err.row, err.column) == (None, None)


@ORIENTATIONS
def test_duplicate_feature_names(tmp_path, transpose):
    text = dataset_text(transpose, names=["a", "b", "a"])
    err = parse_error(tmp_path, text, transpose)
    # the second 'a' is feature 2: file row 4, or file column 3
    if transpose:
        assert "duplicate feature name 'a', first at row 2" in str(err)
        assert (err.row, err.column) == (4, None)
    else:
        assert "duplicate feature name 'a', first at column 1" in str(err)
        assert (err.row, err.column) == (None, 3)


@ORIENTATIONS
def test_second_label_name_is_rejected(tmp_path, transpose):
    # a feature named like the label column is not scored as a feature
    text = dataset_text(transpose, names=["a", "label", "c"])
    err = parse_error(tmp_path, text, transpose)
    if transpose:
        assert "'label' names both row 3 and row 5" in str(err)
        assert (err.row, err.column) == (5, None)
    else:
        assert "'label' names both column 2 and column 4" in str(err)
        assert (err.row, err.column) == (None, 4)


@ORIENTATIONS
@pytest.mark.parametrize("labels", [["0", "0", "0", "0", "0", "1"],
                                    ["1", "1", "1", "1", "1", "1"]])
def test_fewer_than_two_samples_per_class(tmp_path, transpose, labels):
    err = parse_error(tmp_path, dataset_text(transpose, labels=labels), transpose)
    assert "at least 2 samples per class" in str(err)
    assert (err.row, err.column) == (None, None)


def test_render_dataset_matches_fmt_number_join():
    values = np.array([
        [-0.0, 5e-324, 1e16],
        [0.1 + 0.2, -1.7976931348623157e308, 1.0],
    ])
    labels = np.array([0, 1], dtype=np.int8)
    names = ["x", "y", "z"]
    comments = ["# tool: obf test"]
    expected = render_csv(
        names + ["label"],
        [[fmt_number(v) for v in values[i]] + [str(int(labels[i]))]
         for i in range(2)],
        comments,
    )
    rendered = b"".join(render_dataset(values, labels, names, comments))
    assert rendered.decode("utf-8") == expected


def test_fmt_column_matches_fmt_number():
    values = np.array([-0.0, 5e-324, 1e16, 0.1 + 0.2, -1.7976931348623157e308,
                       np.nan, np.inf, -np.inf, 2.0, -1e-300])
    assert fmt_column(values) == [fmt_number(v) for v in values]


# ---------------------------------------------------------------------------
# The array formatter against repr
# ---------------------------------------------------------------------------


def as_floats(patterns):
    return np.array(patterns, dtype=np.uint64).view(np.float64)


def powers_of_ten():
    values = []
    for k in range(-30, 31):
        x = float(f"1e{k}")
        values += [math.nextafter(x, 0.0), x, math.nextafter(x, math.inf)]
    return values


RNG = np.random.default_rng(11)
EDGES = {
    "specials": [0.0, -0.0, 5e-324, -5e-324, as_floats([2**52 - 1])[0],
                 2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, math.nan, math.inf, -math.inf],
    "powers of two": [2.0 ** k for k in range(-1074, 1024)],
    "powers of ten": powers_of_ten(),
    "notation": [1e-4, 1e-5, 9.999999999999999e-05, 0.00010000000000000002,
                 1e16, 9999999999999998.0, 1.0000000000000002e16, 2.0 ** 53,
                 2.0 ** 53 + 2, 2.0 ** 54 - 4, 0.1 + 0.2, -123.456, 0.5],
    "eighths": [k / 8 for k in range(-4000, 4001)],
    "rounded": [round(x, int(d)) for x, d in
                zip(RNG.normal(0, 50, 4000).tolist(), RNG.integers(0, 16, 4000))],
    "exponents": (RNG.normal(size=4000)
                  * 10.0 ** RNG.integers(-40, 40, 4000)).tolist(),
}


@pytest.mark.parametrize("values", EDGES.values(), ids=EDGES.keys())
def test_fmt_column_matches_repr_on_edges(values):
    assert fmt_column(values) == [fmt_number(v) for v in values]
    assert fmt_column(np.negative(values)) == [fmt_number(-v) for v in values]


@settings(max_examples=200, deadline=None)
@given(values=st.lists(st.floats(width=64), max_size=50))
def test_fmt_column_matches_repr_on_any_float(values):
    assert fmt_column(values) == [fmt_number(v) for v in values]


# raw bit patterns, and patterns with an exponent the kernel takes
PATTERNS = st.integers(0, 2**64 - 1) | st.builds(
    lambda sign, e, m: sign << 63 | e << 52 | m, st.integers(0, 1),
    st.integers(dataio._E_MIN, dataio._E_MAX), st.integers(0, 2**52 - 1))


@settings(max_examples=200, deadline=None)
@given(patterns=st.lists(PATTERNS, max_size=50))
def test_fmt_column_matches_repr_on_any_bits(patterns):
    values = as_floats(patterns)
    assert fmt_column(values) == [fmt_number(v) for v in values.tolist()]


def test_render_dataset_across_chunk_boundaries(monkeypatch):
    # 3 cells and a label a row, 2 rows a chunk: the 5 rows end mid-chunk
    monkeypatch.setattr(dataio, "_RENDER_CELLS", 8)
    values = np.array([[0.1, -2.5, 1e-5], [5e-324, 1e16, -0.0], [0.3, 7.0, 1e300],
                       [1e-12, 123.456, 2.0 ** 54], [-1e22, 0.0001, 42.0]])
    labels = np.array([0, 1, 1, 0, 1], dtype=np.int8)
    names = ["x", "y", "z"]
    expected = render_csv(
        [*names, "label"],
        [[*map(fmt_number, row), str(label)]
         for row, label in zip(values.tolist(), labels.tolist())],
        [],
    )
    assert b"".join(render_dataset(values, labels, names, [])).decode() == expected


def test_render_matches_repr_under_reduced_simd_dispatch(tmp_path):
    """The bytes come from integer operations only, so numpy's choice of SIMD
    kernels cannot move a digit."""
    rng = np.random.default_rng(12)
    values = rng.normal(size=(100, 1000)) * 10.0 ** rng.integers(-14, 18, (100, 1000))
    np.save(tmp_path / "values.npy", values)
    script = (
        "import sys, numpy as np\n"
        "from obf.dataio import render_dataset\n"
        "values = np.load(sys.argv[1])\n"
        "labels = np.zeros(len(values), dtype=np.int8)\n"
        "chunks = render_dataset(values, labels, ['f'] * values.shape[1], [])\n"
        "open(sys.argv[2], 'wb').write(b''.join(chunks))\n"
    )
    src = os.path.dirname(os.path.dirname(dataio.__file__))
    env = dict(os.environ, NPY_DISABLE_CPU_FEATURES="AVX512_SPR AVX512_ICL X86_V4",
               PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", script, str(tmp_path / "values.npy"),
                    str(tmp_path / "out.csv")], env=env, check=True, timeout=120)
    rows = [",".join([*map(repr, row), "0"]) for row in values.tolist()]
    expected = ",".join(["f"] * 1000) + ",label\n" + "\n".join(rows) + "\n"
    assert (tmp_path / "out.csv").read_bytes() == expected.encode()


# ---------------------------------------------------------------------------
# The reader against the row-by-row path of tests/oracles.py
# ---------------------------------------------------------------------------


def outcome(read, path, transpose):
    try:
        values, labels, names = read(path, transpose=transpose)
    except DatasetParseError as err:
        return ("error", str(err), err.row, err.column)
    return ("dataset", values.tobytes(), labels.tolist(), names)


CELLS = (
    st.floats(allow_nan=True, allow_infinity=True).map(repr)
    | st.integers(-10**20, 10**20).map(str)
    | st.text("0123456789.eE+-_ #,\t\x0b\x0c\x1c\x1f\xa0　"
              "infatyINFATYx٣１\x00\r\n", max_size=8)
)


@ORIENTATIONS
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(cell=CELLS, sample=st.integers(0, 5), column=st.integers(0, 3))
@example(cell="1_0", sample=0, column=0)
@example(cell="１", sample=1, column=1)
@example(cell="٣", sample=2, column=2)
@example(cell="0_1.5", sample=3, column=0)
@example(cell="1e400", sample=4, column=1)
@example(cell="nan", sample=5, column=2)
@example(cell="1,5", sample=0, column=1)
@example(cell="1\x1c", sample=2, column=0)
@example(cell="1.0", sample=3, column=3)
@example(cell="#", sample=0, column=0)
@example(cell="0\n#", sample=5, column=0)
def test_cell_grammar_matches_row_path(tmp_path, transpose, cell, sample, column):
    """Any cell, at a number or label position: the same bits, or the same
    error at the same row and column, as the row-by-row path; a number's
    bits are those of float()."""
    grid = [list(row) for row in GRID]
    labels = list(LABELS)
    if column == 3:
        labels[sample] = cell
    else:
        grid[sample][column] = cell
    path = tmp_path / "cell.csv"
    path.write_text(dataset_text(transpose, grid=grid, labels=labels),
                    encoding="utf-8")
    got = outcome(read_dataset, str(path), transpose)
    assert got == outcome(read_dataset_rows, str(path), transpose)
    # a cell that starts a comment or breaks a line changes the rows
    intact = not cell.startswith("#") and "\n" not in cell and "\r" not in cell
    if got[0] == "dataset" and column < 3 and intact:
        values = np.frombuffer(got[1]).reshape(len(GRID), len(FEATURES))
        assert struct.pack("<d", values[sample, column]) == struct.pack("<d", float(cell))


# ---------------------------------------------------------------------------
# Edge files
# ---------------------------------------------------------------------------


@ORIENTATIONS
def test_crlf_file_parses(tmp_path, transpose):
    """A line ends at CRLF or at a lone CR as at LF, header included."""
    text = dataset_text(transpose)
    lf = read(tmp_path, text, transpose)
    for end in ("\r\n", "\r"):
        other = read(tmp_path, text.replace("\n", end), transpose)
        assert other[0].tobytes() == lf[0].tobytes()
        assert other[1].tolist() == lf[1].tolist() and other[2] == lf[2]


@ORIENTATIONS
def test_whitespace_line_is_a_ragged_row(tmp_path, transpose):
    lines = dataset_text(transpose).splitlines()
    lines.insert(3, " ")
    err = parse_error(tmp_path, "\n".join(lines) + "\n", transpose)
    assert "found 1" in str(err)
    assert (err.row, err.column) == (4, 1)


@ORIENTATIONS
def test_blank_and_comment_lines_keep_row_numbers(tmp_path, transpose):
    lines = dataset_text(transpose, grid=with_cell(4, 2, "oops")).splitlines()
    for at in (5, 3, 2, 1, 0):
        lines[at:at] = ["", "# note", "#"]
    err = parse_error(tmp_path, "\n".join(lines) + "\n", transpose)
    assert "not a number: 'oops'" in str(err)
    assert (err.row, err.column) == file_position(transpose, 4, 2)


@ORIENTATIONS
@pytest.mark.parametrize("at", [0, 1])
def test_label_column_anywhere(tmp_path, transpose, at):
    columns = [list(col) for col in zip(*GRID)]
    names = list(FEATURES)
    columns.insert(at, list(LABELS))
    names.insert(at, "label")
    if transpose:
        rows = [["id"] + [f"s{i + 1}" for i in range(len(GRID))]]
        rows += [[name] + col for name, col in zip(names, columns)]
    else:
        rows = [names] + [list(row) for row in zip(*columns)]
    text = "\n".join(",".join(r) for r in rows) + "\n"
    values, labels, names = read(tmp_path, text, transpose)
    assert names == FEATURES
    assert labels.tolist() == [0, 0, 0, 1, 1, 1]
    assert values.flags.c_contiguous
    assert values.tolist() == [[float(c) for c in row] for row in GRID]


@ORIENTATIONS
def test_header_only_is_rejected(tmp_path, transpose):
    header = dataset_text(transpose).splitlines()[0]
    parse_error(tmp_path, header + "\n", transpose)


@ORIENTATIONS
@pytest.mark.parametrize("command", ["rank", "select"])
def test_late_undecodable_byte_exits_2(tmp_path, capsys, transpose, command):
    grid = [[repr(0.1 * (i + j)) for j in range(3)] for i in range(6)]
    text = dataset_text(transpose, grid=grid)
    # a comment line long enough to push the bad byte past the first 64 KB
    data = ("# " + "x" * 70000 + "\n" + text).encode("utf-8")
    cut = data.rindex(b",")
    path = tmp_path / "late.csv"
    path.write_bytes(data[:cut] + b",\xff" + data[cut + 1:])
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[prior]\npreset = jp\n[selection]\ncriterion = mnc\n",
                   encoding="utf-8")
    argv = [command, str(path), "--config", str(cfg),
            "--out", str(tmp_path / "out.csv")]
    assert main(argv + ["--transpose"] * transpose) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read") and "late.csv" in err
    assert not (tmp_path / "out.csv").exists()


# ---------------------------------------------------------------------------
# Line-aligned ranges in forked workers against one range
# ---------------------------------------------------------------------------


def many_ranges(monkeypatch, cpus=4, segment=64):
    """Cut even a small file into up to ``cpus`` ranges; returns a list that
    gets one entry per forked worker."""
    monkeypatch.setattr(workers, "PART_BYTES", segment)
    monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
    forks = []
    real_fork = workers.fork
    monkeypatch.setattr(workers, "fork",
                        lambda *args: forks.append(1) or real_fork(*args))
    return forks


def numpy_only(parse):
    """``parse``, failing where a range goes to the float() fallback."""
    def parse_range(*args):
        if args[6:] == (False,):
            raise AssertionError("a range was read by the float() fallback")
        return parse(*args)
    return parse_range


def no_fork():
    raise AssertionError("a file of one range forked a worker")


@st.composite
def dataset_lines(draw, transpose):
    """The bytes of a valid dataset file: the label column (or row) at any
    place, comment and blank lines anywhere, each line ending in LF or
    CRLF, the last one maybe in neither."""
    labels = ["0", "1"] * 2 + draw(st.lists(st.sampled_from("01"), max_size=8))
    labels = draw(st.permutations(labels))
    names = [f"f{j}" for j in range(draw(st.integers(1, 4)))]
    names.insert(draw(st.integers(0, len(names))), "label")
    number = st.floats(allow_nan=False, allow_infinity=False).map(repr)
    columns = [labels if name == "label"
               else draw(st.lists(number, min_size=len(labels), max_size=len(labels)))
               for name in names]
    if transpose:
        lines = ["id," + ",".join(f"s{i}" for i in range(len(labels)))]
        lines += [",".join([name, *col]) for name, col in zip(names, columns)]
    else:
        lines = [",".join(names)] + [",".join(row) for row in zip(*columns)]
    filler = st.sampled_from(["", "#", "# a, comment"]) | st.text(
        st.characters(blacklist_categories=["Cs"], blacklist_characters="\r\n"),
        max_size=90).map(lambda text: "#" + text)
    for at in sorted(draw(st.lists(st.integers(0, len(lines)), max_size=6)),
                     reverse=True):
        lines.insert(at, draw(filler))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n"]),
                            min_size=len(lines), max_size=len(lines)))
    text = "".join(line + end for line, end in zip(lines, endings))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text.encode("utf-8")


@ORIENTATIONS
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), cpus=st.integers(2, 4))
def test_ranges_match_one_range(tmp_path, monkeypatch, transpose, data, cpus):
    """Any split of a valid file into ranges gives the bits, labels and
    names of one range, which forks nothing, and of the row-by-row path;
    no range is read by the float() fallback."""
    path = tmp_path / "ranges.csv"
    path.write_bytes(data.draw(dataset_lines(transpose)))
    one = outcome(read_dataset_rows, str(path), transpose)
    assert one[0] == "dataset"
    with monkeypatch.context() as patch:
        patch.setattr(segments, "_parse_range", numpy_only(segments._parse_range))
        with monkeypatch.context() as single:
            single.setattr(os, "fork", no_fork)
            assert outcome(read_dataset, str(path), transpose) == one
        many_ranges(patch, cpus, segment=data.draw(st.integers(1, 200)))
        assert outcome(read_dataset, str(path), transpose) == one


def forty_samples(tmp_path, transpose, last_cell=None):
    """A file of 40 samples by 12 features, enough lines for 4 ranges in
    either orientation; ``last_cell`` replaces the bytes of the last
    feature of the last sample, which a later range reads."""
    grid = [[repr(0.25 * i + j) for j in range(12)] for i in range(40)]
    grid[-1][-1] = "@@"
    text = dataset_text(transpose, grid=grid, labels=["0", "1"] * 20,
                        names=[f"g{j}" for j in range(12)])
    path = tmp_path / "forty.csv"
    path.write_bytes(text.encode().replace(b"@@", last_cell or b"0.5"))
    return str(path)


FAULTS = {"cell": b"oops", "byte": b"1\xff", "lone CR": b"1\r2"}


@ORIENTATIONS
@pytest.mark.parametrize("fault", list(FAULTS))
def test_fault_in_a_later_range_reads_as_one_range(tmp_path, monkeypatch,
                                                   transpose, fault):
    path = forty_samples(tmp_path, transpose, FAULTS[fault])
    one = outcome(read_dataset, path, transpose)
    assert one[0] == "error"
    forks = many_ranges(monkeypatch)
    assert outcome(read_dataset, path, transpose) == one
    assert len(forks) == 3


# cell text that puts each fault into a file; "@@" becomes a byte that is
# not UTF-8
CELL_FAULTS = {
    "ragged row": st.sampled_from(["1,2", "0.5,"]),
    "bad cell": st.sampled_from(["oops", "nan", "1e400", "", "0x1"]),
    "lone CR": st.sampled_from(["1\r2", "\r", "3\r#"]),
    "non-UTF-8 byte": st.sampled_from(["@@", "1@@"]),
    # not faults: cells float() reads and numpy's parser does not
    "float()-only cell": st.sampled_from(["１", "1_0", "\u30002"]),
}
NAME_FAULTS = ["bad label", "repeated name", "second label name"]


@st.composite
def faulty_file(draw, transpose):
    """The bytes of a 16-sample, 12-feature file, its labels at any place,
    with two faults, each at a random row and column."""
    grid = [[repr(0.5 * i - j) for j in range(12)] for i in range(16)]
    labels = ["0", "1"] * 8
    names = [f"g{j}" for j in range(12)]
    for kind in draw(st.lists(st.sampled_from([*CELL_FAULTS, *NAME_FAULTS]),
                              min_size=2, max_size=2)):
        sample, feature = draw(st.integers(0, 15)), draw(st.integers(0, 11))
        if kind == "bad label":
            labels[sample] = draw(st.sampled_from(["2", "", "1.0"]))
        elif kind == "repeated name":
            names[feature] = names[draw(st.integers(0, 11).filter(lambda j: j != feature))]
        elif kind == "second label name":
            names[feature] = "label"
        else:
            grid[sample][feature] = draw(CELL_FAULTS[kind])
    text = dataset_text(transpose, grid=grid, labels=labels, names=names,
                        label_at=draw(st.integers(0, 12)))
    return text.encode("utf-8").replace(b"@@", b"\xff")


@ORIENTATIONS
@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data(), cpus=st.integers(2, 4))
def test_two_faults_give_the_row_paths_error(tmp_path, monkeypatch, transpose,
                                             data, cpus):
    """Two faults in a file cut into 2-4 ranges: the error text, row and
    column of the row-by-row path, or its bits where there is no error."""
    path = tmp_path / "faults.csv"
    path.write_bytes(data.draw(faulty_file(transpose)))
    expected = outcome(read_dataset_rows, str(path), transpose)
    with monkeypatch.context() as patch:
        forks = many_ranges(patch, cpus, segment=data.draw(st.integers(1, 400)))
        assert outcome(read_dataset, str(path), transpose) == expected
    assert 1 <= len(forks) <= 3


@ORIENTATIONS
@pytest.mark.parametrize("when", ["mid-range", "after sending"])
def test_worker_that_dies_falls_back_to_row_path(tmp_path, monkeypatch,
                                                 transpose, when):
    """The range of a worker that dies mid-range, or after sending its part
    and half its numbers, is parsed again by the parent, with the outcome of
    one range."""
    path = forty_samples(tmp_path, transpose)
    one = outcome(read_dataset, path, transpose)
    assert one[0] == "dataset"

    parent = os.getpid()
    real_lines = segments._range_lines
    real_parse = segments._parse_range
    parsed_here = []

    def dying_mid_range(fd, start, stop):
        for k, line in enumerate(real_lines(fd, start, stop)):
            if k == 1 and os.getpid() != parent:
                os._exit(3)
            yield line

    def dying_after_sending(parse, start, stop, out):
        part = parse(start, stop)
        pickle.dump(part._replace(matrix=None), out)
        out.write(part.matrix.data.cast("B")[:part.matrix.nbytes // 2])
        out.flush()
        os._exit(3)

    def parse(*args):
        if os.getpid() == parent:
            parsed_here.append(args[4:6])
        return real_parse(*args)

    forks = many_ranges(monkeypatch)
    if when == "mid-range":
        monkeypatch.setattr(segments, "_range_lines", dying_mid_range)
    else:
        monkeypatch.setattr(segments, "_send_range", dying_after_sending)
    monkeypatch.setattr(segments, "_parse_range", parse)
    assert outcome(read_dataset, path, transpose) == one
    # the parent's own range, then each dead worker's
    assert len(forks) == 3
    assert len(parsed_here) == 4 and len(set(parsed_here)) == 4


@ORIENTATIONS
def test_parent_exception_kills_and_reaps_workers(tmp_path, monkeypatch, transpose):
    path = forty_samples(tmp_path, transpose)
    parent = os.getpid()

    def stuck_or_failing(fd, start, stop):
        if os.getpid() != parent:
            # only a kill ends this worker in time
            time.sleep(30)
            os._exit(0)
        raise RuntimeError("the parent fails mid-parse")
        yield

    forks = many_ranges(monkeypatch)
    monkeypatch.setattr(segments, "_range_lines", stuck_or_failing)
    start = time.monotonic()
    with pytest.raises(RuntimeError, match="mid-parse"):
        read_dataset(path, transpose=transpose)
    assert time.monotonic() - start < 10
    assert len(forks) == 3
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@ORIENTATIONS
def test_workers_leave_by_os_exit(tmp_path, monkeypatch, transpose):
    """A worker that raises neither returns into the caller nor flushes the
    caller's buffers."""
    path = forty_samples(tmp_path, transpose)
    one = outcome(read_dataset, path, transpose)
    parent = os.getpid()
    real_lines = segments._range_lines

    def failing_in_workers(fd, start, stop):
        if os.getpid() != parent:
            raise RuntimeError("a worker fails")
        yield from real_lines(fd, start, stop)

    forks = many_ranges(monkeypatch)
    monkeypatch.setattr(segments, "_range_lines", failing_in_workers)
    log = tmp_path / "log.txt"
    with open(log, "w", encoding="utf-8") as fh:
        fh.write("unflushed")
        got = outcome(read_dataset, path, transpose)
        if os.getpid() != parent:
            fh.write(" and a worker returned")
            fh.flush()
            os._exit(0)
    assert log.read_text(encoding="utf-8") == "unflushed"
    assert got == one and len(forks) == 3


# ---------------------------------------------------------------------------
# Memory and the writer
# ---------------------------------------------------------------------------


@ORIENTATIONS
def test_parse_peak_is_a_small_multiple_of_the_matrix(tmp_path, transpose):
    """Also where the last row holds a full-width digit, which float() reads
    and numpy's parser does not."""
    rng = np.random.default_rng(5)
    grid = [[repr(v) for v in row] for row in rng.normal(size=(300, 200)).tolist()]
    labels = ["0", "1"] * 150
    names = [f"g{j}" for j in range(200)]
    path = tmp_path / "big.csv"
    for last_cell in (grid[-1][7], "１"):
        grid[-1][7] = last_cell
        path.write_text(dataset_text(transpose, grid=grid, labels=labels, names=names),
                        encoding="utf-8")
        tracemalloc.start()
        try:
            values, _, _ = read_dataset(str(path), transpose=transpose)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        # cell strings alone would take about ten times the matrix
        assert peak < 3 * values.nbytes
        assert values.shape == (300, 200)
        assert values[-1, 7] == float(last_cell)


@ORIENTATIONS
def test_fallback_peak_is_a_small_multiple_of_the_range(tmp_path, transpose):
    """A bad cell in the last line sends the one range of this file to the
    float() fallback, which holds the numbers of the lines before it, not
    their text."""
    rng = np.random.default_rng(7)
    grid = [[repr(v) for v in row] for row in rng.normal(size=(300, 200)).tolist()]
    grid[-1][-1] = "oops"
    path = tmp_path / "bad.csv"
    path.write_text(dataset_text(transpose, grid=grid, labels=["0", "1"] * 150,
                                 names=[f"g{j}" for j in range(200)]),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        with pytest.raises(DatasetParseError, match="not a number: 'oops'"):
            read_dataset(str(path), transpose=transpose)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the lines' text alone takes about 2.5 times the matrix
    assert peak < 3 * 300 * 200 * 8


def test_render_and_write_peak_is_a_chunk(tmp_path, monkeypatch):
    """Also in the parent of three render workers."""
    monkeypatch.setattr(dataio, "_RENDER_CELLS", 1 << 12)
    rng = np.random.default_rng(6)
    values = rng.normal(size=(500, 500))
    labels = np.array([0, 1] * 250, dtype=np.int8)
    names = [f"g{j}" for j in range(500)]
    path = tmp_path / "out.csv"
    expected = render_csv([*names, "label"],
                          [[*map(repr, row), str(label)]
                           for row, label in zip(values.tolist(), labels.tolist())],
                          [])
    forks = many_ranges(monkeypatch, 1, segment=1 << 16)
    for cpus in (1, 3):
        monkeypatch.setattr(workers, "usable_cpus", lambda: cpus)
        tracemalloc.start()
        try:
            atomic_write_text(str(path), render_dataset(values, labels, names, []))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < path.stat().st_size / 5
        assert path.read_text(encoding="utf-8") == expected
    assert len(forks) == 3


# ---------------------------------------------------------------------------
# The render on forked workers against the serial render
# ---------------------------------------------------------------------------


def render_case(columns):
    """7 rows of ``columns`` cells, some of which go to repr one by one, and
    the serial render's bytes: a row is 1 block (``_RENDER_CELLS`` 8) of
    pieces of 8 and 3 cells with 11 columns, 2 rows a block with 3."""
    rng = np.random.default_rng(13)
    values = rng.normal(size=(7, columns)) * 10.0 ** rng.integers(-8, 8, (7, columns))
    for (i, j), cell in zip([(0, 0), (2, 1), (4, -1), (6, 2)],
                            [5e-324, -0.0, 1e300, 2.0 ** 54]):
        values[i, j] = cell
    labels = np.array([0, 1, 1, 0, 1, 0, 1], dtype=np.int8)
    names = [f"g{j}" for j in range(columns)]
    expected = render_csv([*names, "label"],
                          [[*map(fmt_number, row), str(label)]
                           for row, label in zip(values.tolist(), labels.tolist())],
                          ["# c"])
    return (values, labels, names, ["# c"]), expected.encode()


@pytest.mark.parametrize("columns", [3, 11])
@pytest.mark.parametrize("cpus", [1, 2, 3, 4])
def test_render_in_workers_matches_serial(monkeypatch, columns, cpus):
    """Blocks dealt over 1-4 parts, the last group of blocks cut short."""
    monkeypatch.setattr(dataio, "_RENDER_CELLS", 8)
    case, expected = render_case(columns)
    forks = many_ranges(monkeypatch, cpus, segment=1)
    assert b"".join(render_dataset(*case)) == expected
    blocks = 7 if columns == 11 else 4
    assert len(forks) == (cpus > 1) * min(cpus, blocks)


@pytest.mark.parametrize("when", ["before sending", "mid-block"])
def test_render_worker_that_dies_gives_the_same_bytes(monkeypatch, when):
    """The parent formats the blocks a dead worker did not send whole."""
    monkeypatch.setattr(dataio, "_RENDER_CELLS", 8)
    case, expected = render_case(11)
    parent = os.getpid()
    real_send = dataio._send_blocks
    real_block = dataio._render_block
    formatted_here = []

    def dying(block, starts, out):
        if starts[0] != 1:
            real_send(block, starts, out)
            return
        if when == "mid-block":
            # the worker of blocks 1 and 4 sends block 1, then half of 4
            real_send(block, starts[:1], out)
            chunk = block(starts[1])
            out.write(len(chunk).to_bytes(8, "little") + chunk[:len(chunk) // 2])
            out.flush()
        os._exit(3)

    def render_block(*args):
        if os.getpid() == parent:
            formatted_here.append(args[-1])
        return real_block(*args)

    forks = many_ranges(monkeypatch, 3, segment=1)
    monkeypatch.setattr(dataio, "_send_blocks", dying)
    monkeypatch.setattr(dataio, "_render_block", render_block)
    assert b"".join(render_dataset(*case)) == expected
    assert len(forks) == 3
    assert formatted_here == ([4] if when == "mid-block" else [1, 4])


class FullDisk:
    """A file whose third write fails as on a full disk."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def fileno(self):
        return self.fh.fileno()

    def write(self, data):
        self.writes += 1
        if self.writes == 3:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        return self.fh.write(data)


@pytest.mark.parametrize("failing", ["write", "render"])
def test_failing_render_in_workers_leaves_no_temporary_and_no_child(
        tmp_path, monkeypatch, failing):
    """Workers are killed and reaped as the write fails, before the
    failure is handled."""
    monkeypatch.setattr(dataio, "_RENDER_CELLS", 8)
    case, _ = render_case(11)
    path = tmp_path / "target.csv"
    path.write_text("old\n", encoding="utf-8")
    forks = many_ranges(monkeypatch, 3, segment=1)
    if failing == "write":
        real_fdopen = os.fdopen
        monkeypatch.setattr(os, "fdopen", lambda *args: FullDisk(real_fdopen(*args)))
        error, match = OutputError, "No space left"
    else:
        real_received = dataio._received
        received = []

        def failing_third(pipe):
            received.append(1)
            if len(received) == 3:
                raise RuntimeError("render failed")
            return real_received(pipe)

        monkeypatch.setattr(dataio, "_received", failing_third)
        error, match = RuntimeError, "render failed"
    with pytest.raises(error, match=match) as caught:
        atomic_write_text(str(path), render_dataset(*case))
    # the traceback in ``caught`` still holds the render's generator
    assert caught.traceback
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert os.listdir(tmp_path) == ["target.csv"]
    assert path.read_text(encoding="utf-8") == "old\n"
    assert len(forks) == 3


@pytest.mark.parametrize("how", ["close", "drop"])
def test_render_closed_after_a_worker_was_reaped_elsewhere(monkeypatch, how):
    """A wait of the caller's that reaps the first worker leaves the others
    to be killed and reaped, with no error, as the render is closed or
    dropped."""
    monkeypatch.setattr(dataio, "_RENDER_CELLS", 8)
    case, _ = render_case(11)
    many_ranges(monkeypatch, 3, segment=1)
    pids = []
    counted_fork = workers.fork

    def fork(work):
        pid, pipe = counted_fork(work)
        pids.append(pid)
        return pid, pipe

    monkeypatch.setattr(workers, "fork", fork)
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    chunks = render_dataset(*case)
    next(chunks)
    next(chunks)  # the first block: every worker is forked
    assert len(pids) == 3
    os.waitpid(pids[0], 0)
    if how == "close":
        chunks.close()
    else:
        del chunks
        gc.collect()
    assert unraisable == []
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_render_beside_another_thread_forks_nothing(monkeypatch):
    monkeypatch.setattr(dataio, "_RENDER_CELLS", 8)
    case, expected = render_case(11)
    forks = many_ranges(monkeypatch, 4, segment=1)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait, args=(30,))
    thread.start()
    try:
        got = b"".join(render_dataset(*case))
    finally:
        stop.set()
        thread.join(10)
    assert not thread.is_alive()
    assert got == expected and forks == []


class NoIteration(str):
    def __iter__(self):
        raise AssertionError("a str is written whole, not iterated")


def test_write_takes_a_str_whole(tmp_path):
    path = tmp_path / "whole.txt"
    atomic_write_text(str(path), NoIteration("a,b\n1,2\n"))
    assert path.read_text(encoding="utf-8") == "a,b\n1,2\n"


def test_failing_chunks_leave_target_and_no_temporary(tmp_path):
    path = tmp_path / "target.csv"
    path.write_text("old\n", encoding="utf-8")

    def chunks():
        yield "new,"
        raise RuntimeError("render failed")

    with pytest.raises(RuntimeError, match="render failed"):
        atomic_write_text(str(path), chunks())
    assert os.listdir(tmp_path) == ["target.csv"]
    assert path.read_text(encoding="utf-8") == "old\n"


def test_chunked_output_honours_umask(tmp_path):
    path = tmp_path / "chunks.csv"
    previous = os.umask(0o027)
    try:
        atomic_write_text(str(path), iter(["a\n", "b\n"]))
    finally:
        os.umask(previous)
    assert path.stat().st_mode & 0o777 == 0o640
    assert path.read_text(encoding="utf-8") == "a\nb\n"
