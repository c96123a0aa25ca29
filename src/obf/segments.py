"""The dataset reader: a file's data lines parsed by numpy, on up to one
process per usable CPU.

The lines after the header are cut into line-aligned byte ranges, read with
``os.pread`` from the file ``obf.dataio.read_dataset`` has open. The first
range is parsed in the calling process and each other one in a forked
worker, which sends its numbers back through a pipe. Each range is one
``np.loadtxt`` pass, or, where numpy rejects it, is read line by line under
``float()``'s grammar by the same process, which names its first ragged line
and bad cell. The checks of the whole file run once, in the calling process.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
import pickle
import signal
import threading
from contextlib import contextmanager
from typing import NamedTuple, Optional

import numpy as np

from .errors import DatasetParseError

# bytes of data lines that make one range, parsed by one process; a file
# gets at most one range per usable CPU
_SEGMENT_BYTES = 4 << 20
# bytes read from a dataset file at a time
_BLOCK_BYTES = 1 << 16

# numpy's parser skips these around a number as spaces; float() rejects them
_NUMPY_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


def usable_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


class _Part(NamedTuple):
    """What a range holds; its rows count its data lines from 0."""
    lines: int
    labels: list  # label cells; with features in rows, each label row's cells
    names: list  # with features in rows, the first cell of each line
    ragged: Optional[tuple]  # (row, column, problem) of its first ragged line
    bad: Optional[tuple]  # (row, column, problem) of its first bad number
    rows: int  # rows of numbers: one a line, but label rows
    matrix: Optional[np.ndarray]  # None while in a worker's pipe


def read(path, fd, label_column, transpose):
    """``obf.dataio.read_dataset`` on ``path``, open as ``fd``. Of several
    ``DatasetParseError``, the first in this order is raised: a ragged row, a
    missing or repeated name, no feature, a bad cell (the first in reading
    order), fewer than 2 samples in a class. A byte that is not UTF-8 raises
    ``UnicodeDecodeError``."""
    size = os.fstat(fd).st_size
    header, body = _header(path, fd, size)
    width = len(header)
    # without a label column the ranges are still read for a ragged row
    at = None if transpose else (
        header.index(label_column) if label_column in header else 0)
    parse = functools.partial(_parse_range, fd, label_column, width, at)
    with _forked() as workers:
        ranges = _ranges(fd, body, size)
        for start, stop in ranges[1:]:
            workers.append(_fork(functools.partial(_send_range, parse, start, stop)))
        parts = [parse(*ranges[0])]
        for (_, pipe), bounds in zip(workers, ranges[1:]):
            try:
                parts.append(pickle.load(pipe))
            except (EOFError, ValueError, pickle.UnpicklingError):
                parts.append(parse(*bounds))  # the worker died
        names = [name for part in parts for name in part.names] if transpose else header
        labels, feature_names = _checked(path, parts, names, label_column, transpose)
        values = np.empty((len(labels), len(feature_names)), dtype=np.float64)
        offset = 0
        for k, part in enumerate(parts):
            parts[k] = None
            if part.matrix is None:
                try:
                    _receive_part(workers[k - 1][1], values, offset, part.rows,
                                  transpose)
                except ValueError:
                    part = parse(*ranges[k])  # the worker died sending
            if part.matrix is not None:
                _place(values, offset, part.matrix, transpose)
            offset += part.rows
    return values, labels, feature_names


def _checked(path, parts, names, label_column, transpose):
    """The labels and feature names, once the whole file's checks pass."""
    ragged, bad, row = [], [], 2  # the header is row 1
    for part in parts:
        ragged += [(row + part.ragged[0], *part.ragged[1:])] if part.ragged else []
        bad += [(row + part.bad[0], *part.bad[1:])] if part.bad else []
        row += part.lines
    for row, column, problem in ragged[:1]:
        raise DatasetParseError(f"{path}: {problem}", row=row, column=column)
    line = "row" if transpose else "column"
    if label_column not in names:
        raise DatasetParseError(f"{path}: no {label_column!r} {line}")
    if len(set(names)) != len(names):
        raise _duplicate_name(path, names, label_column, line)
    if len(names) == 1:
        raise DatasetParseError(f"{path}: no feature {line}s")
    at = names.index(label_column)
    cells = [cell for part in parts for cell in part.labels]
    if transpose:
        cells = cells[0]  # the one label row
    # of the first bad number and the first bad label, the earlier is named
    for k, cell in enumerate(cells):
        if cell not in ("0", "1"):
            spot = (at + 2, k + 2) if transpose else (k + 2, at + 1)
            bad.append((*spot, f"label must be 0 or 1, found {cell!r}"))
            break
    for row, column, problem in sorted(bad)[:1]:
        raise DatasetParseError(f"{path}: {problem}", row=row, column=column)
    labels = np.array([cell == "1" for cell in cells], dtype=np.int8)
    n1 = int(np.count_nonzero(labels))
    if n1 < 2 or len(labels) - n1 < 2:
        raise DatasetParseError(f"{path}: need at least 2 samples per class")
    return labels, names[:at] + names[at + 1:]


def _duplicate_name(path, names, label_column, line):
    """The parse error of the first name in ``names`` seen a second time,
    at the file row (features in rows) or column of that second time."""
    first = {}
    for k, name in enumerate(names):
        seen = first.setdefault(name, k)
        if seen != k:
            # rows count the header as row 1
            before, at = (seen + 2, k + 2) if line == "row" else (seen + 1, k + 1)
            if name == label_column:
                problem = f"{name!r} names both {line} {before} and {line} {at}"
            else:
                problem = f"duplicate feature name {name!r}, first at {line} {before}"
            return DatasetParseError(f"{path}: {problem}", **{line: at})
    raise AssertionError(f"{path}: no name is repeated")


def _header(path, fd, size):
    """The cells of the first line of the file that is neither blank nor a
    comment, and the offset just past its line end."""
    start = 0
    while start < size:
        end = _line_end(fd, start, size)
        for raw in _pread(fd, start, end).splitlines(keepends=True):
            start += len(raw)
            lines = _text_lines(raw)
            if lines:
                return lines[0].split(","), start
    raise DatasetParseError(f"{path}: no header row")


def _ranges(fd, start, size):
    """Line-aligned byte ranges that cover [start, size): one per
    ``_SEGMENT_BYTES``, at most one per usable CPU, and one only where this
    process cannot fork or runs other threads."""
    count = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        count = min(usable_cpus(), -(-(size - start) // _SEGMENT_BYTES))
    cuts = {_line_end(fd, start + k * (size - start) // count, size)
            for k in range(1, count)}
    bounds = [start, *sorted(cuts | {size})]
    return list(zip(bounds, bounds[1:]))


def _line_end(fd, start, size):
    """The offset just past the first LF at or after ``start``, or ``size``."""
    while start < size:
        block = _pread(fd, start, min(start + _BLOCK_BYTES, size))
        found = block.find(b"\n")
        if found >= 0:
            return start + found + 1
        start += len(block)
    return size


def _pread(fd, start, stop):
    block = os.pread(fd, stop - start, start)
    if len(block) != stop - start:
        raise OSError("the file is shorter than it was")
    return block


def _text_lines(block):
    """The lines of UTF-8 ``block`` that are neither blank nor '#' comments,
    without line ends; as in text mode, a line ends at LF, CRLF or a lone
    CR."""
    text = block.decode("utf-8")
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return [line for line in text.split("\n") if line and line[0] != "#"]


def _range_lines(fd, start, stop):
    """``_text_lines`` of bytes [start, stop) of the file, read
    ``_BLOCK_BYTES`` at a time and cut just after an LF."""
    pending = []
    while start < stop:
        block = _pread(fd, start, min(start + _BLOCK_BYTES, stop))
        start += len(block)
        cut = block.rfind(b"\n") + 1 if start < stop else len(block)
        if not cut:
            pending.append(block)
            continue
        pending.append(block[:cut])
        yield from _text_lines(b"".join(pending))
        pending = [block[cut:]]


def _parse_range(fd, label_column, width, at, start, stop, numpy=True):
    """The ``_Part`` of the data lines in bytes [start, stop) of a file
    whose header has ``width`` cells; ``at`` is the label column's index,
    or None where the file has features in rows.

    Lines go to one ``np.loadtxt`` pass, but those numpy may read unlike
    ``float()`` (not ASCII, or with a space only numpy skips) go as zeros and
    then to ``float()``. Where a cell is rejected, every line goes to
    ``float()``, which names the first bad one. Lines past a ragged one are
    only decoded.
    """
    labels, names, odd = [], [], []
    zeros = ",".join(["0"] * (width - (at is None)))
    rows, ragged, bad = 0, None, None

    def numbers():
        nonlocal rows, ragged
        for k, line in enumerate(_range_lines(fd, start, stop)):
            if ragged or line.count(",") != width - 1:
                found = line.count(",") + 1
                ragged = ragged or (k, found, f"expected {width} cells, found {found}")
                continue
            if at is None:
                name, _, line = line.partition(",")
                names.append(name)
                if name == label_column:
                    labels.append(line.split(","))
                    continue
            elif 2 * at < width:
                labels.append(line.split(",", at + 1)[at])
            else:
                labels.append(line.rsplit(",", width - at)[1])
            if not (numpy and line.isascii()) or any(
                    space in line for space in _NUMPY_ONLY_SPACES):
                odd.append((rows, k, line))
                line = zeros
            rows += 1
            yield line

    try:
        lines = numbers()
        first = next(lines, None) if numpy else None
        if first is None or width < 2:
            # no lines for loadtxt, which warns of input with no rows
            for _ in lines:
                pass
            matrix = np.empty((rows, width - 1))
        else:
            columns = None if at is None else [k for k in range(width) if k != at]
            matrix = np.loadtxt(itertools.chain([first], lines), delimiter=",",
                                comments=None, dtype=np.float64, ndmin=2,
                                usecols=columns)
        for row, k, line in odd:
            cells = line.split(",")
            if at is not None:
                del cells[at]
            if not _fill(matrix[row], cells):
                if numpy:
                    raise ValueError("a cell float() rejects")
                j, problem = _bad_cell(cells)
                bad = (k, j + 2 if at is None else j + 1 + (j >= at), problem)
                break
        if numpy and not np.isfinite(matrix).all():
            raise ValueError("a number that is not finite")
    except ValueError as err:
        if not numpy or isinstance(err, UnicodeDecodeError):
            raise
        return _parse_range(fd, label_column, width, at, start, stop, False)
    lines = len(names) if at is None else len(labels)
    return _Part(lines, labels, names, ragged, bad, rows, matrix)


def _fill(target, cells) -> bool:
    """Convert ``cells`` by ``float()``'s grammar, as numpy does for ``str``,
    into ``target``; False unless all are finite numbers."""
    try:
        target[...] = cells
    except ValueError:
        return False
    return bool(np.isfinite(target).all())


def _bad_cell(cells):
    """(index, problem) of the first of ``cells`` that is not a finite
    number by ``float()``'s grammar."""
    for k, cell in enumerate(cells):
        try:
            if not math.isfinite(float(cell)):
                return k, f"non-finite value {cell!r}"
        except ValueError:
            return k, f"not a number: {cell!r}"
    raise AssertionError("numpy's conversion rejected cells float() takes")


def _send_range(parse, start, stop, out):
    """A worker's side: ``parse`` a range, then write its part and numbers."""
    part = parse(start, stop)
    pickle.dump(part._replace(matrix=None), out)
    out.write(part.matrix.data)


def _read_into(pipe, array):
    if not array.size:
        return
    view = memoryview(array).cast("B")
    while view:
        got = pipe.readinto(view)
        if not got:
            raise ValueError("a worker's output ended early")
        view = view[got:]


def _place(values, offset, matrix, transpose):
    """Put the numbers of data rows ``offset`` to ``offset + len(matrix)``
    into the samples x features matrix: into its rows, or into its columns
    where the file has features in rows."""
    if transpose:
        values[:, offset:offset + len(matrix)] = matrix.T
    else:
        values[offset:offset + len(matrix)] = matrix


def _receive_part(pipe, values, offset, rows, transpose):
    """Read a worker's ``rows`` file rows of numbers into their place: in
    one read where they are rows of ``values``, else ``_BLOCK_BYTES`` at a
    time."""
    if not transpose:
        _read_into(pipe, values[offset:offset + rows])
        return
    step = max(1, _BLOCK_BYTES // values[:, 0].nbytes)
    block = np.empty((step, len(values)))
    for start in range(offset, offset + rows, step):
        chunk = block[:min(step, offset + rows - start)]
        _read_into(pipe, chunk)
        _place(values, start, chunk, transpose)


@contextmanager
def _forked():
    """A list for the (pid, pipe) of forked workers. On leaving, each
    worker has its pipe closed and is killed and reaped."""
    workers = []
    try:
        yield workers
    finally:
        for pid, pipe in workers:
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _fork(work):
    """(pid, read end of a pipe) of a forked worker that runs ``work`` on
    the pipe's write end. The worker leaves only by ``os._exit``: 0 where
    ``work`` returned, 1 where it raised. It never returns into the caller
    or flushes the caller's buffers.

    Forking is safe here: ``_ranges`` gives more than one range only in a
    process with no other thread, and the worker runs only numpy's parser
    and this pipe.
    """
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(read)
        os.close(write)
        raise
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as out:
                work(out)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    return pid, open(read, "rb")
