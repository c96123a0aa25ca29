"""A dataset file's data lines parsed by numpy, on up to one process per
usable CPU.

The lines after the header are cut into line-aligned byte ranges, read with
``os.pread`` from the file ``obf.dataio.read_dataset`` has open. The first
range is parsed in the calling process and each other one in a forked
worker, which sends its numbers back through a pipe. Whatever numpy's
parser cannot vouch for gives None, and the caller reads the file by its
row-by-row path instead.
"""

from __future__ import annotations

import functools
import itertools
import os
import pickle
import signal
import threading
from contextlib import contextmanager

import numpy as np

# bytes of data lines that make one range, parsed by one process; a file
# gets at most one range per usable CPU
_SEGMENT_BYTES = 4 << 20
# bytes read from a dataset file at a time
_BLOCK_BYTES = 1 << 16

# numpy's parser skips these around a number as spaces; float() rejects them
_NUMPY_ONLY_SPACES = ("\x1c", "\x1d", "\x1e", "\x1f")


def numpy_dataset(fd, label_column, transpose):
    """``obf.dataio.read_dataset`` by ``np.loadtxt`` on the open file
    ``fd``, or None where the row-by-row path must decide.

    Each range (``_ranges``) is one ``np.loadtxt`` pass (``_parse_range``),
    and its numbers go straight into their rows of the matrix, or their
    columns where the file has features in rows. Label cells and feature
    names are split off each line as text; every other cell goes to numpy
    as float64, which gives ``float()``'s bits.
    """
    try:
        size = os.fstat(fd).st_size
        header, body = _header(fd, size)
        header = header.split(",")
        width = len(header)
        if transpose:
            at = None
        elif header.count(label_column) == 1:
            at = header.index(label_column)
        else:
            return None
        if width < 2:
            return None
        parse = functools.partial(_parse_range, fd, label_column, width, at)
        with _forked() as workers:
            ranges = _ranges(fd, body, size)
            for start, stop in ranges[1:]:
                send = functools.partial(_send_range, parse, start, stop)
                workers.append(_fork(send))
            matrix, cells, names = parse(*ranges[0])
            parts = [(len(matrix), cells, names)]
            parts += [pickle.load(pipe) for _, pipe in workers]
            if transpose:
                label_rows = [row for _, rows, _ in parts for row in rows]
                if len(label_rows) != 1:
                    return None
                label_cells = label_rows[0]
                feature_names = [name for _, _, names in parts for name in names]
            else:
                label_cells = [cell for _, cells, _ in parts for cell in cells]
                feature_names = header[:at] + header[at + 1:]
            n = len(label_cells)
            labels = np.array([cell == "1" for cell in label_cells], dtype=np.int8)
            n1 = int(np.count_nonzero(labels))
            if not (set(label_cells) <= {"0", "1"} and 2 <= n1 <= n - 2
                    and len(set(feature_names)) == len(feature_names)):
                return None
            values = np.empty((n, len(feature_names)), dtype=np.float64)
            _place(values, 0, matrix, transpose)
            del matrix
            offset = parts[0][0]
            for (_, pipe), (rows, _, _) in zip(workers, parts[1:]):
                _receive_part(pipe, values, offset, rows, transpose)
                offset += rows
            if not _reap(workers):
                return None
    except (OSError, ValueError, EOFError, pickle.UnpicklingError):
        return None
    return values, labels, feature_names


def _header(fd, size):
    """The first line of the file that is neither blank nor a comment, and
    the offset just past it."""
    start = 0
    while start < size:
        end = _line_end(fd, start, size)
        lines = _text_lines(_pread(fd, start, end))
        if lines:
            return lines[0], end
        start = end
    raise ValueError("no header row")


def _ranges(fd, start, size):
    """Line-aligned byte ranges that cover [start, size): one per
    ``_SEGMENT_BYTES``, at most one per usable CPU, and one only where this
    process cannot fork or runs other threads."""
    count = 1
    if hasattr(os, "fork") and threading.active_count() == 1:
        count = min(_usable_cpus(), -(-(size - start) // _SEGMENT_BYTES))
    cuts = {_line_end(fd, start + k * (size - start) // count, size)
            for k in range(1, count)}
    bounds = [start, *sorted(cuts | {size})]
    return list(zip(bounds, bounds[1:]))


def _usable_cpus():
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


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
        raise ValueError("the file is shorter than it was")
    return block


def _text_lines(block):
    """The lines of UTF-8 ``block`` that are neither blank nor '#' comments,
    without line endings, as a file opened in text mode reads them."""
    text = block.decode("utf-8")
    if "\r" in text:
        # text mode also ends a line at a lone CR; leave that to it
        text = text.replace("\r\n", "\n")
        if "\r" in text:
            raise ValueError("a line ends in a lone CR")
    return [line for line in text.split("\n") if line and line[0] != "#"]


def _range_lines(fd, start, stop):
    """``_text_lines`` of bytes [start, stop) of the file, read
    ``_BLOCK_BYTES`` at a time."""
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


def _parse_range(fd, label_column, width, at, start, stop):
    """(numbers, label cells, feature names) of the data lines in bytes
    [start, stop) of a file whose header has ``width`` cells.

    ``at`` is the label column's index, or None for features in rows; then
    the label cells are a list of the cells of each row named
    ``label_column``. Raises ``ValueError`` where numpy cannot vouch for a
    line.
    """
    labels = []
    names = []

    def numbers():
        for line in _range_lines(fd, start, stop):
            if line.count(",") != width - 1:
                raise ValueError("a row of another width than the header")
            if any(space in line for space in _NUMPY_ONLY_SPACES):
                raise ValueError("a space numpy reads and float() does not")
            if at is None:
                name, _, line = line.partition(",")
                if name == label_column:
                    labels.append(line.split(","))
                    continue
                names.append(name)
            elif 2 * at < width:
                labels.append(line.split(",", at + 1)[at])
            else:
                labels.append(line.rsplit(",", width - at)[1])
            yield line

    rows = numbers()
    # loadtxt warns on input with no rows
    first = next(rows, None)
    if first is None:
        return np.empty((0, width - 1)), labels, names
    columns = None if at is None else [k for k in range(width) if k != at]
    matrix = np.loadtxt(itertools.chain([first], rows), delimiter=",",
                        comments=None, dtype=np.float64, ndmin=2,
                        usecols=columns)
    if not np.isfinite(matrix).all():
        raise ValueError("a number that is not finite")
    return matrix, labels, names


def _send_range(parse, start, stop, out):
    """A worker's side: ``parse`` a range and write its row count, label
    cells and names, then its numbers, to ``out``."""
    matrix, labels, names = parse(start, stop)
    pickle.dump((len(matrix), labels, names), out)
    out.write(matrix.data)


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
    worker still listed has its pipe closed and is killed and reaped."""
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


def _reap(workers):
    """Wait for each listed worker and unlist it; True if each exited 0."""
    ok = True
    while workers:
        pid, pipe = workers.pop()
        pipe.close()
        ok = os.waitpid(pid, 0)[1] == 0 and ok
    return ok
