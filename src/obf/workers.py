"""Forked workers: the one way obf runs a piece of work on every CPU.

Work of a known size is cut into ``parts``: one per started ``PART_BYTES``,
at most one per usable CPU. Each part runs in a worker forked from the
caller, which writes its result to a pipe the caller reads, but for a part
the caller keeps: ``obf.segments`` parses its first range itself, and
``obf.dataio.render_dataset`` formats no block itself. Workers are forked
only from a process with no other thread: a lock another thread held at
the fork would stay held in the child forever.
"""

from __future__ import annotations

import os
import signal
import threading
from contextlib import contextmanager

# bytes of work that make one part, done by one process
PART_BYTES = 4 << 20
# bytes a worker's pipe holds where the system allows it: a few of the
# blocks a render worker sends, so that it formats ahead of the writes
PIPE_BYTES = 1 << 20


def usable_cpus():
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def parts(size):
    """How many parts ``size`` bytes of work make: one per started
    ``PART_BYTES``, at most one per usable CPU, and one where this process
    cannot fork or runs other threads."""
    if not hasattr(os, "fork") or threading.active_count() != 1:
        return 1
    return max(1, min(usable_cpus(), -(-size // PART_BYTES)))


@contextmanager
def forked():
    """A list for the (pid, pipe) of forked workers. On leaving, each
    worker has its pipe closed and is killed and reaped, but for one that
    a wait of the caller's has reaped already."""
    workers = []
    try:
        yield workers
    finally:
        for pid, pipe in workers:
            pipe.close()
            try:
                # a pid that is no longer a child of this process is never
                # signalled: it may name another process by now
                if os.waitpid(pid, os.WNOHANG) == (0, 0):
                    os.kill(pid, signal.SIGKILL)
                    os.waitpid(pid, 0)
            except (ChildProcessError, ProcessLookupError):
                pass


def fork(work):
    """(pid, read end of a pipe) of a forked worker that runs ``work`` on
    the pipe's write end. The worker leaves only by ``os._exit``: 0 where
    ``work`` returned, 1 where it raised. It never returns into the caller
    or flushes the caller's buffers.

    Fork only where ``parts`` gave more than one part: that is never in a
    process with other threads.
    """
    import fcntl  # POSIX only, as is os.fork

    read, write = os.pipe()
    if hasattr(fcntl, "F_SETPIPE_SZ"):
        try:
            fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
        except OSError:
            pass  # above the system's limit: the default size works too
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
