"""Start obf commands on request; report wall time, peak RSS and exit code.

``run.py`` starts this process before it loads numpy or any data, and it
stays small. That matters because a child's peak RSS, as ``os.wait4``
reports it, includes the RSS its parent had when it forked: from a parent
holding a 32 MB dataset, even ``python -c pass`` reads as 70 MB.

Protocol: one JSON request per line on stdin, ``{"argv", "cwd", "env",
"stdout"}``; one JSON reply per line on stdout, ``{"seconds", "rss_mb",
"code"}``. The process ends when stdin closes.
"""

import json
import os
import subprocess
import sys
import time


def run(argv, cwd, env, stdout):
    """Wall seconds, peak RSS in MB and exit code of one process.

    The RSS is this child's own rusage: the largest resident set of the
    child and of the workers it waited for. ``RUSAGE_CHILDREN`` would be a
    running maximum over every child so far.
    """
    with open(stdout, "wb") as out:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=out)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"seconds": seconds, "rss_mb": usage.ru_maxrss / 1024.0,
            "code": proc.returncode}


def main():
    for line in sys.stdin:
        reply = run(**json.loads(line))
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
