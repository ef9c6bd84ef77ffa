"""Run one command; print its exit code, wall time, CPU time and peak RSS.

    python3 perfbench/launch.py TIMEOUT_S OUT ERR ARGV...

Prints one JSON line.  The benchmark starts every job through this small
process rather than directly: on Linux a child's peak RSS starts from the
RSS of the process it was forked from, so a job started by the benchmark
process itself would report that process's size whenever it is the larger.
Forked from here, a job's ``ru_maxrss`` is its own.
"""

from __future__ import annotations

import json
import os
import signal
import sys
import time


def main(argv) -> int:
    timeout, out_path, err_path, cmd = float(argv[0]), argv[1], argv[2], argv[3:]
    flags = os.O_WRONLY | os.O_CREAT | os.O_TRUNC
    actions = [
        (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
        (os.POSIX_SPAWN_OPEN, 1, out_path, flags, 0o644),
        (os.POSIX_SPAWN_OPEN, 2, err_path, flags, 0o644),
    ]
    timed_out = []

    start = time.perf_counter()
    pid = os.posix_spawn(cmd[0], cmd, os.environ, file_actions=actions)

    def kill(signum, frame):
        if signum == signal.SIGALRM:
            timed_out.append(True)
        os.kill(pid, signal.SIGKILL)

    signal.signal(signal.SIGALRM, kill)
    signal.signal(signal.SIGTERM, kill)
    signal.setitimer(signal.ITIMER_REAL, timeout)
    _, status, usage = os.wait4(pid, 0)
    seconds = time.perf_counter() - start
    signal.setitimer(signal.ITIMER_REAL, 0)
    print(json.dumps({
        "code": os.waitstatus_to_exitcode(status),
        "seconds": seconds,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "rss_mb": usage.ru_maxrss / 1024.0,
        "timed_out": bool(timed_out),
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
