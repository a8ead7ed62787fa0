"""Start child processes from a process that stays small, and report each
child's own wall time, peak RSS and CPU time.

On Linux a child's ``ru_maxrss`` is at least the high-water resident size of
the address space it was forked from, because exec folds that address
space's peak into the child's. A child forked straight from the benchmark
process (run.py), which holds numpy arrays, would report that process's peak
as its own. run.py therefore forks every child from this launcher, which
imports nothing heavy.

Protocol: one JSON request per stdin line (``argv``, ``env``, ``stdout``,
``stderr``, ``timeout``), one JSON reply per stdout line. The launcher exits
at end of input; on SIGTERM it kills and reaps the running child first.
"""
from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(request: dict) -> dict:
    with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            request["argv"], env=request["env"], stdout=out, stderr=err, stdin=subprocess.DEVNULL
        )
        timer = threading.Timer(request["timeout"], proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "wall_s": wall,
        "rss_mb": usage.ru_maxrss / 1024,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "code": proc.returncode,
    }


def main() -> int:
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
