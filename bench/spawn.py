"""Start the benchmark's commands from a process that stays small.

Linux counts the memory of the process that starts a command towards the
command's peak resident set: exec records the high-water mark of the address
space it replaces in ``ru_maxrss``, and under vfork that address space is the
parent's.  The benchmark process holds arrays of a few hundred MiB while it
checks outputs, so it hands every command to this helper, which loads
nothing beyond the standard library.

Protocol: one JSON request per line on stdin, with ``argv``, ``cwd``,
``env``, ``stderr`` (a file path) and ``timeout`` (seconds, after which the
command is killed); one JSON reply per line on stdout with ``rc``,
``wall_s``, ``cpu_s`` and ``peak_rss_mib``.  The helper exits at the end of
its input.
"""

import json
import os
import signal
import subprocess
import sys
import threading
import time


def run(req: dict) -> dict:
    """Run one command to its end; wall time, CPU and peak RSS of it and its reaped children."""
    with open(req["stderr"], "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            req["argv"], cwd=req["cwd"], env=req["env"], stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err
        )
        killer = threading.Timer(max(req["timeout"], 0.0), os.kill, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {
        "rc": proc.returncode,
        "wall_s": wall,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        # ru_maxrss of a reaped child is the largest of it and its own reaped children (KiB on Linux)
        "peak_rss_mib": usage.ru_maxrss / 1024.0,
    }


def main() -> None:
    for line in sys.stdin:
        print(json.dumps(run(json.loads(line))), flush=True)


if __name__ == "__main__":
    main()
