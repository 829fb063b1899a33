"""Runs the CLI workloads' processes from a small parent.

``python3 perfbench/spawner.py`` reads one JSON request per line on stdin,
``{"argv": [...], "cwd": DIR, "log": FILE}``, runs the command with stdin
from /dev/null and stdout and stderr to FILE, and answers with one JSON
line: exit code, wall time from spawn to exit, and the child's peak RSS.

A child's peak RSS as ``wait4`` reports it is at least that of the process
that spawned it, because ``exec`` keeps the high-water mark of the memory it
replaces. The benchmark itself holds hundreds of MB of inputs and parsed
artifacts, so it spawns nothing measured itself; this process stays small.
"""

import json
import os
import subprocess
import sys
from time import perf_counter


def main() -> int:
    for line in sys.stdin:
        msg = json.loads(line)
        with open(msg["log"], "wb") as log:
            start = perf_counter()
            proc = subprocess.Popen(msg["argv"], cwd=msg["cwd"], stdin=subprocess.DEVNULL,
                                    stdout=log, stderr=log)
            _, status, usage = os.wait4(proc.pid, 0)
            wall = perf_counter() - start
        print(json.dumps({"rc": os.waitstatus_to_exitcode(status), "wall": wall,
                          "rss_mb": usage.ru_maxrss / 1024}), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
