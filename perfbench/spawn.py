"""Run one command, time it, and print its exit code and rusage as JSON.

    python3 perfbench/spawn.py '{"argv": [...], "cwd": "...", "timeout": 150}'

The benchmark starts this small process for every timed run instead of
spawning the command itself: on Linux a child's ru_maxrss starts at its
parent's peak RSS, so a command spawned straight from the benchmark (which
holds numpy, scipy and parsed artifacts) would report the benchmark's
memory as its own.  The command's stdout and stderr go to stdout.txt and
stderr.txt in its working directory.
"""
import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    request = json.loads(sys.argv[1])
    cwd = request["cwd"]
    with open(os.path.join(cwd, "stdout.txt"), "wb") as out, \
            open(os.path.join(cwd, "stderr.txt"), "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(request["argv"], cwd=cwd, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        watchdog = threading.Timer(request["timeout"], proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    print(json.dumps({"wall": wall, "rc": proc.returncode,
                      "cpu": usage.ru_utime + usage.ru_stime,
                      "maxrss_kb": usage.ru_maxrss}))


if __name__ == "__main__":
    main()
