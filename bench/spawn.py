"""Process launcher for the benchmark, kept small on purpose.

On Linux a child's peak RSS counts the memory of the process it was forked
from, so CLI steps forked from the bench itself, which holds the generated
inputs, would report the bench's size. This launcher starts before the bench
grows and forks every measured step from its own small image.

Protocol: one JSON request per line on stdin,
`{"argv", "cwd", "env", "stdout", "stderr", "timeout"}`; one JSON reply per
line on stdout, `{"status", "wall_s", "cpu_s", "rss_mb"}`, with wall time
from fork to reap and CPU time and peak RSS from `wait4`. A step still
running after `timeout` seconds is killed.
"""

import json
import os
import subprocess
import sys
import threading
import time


def main() -> None:
    for line in sys.stdin:
        req = json.loads(line)
        with open(req["stdout"], "wb") as out, open(req["stderr"], "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(req["argv"], cwd=req["cwd"], env=req["env"], stdout=out, stderr=err)
            timer = threading.Timer(req["timeout"], proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"status": proc.returncode, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                 "rss_mb": usage.ru_maxrss / 1024}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
