"""Spawns the CLI children on behalf of run.py and reports their wall time and peak RSS.

On Linux a child's ru_maxrss starts from the resident size of the process
that spawned it, so children of the benchmark process, whose output checks
read whole files, would report its memory as theirs. This process stays
small. Protocol: one JSON request per stdin line ({argv, env, cwd, stdout,
stderr, timeout_s}), one JSON reply per stdout line ({code, wall_s,
maxrss_kib}). It exits when stdin closes.
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
            proc = subprocess.Popen(req["argv"], stdout=out, stderr=err, env=req["env"], cwd=req["cwd"])
            watchdog = threading.Timer(req["timeout_s"], proc.kill)
            watchdog.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                watchdog.cancel()
            wall = time.perf_counter() - start
            proc.returncode = os.waitstatus_to_exitcode(status)
        reply = {"code": proc.returncode, "wall_s": wall, "maxrss_kib": usage.ru_maxrss}
        sys.stdout.write(json.dumps(reply) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
