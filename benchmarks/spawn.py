"""Start the benchmark's cold commands from a small process.

A child's peak RSS (``ru_maxrss``) includes the memory of the process that
forked it, and the benchmark's own process holds xolopt, numpy and the
references.  run.py therefore starts this helper first and sends it one
JSON request per line, ``{"argv": [...], "env": {...}}``; the helper runs the
command, waits for it and answers with one JSON line holding the exit code,
the CPU seconds (user + system), the peak RSS in MB and the standard output.
It ends when its input closes, and stops a running command on SIGTERM.
"""

import json
import os
import signal
import subprocess
import sys


def main() -> None:
    running: list[subprocess.Popen] = []

    def stop(signum, frame):
        for proc in running:
            proc.kill()
            proc.wait()
        sys.exit(128 + signum)

    signal.signal(signal.SIGTERM, stop)
    for line in sys.stdin:
        request = json.loads(line)
        proc = subprocess.Popen(request["argv"], env=request["env"],
                                stdout=subprocess.PIPE, stderr=subprocess.DEVNULL)
        running.append(proc)
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        running.remove(proc)
        sys.stdout.write(json.dumps({
            "rc": proc.returncode,
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "rss_mb": usage.ru_maxrss / 1024.0,
            "stdout": out.decode(),
        }) + "\n")
        sys.stdout.flush()


if __name__ == "__main__":
    main()
