"""Run one command as a child and report what it used.

    python -S bench/launch.py FD COMMAND...

Forks, execs COMMAND with this process's environment, waits for it, writes
``exit_code wall_s cpu_s maxrss_kb`` to file descriptor FD and exits with
the command's exit code.  The benchmark starts every request through this
small process instead of forking it itself: a child's ``ru_maxrss`` starts
at the resident set of the process it was forked from, and the benchmark's
own grows as it reads and checks answers.
"""

import os
import sys
import time

report_fd, command = int(sys.argv[1]), sys.argv[2:]
start = time.perf_counter()
pid = os.fork()
if pid == 0:
    try:
        os.execv(command[0], command)
    finally:
        os._exit(127)
_, status, usage = os.wait4(pid, 0)
wall = time.perf_counter() - start
code = os.waitstatus_to_exitcode(status)
os.write(report_fd, f"{code} {wall!r} {usage.ru_utime + usage.ru_stime!r} {usage.ru_maxrss}".encode())
sys.exit(code if code >= 0 else 128 - code)
