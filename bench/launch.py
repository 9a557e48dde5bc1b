"""Run `python -m asprod ARGS...` and record the process's own peak memory.

    python3 bench/launch.py PEAK_FILE ARGS...

After the program exits, writes its peak resident set size (VmHWM, in KiB)
to PEAK_FILE.  The peak in the rusage of `wait4` cannot serve: Linux folds
the parent's peak into a child's at exec, so it would report the
benchmark's own memory whenever that is the larger.
"""

import runpy
import sys


def peak_kib() -> int:
    with open("/proc/self/status") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM line in /proc/self/status")


peak_file = sys.argv.pop(1)
try:
    runpy.run_module("asprod", run_name="__main__", alter_sys=True)
finally:
    with open(peak_file, "w") as out:
        out.write(str(peak_kib()))
