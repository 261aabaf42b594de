"""Report the process's own peak resident set on stderr at exit (Linux).

The benchmark puts this directory on the PYTHONPATH of every process it
starts, so each one, ``python -m lucascalc.cli`` included, ends its stderr
with ``peak-rss-kib <n>``.  The figure is VmHWM, the high-water mark of the
memory map that exec created, so it is the process's own.  The ru_maxrss
that wait4 or RUSAGE_CHILDREN give is not: Linux carries the launching
process's peak across fork and exec, and the benchmark's own process is
about as large as a lucascalc child.
"""

import atexit
import sys


def _report() -> None:
    try:
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    sys.stderr.write(f"\npeak-rss-kib {int(line.split()[1])}\n")
                    sys.stderr.flush()
                    return
    except OSError:
        pass


atexit.register(_report)
