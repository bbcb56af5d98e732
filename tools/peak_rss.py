#!/usr/bin/env python3
"""Run a command and gate its peak resident memory.

    tools/peak_rss.py LIMIT_MIB COMMAND [ARG...]

Runs COMMAND with its standard output discarded, then reads the peak RSS
of the finished child from getrusage(RUSAGE_CHILDREN). Prints the peak in
MiB and exits 1 if it is above LIMIT_MIB, or with COMMAND's own status if
that failed.
"""

import resource
import subprocess
import sys


def main(argv):
    if len(argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    try:
        limit = float(argv[1])
    except ValueError:
        print(f"peak_rss.py: LIMIT_MIB must be a number, got {argv[1]!r}", file=sys.stderr)
        return 2
    status = subprocess.run(argv[2:], stdout=subprocess.DEVNULL).returncode
    if status != 0:
        print(f"peak_rss.py: command exited with status {status}", file=sys.stderr)
        return status if status > 0 else 1
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0  # KiB on Linux
    verdict = "ok" if peak <= limit else "FAIL"
    print(f"peak RSS {peak:.1f} MiB (limit {limit:g} MiB): {verdict}")
    return 0 if peak <= limit else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
