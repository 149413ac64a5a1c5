"""Run a command and fail when its peak resident set size exceeds a ceiling.

    python scripts/peak_rss.py LIMIT_MB COMMAND [ARG ...]

Runs COMMAND, then reads the largest peak RSS among the finished
descendants from ``resource.getrusage(RUSAGE_CHILDREN).ru_maxrss``
(kilobytes on Linux) and prints it to stderr.  Exit status is the
command's own when it fails, 1 when it succeeds with a peak above
LIMIT_MB, and 0 otherwise.
"""

from __future__ import annotations

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    limit_mb, command = float(argv[0]), argv[1:]
    code = subprocess.call(command)
    peak_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"peak RSS {peak_mb:.0f} MB (ceiling {limit_mb:.0f} MB)", file=sys.stderr)
    if code:
        return code
    return 1 if peak_mb > limit_mb else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
