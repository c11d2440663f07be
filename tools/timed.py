"""Run ``python -m cqss ARGS...`` and report its wall time and peak RSS.

    python tools/timed.py eve scenarios/eve_curve.scn

The child's standard output and error pass through untouched.  After it
exits, one line, ``cqss <command>: <wall> s wall, <rss> MB peak RSS``,
goes to standard error, RSS being the child's ``ru_maxrss``, and the exit
code is the child's.
"""

from __future__ import annotations

import resource
import subprocess
import sys
import time


def main(argv: list[str]) -> int:
    t0 = time.perf_counter()
    code = subprocess.run([sys.executable, "-m", "cqss", *argv]).returncode
    wall = time.perf_counter() - t0
    rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    command = argv[0] if argv else "-"
    print(f"cqss {command}: {wall:.2f} s wall, {rss:.0f} MB peak RSS", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
