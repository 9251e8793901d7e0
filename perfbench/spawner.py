"""Start, time and size one process per request, from a process that stays small.

On Linux a child's max RSS includes the high-water mark of the process it
was forked from, so processes forked from run.py, which holds graphs and
digests, would report inflated memory. run.py starts this helper first and
sends it one JSON request per line:

    {"argv": [...], "stdout": path, "stderr": path}

and reads back one line per request: {"code": exit code, "wall": seconds
from spawn to exit, "rss_mb": the child's max RSS from os.wait4, "ref":
the mean time of the reference processes run right before and right after
it}. The helper exits at the end of its input.

The shared host this runs on changes, every few seconds to minutes, the
speed at which it runs the same code by up to 2x. The reference process is
a fixed stdlib Python program, not mgcolor: interpreter start-up, then a
loop of int arithmetic, list indexing over 4 MB and dict writes. wall / ref
is the child's time in units of the host's speed at that moment; run.py
turns it back into seconds. One reference process runs between each two
requests, so each serves as the "after" of one and the "before" of the next.
"""

import json
import os
import subprocess
import sys
import time

REFERENCE = """\
import argparse, json
big = list(range(1 << 19))
seen = {}
x = 1
for i in range(40_000):
    x = (x * 1103515245 + 12345) & 0x7FFFFFFF
    big[x & 0x7FFFF] = big[x >> 11 & 0x7FFFF] + i
    seen[x & 4095] = i
"""


def timed(argv: list[str], stdout, stderr) -> tuple[int, float, object]:
    """Exit code, seconds from spawn to exit and resource usage of one process."""
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=stdout, stderr=stderr)
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    return os.waitstatus_to_exitcode(status), wall, usage


def reference() -> float:
    code, wall, _ = timed([sys.executable, "-c", REFERENCE], subprocess.DEVNULL, subprocess.DEVNULL)
    if code != 0:
        raise SystemExit(f"reference process exited {code}")
    return wall


def main() -> None:
    before = reference()
    for line in sys.stdin:
        request = json.loads(line)
        with open(request["stdout"], "wb") as out, open(request["stderr"], "wb") as err:
            code, wall, usage = timed(request["argv"], out, err)
        after = reference()
        reply = {"code": code, "wall": wall, "rss_mb": usage.ru_maxrss / 1024,
                 "ref": (before + after) / 2}
        before = after
        print(json.dumps(reply), flush=True)


if __name__ == "__main__":
    main()
