"""Fixed reference work that gauges how fast the host runs at the moment.

    python3 bench/reference.py TIMING_JSON

The benchmark starts this process between the entdist processes it times.
It does what an entdist command does in kind, none of it with entdist code:
the interpreter starts and imports numpy (set-up), then a loop of small
numpy vector operations, binomial draws, Python arithmetic and CSV
formatting runs (work).  Like child.py it writes the monotonic-clock times
at which the work began and ended to TIMING_JSON.  Its cost never changes
with the program, so the benchmark scales the program's times by its wall
time to remove the host's changes of speed (see run.py).
"""

import json
import math
import sys
import time

import numpy as np

ROWS = 64
STEPS = 50_000


def work() -> str:
    rng = np.random.default_rng(12345)
    table = rng.random((ROWS, 4))
    lines = []
    total = 0.0
    for i in range(STEPS):
        d = table[i % ROWS] - table[(i * 7 + 3) % ROWS]
        dist = math.sqrt(float(d @ d))
        p = 0.5 + 0.5 * math.cos(dist)
        total += p
        if i % 8 == 0:
            total += int(rng.binomial(100, p)) / 100.0
            lines.append(f"{i},{dist!r},{p!r}")
    return f"{total!r} {len(lines)}"


def main(timing_path: str) -> int:
    start = time.monotonic()
    result = work()
    end = time.monotonic()
    with open(timing_path, "w", encoding="utf-8") as fh:
        json.dump({"main_start": start, "main_end": end, "result": result}, fh)
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 2:
        print(__doc__.strip().splitlines()[2], file=sys.stderr)
        sys.exit(2)
    sys.exit(main(sys.argv[1]))
