"""How fast the program's core runs, sampled while the program runs.

    python benchmarks/e2e/probe.py OUT

The benchmark starts this process beside the program, on the program's
core.  Every 20 ms it encodes and decodes a fixed JSON document twice and
appends one line ``<perf_counter> <seconds>`` to ``OUT``: when the second
pass ran and the thread CPU time it took.  The first pass only warms the
caches the program left cold.  The pass never changes, so its time moves
only with the speed of the core, which on a shared host another tenant
can cut by half for seconds at a time.  ``harness.CoreProbe`` reads the
file.  The process runs until it is terminated.
"""

from __future__ import annotations

import json
import sys
import time

INTERVAL_S = 0.02
DOCUMENT = [
    {"series": f"load.{i:05d}", "time": 10.0 * i, "value": i / 7.0, "tags": ["cpu", "nws"]}
    for i in range(40)
]


def one_pass() -> int:
    return len(json.loads(json.dumps(DOCUMENT, sort_keys=True)))


def main(out: str) -> None:
    # perf_counter is CLOCK_MONOTONIC on Linux, the clock the benchmark
    # times its intervals with.
    with open(out, "w", buffering=1) as fh:
        while True:
            time.sleep(INTERVAL_S)
            one_pass()
            start = time.thread_time()
            one_pass()
            fh.write(f"{time.perf_counter()!r} {time.thread_time() - start!r}\n")


if __name__ == "__main__":
    main(sys.argv[1])
