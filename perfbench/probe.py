"""Machine speed probe: samples the machine's speed while a run measures.

``run.py`` starts this once per run and closes its standard input when the
run's repetitions are done:

    python3 perfbench/probe.py

After a warm-up it prints ``ready``.  Then, until its standard input closes,
it repeatedly runs a fixed slice of interpreted work, timed by the thread's
CPU clock, and sleeps four times as long, so it keeps a fifth of one core
busy.  At the end it prints the mean CPU seconds of a slice.  The workload
runs in one process, so on a 2-core machine the probe mostly has the other
core; a CPU clock counts only time the slice ran, not time it waited for a
core.

The probe is a process of its own so that the parent stays small: Linux
starts a spawned child's ``ru_maxrss`` at its parent's peak RSS, and the
parent's must not show in the workload's ``peak_rss_mb``.
"""

from __future__ import annotations

import statistics
import sys
import threading
import time

SLICE_ITERATIONS = 100_000
IDLE_PER_BUSY = 4


def slice_seconds() -> float:
    t0 = time.thread_time()
    s = 0
    for i in range(SLICE_ITERATIONS):
        s += i * i % 7
    return time.thread_time() - t0


def main() -> int:
    for _ in range(20):
        slice_seconds()  # warm-up
    done = threading.Event()

    def wait_for_eof() -> None:
        sys.stdin.read()
        done.set()

    threading.Thread(target=wait_for_eof, daemon=True).start()
    print("ready", flush=True)
    samples = [slice_seconds()]
    while not done.wait(IDLE_PER_BUSY * samples[-1]):
        samples.append(slice_seconds())
    print(repr(statistics.fmean(samples)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
