"""A fixed reference kernel that measures how fast the machine runs now.

On a shared box the CPU switches between a fast and a slow speed (about
1.5x apart) many times a second, and the share of time spent fast drifts
over minutes.  So the wall-clock of a workload moves with the box, not
only with the program.  ``worker.py`` times passes on every core the
workload keeps busy right before and right after each timed iteration,
and ``run.py`` scales the run's medians by ``REFERENCE_S / mean(passes)``.
The mean, not the median, because the passes are bimodal and the mean
follows the share of fast time the way the workload's own time does.
The kernel never changes with the program, so the scale follows the
machine only.

The kernel mixes the two kinds of work the engines do: a pure-Python
loop (the interpreter's dispatch) and a loop of small NumPy calls with
Generator draws (per-call overhead on tiny arrays).
"""

from __future__ import annotations

import json
import os
import time

import numpy as np

#: Seconds one ``calibrate()`` pass takes at the reference speed.  Scaled
#: times read as wall-clock on a box on which a pass takes this long
#: (about what the 2-core box the benchmark was written on measured).
REFERENCE_S = 0.19
#: Passes per core on each side of an iteration.  A pass samples the
#: fast or the slow speed, so the scale needs many of them.
PASSES = 2


def _python_loop(steps: int = 600_000) -> int:
    total = 0
    for i in range(steps):
        total += i * i % 7
    return total


def _numpy_loop(steps: int = 8_000) -> int:
    rng = np.random.default_rng(12345)
    counts = np.array([100, 200, 300, 400], dtype=np.int64)
    total = 0
    for _ in range(steps):
        pick = rng.integers(0, 4, size=8)
        counts[pick[0]] += 1
        counts[pick[1]] -= 1
        total += int(counts.sum())
        total += len(np.minimum(counts, 250).tolist())
    return total


def calibrate() -> float:
    """Seconds one pass of the fixed kernel takes now (after an untimed
    warm-up pass a twentieth of the size, so a fresh process's first
    calls do not count)."""
    _python_loop(30_000)
    _numpy_loop(400)
    start = time.perf_counter()
    _python_loop()
    _numpy_loop()
    return time.perf_counter() - start


def calibrate_on(cores: int = 1) -> list[float]:
    """``PASSES`` passes on each of ``cores`` processes at once: this one
    and ``cores - 1`` forked children.  A workload that keeps two cores
    busy is calibrated on both, since each core switches speed on its
    own."""
    children = []
    for _ in range(cores - 1):
        read, write = os.pipe()
        pid = os.fork()
        if pid == 0:
            os.close(read)
            try:
                os.write(write, json.dumps([calibrate() for _ in range(PASSES)]).encode())
            finally:
                os._exit(0)
        os.close(write)
        children.append((pid, read))
    passes = [calibrate() for _ in range(PASSES)]
    for pid, read in children:
        with os.fdopen(read) as pipe:
            passes += json.loads(pipe.read())
        os.waitpid(pid, 0)
    return passes


if __name__ == "__main__":
    print(" ".join(f"{calibrate():.4f}" for _ in range(5)))
