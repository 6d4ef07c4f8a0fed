"""Machine-speed sampling, so that times from a noisy machine compare.

On a small shared virtual machine the speed of a core drifts by a
quarter or more over tens of seconds, on pure arithmetic and on
dict-heavy code alike, so raw wall times of the same code differ that
much between runs.  `SpeedSampler` measures the drift while an operation
runs: a SIGALRM handler, in the benchmark's own thread, times a small
fixed loop (`reference_work`) every SAMPLE_INTERVAL_S of wall time.  An
operation's time is then reported net of the handler's own time and
rescaled to a core that runs the loop in exactly SAMPLE_NOMINAL_S:

    seconds = (wall - time spent sampling) * SAMPLE_NOMINAL_S / median(loop)

The loop is independent of pathfactor, so a change to the program moves
the rescaled time exactly as it moves the wall time at a fixed speed.
"""

from __future__ import annotations

import signal
import statistics
from time import perf_counter

SAMPLE_ITEMS = 1500        # about a millisecond of work
SAMPLE_INTERVAL_S = 0.05
SAMPLE_NOMINAL_S = 0.001


def reference_work(items: int = SAMPLE_ITEMS) -> int:
    """Tuple allocation, dict inserts and lookups and a sort: the mix of
    work the solver does, on a table small enough to stay in cache."""
    table = {}
    for i in range(items):
        table[(i * 7919) % 100003, i & 7] = (i,)
    hits = 0
    for key in sorted(table, reverse=True):
        if table.get(key) is not None:
            hits += 1
    return hits


class SpeedSampler:
    """Context manager: samples the loop's duration while the body runs.

    After exit, `spent` is the wall time the samples took and `scale`
    the factor that rescales the body's net time to nominal speed.
    """

    def __init__(self):
        self.durations: list[float] = []

    def _sample(self, signum=None, frame=None) -> None:
        t0 = perf_counter()
        reference_work()
        self.durations.append(perf_counter() - t0)

    def __enter__(self) -> "SpeedSampler":
        self.durations = []
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S,
                         SAMPLE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.durations:  # body shorter than one interval
            self._sample()
            self.spent = 0.0
        else:
            self.spent = sum(self.durations)
        self.scale = SAMPLE_NOMINAL_S / statistics.median(self.durations)
