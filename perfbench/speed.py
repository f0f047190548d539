"""The host's speed, sampled while a command runs, so its times can be scaled to a reference host.

The benchmark's host is shared: other tenants slow a core by a third or
more, for anything from milliseconds to tens of seconds, and a process's
CPU time grows with its wall time when that happens.  Every 50 ms of the
measured work a timer signal interrupts it, and the handler times a fixed
pure-Python loop (dict and tuple work, the kind pdfill's searches do) on
the same thread and CPU.  A time is scaled by REFERENCE_S over the median
loop time, after the loops' own time is taken out of it: the result is
the time the work would take on a host where the loop takes REFERENCE_S.
The median ignores the odd loop that a preemption stretched tenfold.

The timer runs only during the library call: emitting output with a timer
signal arriving mid-write has been seen to cut stdout short.
"""

from __future__ import annotations

import signal
import time

REFERENCE_S = 0.0015      # the loop's time on the reference host (this one, unloaded)
INTERVAL_S = 0.05
WARMUP_LOOPS = 2
MIN_LOOPS = 5             # at least this many loop times in a reading


def reference_loop(n=6000):
    table = {}
    for i in range(n):
        key = (i & 1023, i >> 10)
        table[key] = table.get(key, 0) + 1
    return len(table)


class Sampler:
    """Times reference_loop every INTERVAL_S between start and stop."""

    def __init__(self):
        self.timed = []         # durations of the loops the timer ran, in s
        self.extra_s = 0.0      # warm-up and top-up loops, outside the sampled work

    def _sample(self, signum, frame):
        start = time.perf_counter()
        reference_loop()
        self.timed.append(time.perf_counter() - start)

    def _loops(self, count):
        durations = []
        for _ in range(count):
            start = time.perf_counter()
            reference_loop()
            durations.append(time.perf_counter() - start)
        self.extra_s += sum(durations)
        return durations

    def warm_up(self):
        """Run the loop untimed first: the interpreter specializes its bytecode on its first runs."""
        self._loops(WARMUP_LOOPS)

    def start(self):
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def reading(self):
        """The median loop time, the loops' time inside the sampled work, and all loops' time.

        Work too short for MIN_LOOPS timer samples is topped up with loops
        run right after it.
        """
        durations = sorted(self.timed + self._loops(max(MIN_LOOPS - len(self.timed), 0)))
        middle = len(durations) // 2
        return {
            "loops": len(durations),
            "median_s": (durations[middle] + durations[~middle]) / 2,
            "inside_s": sum(self.timed),
            "total_s": sum(self.timed) + self.extra_s,
        }


def scaled(raw_s, median_s):
    """raw_s at the speed of the reference host, given the loop's median time alongside it."""
    return raw_s * REFERENCE_S / median_s
