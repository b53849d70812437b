"""Time measured at a fixed reference speed of the processor.

The machines this benchmark runs on share their cores with other tenants,
which disturbs timings in two ways.  The process is descheduled for
milliseconds at a time, which adds to the wall time of whatever operation is
running; and while it runs, the same pure-Python work can take twice as long
in one second as in the next, in slow stretches that last from one second to
over a minute.  A speedometer removes both.  It times intervals in the
thread's CPU time, which stops while the thread is descheduled.  While it
runs, a ``SIGALRM`` every 10 ms times a fixed piece of exact-arithmetic work,
also in CPU time.  The reference time of an interval is its CPU time, less
the time the samples themselves took, multiplied by ``REFERENCE_S`` over the
mean sample: the samples taken inside the interval, or the last five started
before its end when it holds fewer than five.

Sampling pauses while the process waits for a child, since a woken idle
process runs slower than a busy one.

On an uncontended processor where the work takes ``REFERENCE_S`` a reference
second is a wall second.
"""
from __future__ import annotations

import signal
from contextlib import contextmanager
from fractions import Fraction
from statistics import median
from time import thread_time

PERIOD_S = 0.01
BEFORE = 5  # the fewest samples an interval's speed is taken from
REFERENCE_S = 1.5e-4  # the work's time on an uncontended 2-vCPU Xeon with Python 3.11


def reference_work() -> Fraction:
    total = Fraction(0)
    for i in range(1, 31):
        total += Fraction(i, i % 7 + 2) * Fraction(3, i + 1)
    return total


class Speedometer:
    """Samples the processor's speed while running; converts intervals to reference time."""

    def __init__(self):
        self.samples: list[tuple[float, float]] = []  # (CPU start, CPU seconds the work took)
        self._previous = None

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        self._sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def _sample(self, *_):
        c0 = thread_time()
        reference_work()
        self.samples.append((c0, thread_time() - c0))

    def mark(self) -> tuple[int, float]:
        return len(self.samples), thread_time()

    def _scale(self, mark, end: float) -> tuple[float, float]:
        """``(CPU time of the samples inside, reference seconds per CPU second)``.

        A sample is inside when it started between ``mark`` and ``end``; one
        may land between any two statements.
        """
        n0, begin = mark
        recent = [s for s in self.samples[max(n0 - BEFORE, 0):] if s[0] < end]
        inside = [took for start, took in recent if start >= begin]
        speed = inside if len(inside) >= BEFORE else [took for _, took in recent[-BEFORE:]]
        return sum(inside), REFERENCE_S * len(speed) / sum(speed)

    def since(self, mark) -> float:
        """Reference seconds of this thread's work from ``mark`` to now."""
        end = thread_time()
        sampled, scale = self._scale(mark, end)
        return (end - mark[1] - sampled) * scale


    @contextmanager
    def paused(self):
        """No samples inside; for intervals where this process only waits."""
        signal.setitimer(signal.ITIMER_REAL, 0)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def summary(self) -> dict:
        """How fast the processor ran: the median sample over the reference."""
        took = [t for _, t in self.samples]
        return {"samples": len(took), "median_slowdown": median(took) / REFERENCE_S}
