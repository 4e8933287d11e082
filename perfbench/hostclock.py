"""Host-speed clock: elapsed time in reference seconds.

The benchmark runs on a few vCPUs of a shared host whose speed wanders:
the same code runs up to twice as slowly for stretches of seconds to
minutes, depending on what else the host runs.  Medians over one run cannot
average out a slow spell that outlasts the run, so two sets of runs minutes
apart disagree by more than any bound worth having.

:class:`HostClock` measures the host's speed while the program runs and
divides it out.  It times a fixed calibration kernel (:func:`kernel`: a
Python dict loop and small numpy operations, the mix the program's hot paths
are made of) on the program's own thread, between stretches of program work,
and rescales each stretch by ``REFERENCE_S / c``, where ``c`` is the kernel
time measured just before that stretch.  The kernel's own time is left out.
The kernel runs

* every :data:`PERIOD_S` seconds from a ``SIGALRM`` interval timer inside
  :meth:`HostClock.ticking` (Python runs the handler on the main thread
  between bytecodes, so it measures the thread doing the work), or
* on demand via :meth:`HostClock.sample`, e.g. right before each request of
  a closed loop whose work runs on another thread.

The benchmark pins itself to one vCPU, so the kernel always runs on the CPU
that does the work it rescales, whichever thread that work runs on.

A program change does not touch the kernel, so it moves the rescaled times
by as much as it moves the real ones on a steady host.  :class:`WallClock`
has the same interface and does no rescaling.
"""

from __future__ import annotations

import bisect
import signal
import time
from contextlib import contextmanager

import numpy as np

#: The kernel's typical time on the reference host (a 2-vCPU Intel Xeon VM):
#: a stretch timed while the kernel takes this long counts at face value.
REFERENCE_S = 0.8e-3
#: Seconds between kernel runs inside :meth:`HostClock.ticking`.
PERIOD_S = 0.025


def kernel(_table={i: float(i) for i in range(512)},
           _row=np.arange(64, dtype=float)) -> float:
    """Run the fixed calibration work once; return its seconds."""
    started = time.perf_counter()
    acc = 0.0
    for _ in range(6):
        for i in range(512):
            acc += _table[i] * 1.0001
    for r in range(40):
        b = _row * 1.5 + r
        acc += float(b.sum()) + float(np.maximum(b, 3.0).mean())
    return time.perf_counter() - started


class HostClock:
    """Kernel samples over a run, and windows rescaled by them."""

    def __init__(self) -> None:
        #: (kernel start, kernel end) per sample, in time order.
        self.samples: list[tuple[float, float]] = []
        self._busy = False

    def sample(self) -> None:
        """Time the kernel now, on the calling thread."""
        if self._busy:
            return
        self._busy = True
        try:
            started = time.perf_counter()
            kernel()
            self.samples.append((started, time.perf_counter()))
        finally:
            self._busy = False

    @contextmanager
    def ticking(self):
        """Sample now and then every :data:`PERIOD_S` seconds until exit."""
        previous = signal.signal(signal.SIGALRM, lambda _signum, _frame: self.sample())
        self.sample()
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    @contextmanager
    def shielded(self):
        """Threads started inside never take the clock's signal, so it
        interrupts the main thread even while that thread waits on them."""
        previous = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            yield
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, previous)

    def scaled(self, start: float, end: float) -> float:
        """Reference seconds of the program time in ``[start, end]``.

        Each stretch between kernel runs counts ``REFERENCE_S / c`` per
        second, ``c`` being the kernel time just before it; the kernel runs
        themselves do not count.  A sample must precede ``start``.
        """
        first = bisect.bisect_right(self.samples, start, key=lambda sample: sample[1])
        if first == 0:
            raise ValueError("no host clock sample before the window")
        kernel_start, kernel_end = self.samples[first - 1]
        rate = REFERENCE_S / (kernel_end - kernel_start)
        cursor = start
        total = 0.0
        for index in range(first, len(self.samples)):
            kernel_start, kernel_end = self.samples[index]
            if kernel_start >= end:
                break
            total += max(0.0, kernel_start - cursor) * rate
            cursor = max(cursor, kernel_end)
            rate = REFERENCE_S / (kernel_end - kernel_start)
        return total + max(0.0, end - cursor) * rate


class WallClock(HostClock):
    """The :class:`HostClock` interface on plain elapsed time."""

    def sample(self) -> None:
        pass

    @contextmanager
    def ticking(self):
        yield self

    def scaled(self, start: float, end: float) -> float:
        return end - start
