"""Machine-speed probe: a fixed reference computation timed during each repetition.

The benchmark runs on a shared VM whose speed drifts by tens of percent over
seconds to minutes, independently on each vCPU.  The same ``optdec run``
repeated in one process took anywhere from 1.03 to 1.87 s.  Wall times alone
then measure the machine as much as the code.

:class:`SpeedProbe` arms a ``SIGALRM`` interval timer for one repetition.
Every ``INTERVAL_S`` the handler runs :func:`reference_work` twice on the
same core, between two bytecodes of the run, and keeps the time of the
second call (the first one refills the caches the run evicted).  The median
of the times taken inside each half second says how fast the machine was
then, and :meth:`SpeedProbe.reference_s` turns an interval's wall seconds
into *reference seconds*: seconds on a machine where
:func:`reference_work` takes ``REFERENCE_S``.  The probe's own time is
subtracted from every interval it falls into.

The reference work mixes interpreted arithmetic with small dense solves,
like optdec's inner loops, and touches only numpy, so a change to optdec
cannot change it.
"""

from __future__ import annotations

import bisect
import signal
import statistics
import time

import numpy as np

# reference_work() at reference speed; about its median on a 2-vCPU Xeon VM
REFERENCE_S = 1e-4
INTERVAL_S = 0.01
WINDOW_S = 0.5
MIN_SAMPLES = 10

_rng = np.random.default_rng(12345)
_M = _rng.standard_normal((20, 20))
_M = _M @ _M.T + 20.0 * np.eye(20)
_V = _rng.standard_normal(20)


def reference_work() -> float:
    s = 0.0
    for i in range(400):
        s += i * 0.5
    for _ in range(4):
        s += float(np.linalg.solve(_M, _V) @ _V)
    return s


class SpeedProbe:
    """Times :func:`reference_work` every ``INTERVAL_S`` inside the ``with`` block.

    Samples never overlap and are recorded in time order, so the queries
    after the block use binary search over their start and end times.
    """

    def __init__(self):
        self.samples: list[float] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self._busy_before = [0.0]  # probe seconds before each sample
        self._running = False
        self._previous = None

    def sample(self, *_):
        if self._running:  # a signal that arrives while the handler runs
            return
        self._running = True
        try:
            t0 = time.perf_counter()
            reference_work()
            t1 = time.perf_counter()
            reference_work()
            t2 = time.perf_counter()
            self.samples.append(t2 - t1)
            self.starts.append(t0)
            self.ends.append(t2)
            self._busy_before.append(self._busy_before[-1] + t2 - t0)
        finally:
            self._running = False

    def __enter__(self):
        self.sample()  # one sample even when the block is shorter than the interval
        self._previous = signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        self.sample()
        return False

    def busy_within(self, start: float, end: float) -> float:
        """Seconds the probe itself spent inside ``[start, end]``."""
        i = bisect.bisect_right(self.ends, start)  # first sample ending after start
        j = bisect.bisect_left(self.starts, end)  # first sample starting at or after end
        if i >= j:
            return 0.0
        total = self._busy_before[j] - self._busy_before[i]
        total -= max(0.0, start - self.starts[i]) + max(0.0, self.ends[j - 1] - end)
        return total

    def reference_s(self, start: float, end: float) -> float:
        """Reference seconds of the interval ``[start, end]``, net of the probe's own time.

        The interval is cut into windows of ``WINDOW_S``.  A window's speed
        is the median of the samples taken inside it, or of all samples when
        fewer than ``MIN_SAMPLES`` fall inside (short windows, or long native
        calls that hold the signal back).
        """
        total, a = 0.0, start
        while a < end:
            b = min(a + WINDOW_S, end)
            inside = self.samples[bisect.bisect_left(self.starts, a):bisect.bisect_right(self.ends, b)]
            probe_s = statistics.median(inside if len(inside) >= MIN_SAMPLES else self.samples)
            total += (b - a - self.busy_within(a, b)) * REFERENCE_S / probe_s
            a = b
        return total
