"""Speed-normalised timing for machines whose core speed drifts.

On a shared host the speed of a core can swing by up to 1.9x within
seconds, as neighbours come and go, and every clock the process can read
(wall, CPU) slows with it. Raw times of identical passes then spread by
20-40%, more than any useful regression bound. So while a run measures,
a SIGALRM timer runs a tiny fixed probe every ``PERIOD`` seconds, in
the benchmark's own thread, and each measured interval is reported as

    (interval - probe time inside it) * mean(REF_PROBE_S / probe time)

over the probes that ran during it (and the ``LOOKBACK`` before it, so a
short interval still has a few). That is the interval's length at the
probe speed ``REF_PROBE_S``: seconds on a core running as fast as the
reference core. The probe does what the dispatch kernel does most,
scalar reads and writes of a small float64 array, so it slows with the
same contention; it is the benchmark's own code, so no change to ucdkit
can move it. Raw times are printed alongside.
"""

from __future__ import annotations

import bisect
import signal
import time

import numpy as np

PERIOD = 0.02
LOOKBACK = 0.1
# probe time on an unloaded core of the machine the benchmark was
# calibrated on (2-vCPU Linux VM, Python 3.11, numpy 2.4)
REF_PROBE_S = 1.5e-4

_ARRAY = np.linspace(1.0, 2.0, 8)


def probe_work():
    x = _ARRAY.copy()
    acc = 0.0
    for i in range(40):
        for j in range(8):
            acc += x[j] * x[j] - 0.5 * x[(j + i) % 8]
        x[i % 8] = acc * 1e-9
    return acc


class RawClock:
    """Unnormalised: an interval's length is its length."""

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def span(self, a, b):
        return b - a, b - a


class SteadyClock:
    """Context manager running the probe; ``span(a, b)`` gives an
    interval's (raw, normalised) length."""

    def __init__(self):
        self.starts = []
        self.cum = [0.0]        # running sum of probe times
        self.rates = [0.0]      # running sum of REF_PROBE_S / probe time
        self._old = None

    def _probe(self, signum, frame):
        t0 = time.perf_counter()
        probe_work()
        dt = time.perf_counter() - t0
        self.starts.append(t0)
        self.cum.append(self.cum[-1] + dt)
        self.rates.append(self.rates[-1] + REF_PROBE_S / dt)

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._probe)
        signal.setitimer(signal.ITIMER_REAL, PERIOD, PERIOD)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._old)
        return False

    def span(self, a, b):
        raw = b - a
        lo, hi = bisect.bisect_left(self.starts, a), bisect.bisect_left(self.starts, b)
        raw -= self.cum[hi] - self.cum[lo]
        first = bisect.bisect_left(self.starts, a - LOOKBACK)
        n = hi - first
        if n == 0:
            return raw, raw
        return raw, raw * (self.rates[hi] - self.rates[first]) / n
