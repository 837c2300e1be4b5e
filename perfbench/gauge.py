"""Gauge of the host's speed, sampled in the measured thread while it runs.

The host is shared with other tenants' virtual machines.  Even in CPU
time, which leaves out the time the process waits, the same Python code
runs up to 1.9x slower at one moment than at another, and the slow spells
last from milliseconds to minutes (caches and sibling hardware threads
are shared).  A change to sconvex cannot change how long a fixed kernel
of the benchmark's own takes, so its time says how fast the host was.

While installed, the gauge runs that kernel from a SIGALRM handler every
``EVERY_S`` seconds, so samples fall inside long operations too.  Each
sample runs the kernel twice and times the second call, so that it
measures the host and not how much of the kernel the measured code has
pushed out of the caches.  ``cost(t0, t1)`` turns the process CPU seconds
between t0 and t1 into nominal ones: the gauge's own time is taken out,
and the rest is scaled by the mean of ``NOMINAL_S / kernel time`` over the
samples in that span (or by the last sample before t1 when none fell
inside).  That is the CPU time the span would have taken had the host run
the kernel in ``NOMINAL_S`` throughout.

The kernel does the kind of work sconvex does: it closes a set of
transformations of six points under composition, building tuples and
looking them up in a set, and stops at a fixed size.  It imports nothing
from sconvex.

The timer counts wall time, not CPU time: while a process-wide CPU timer
is armed, Linux reads the process CPU clock only at scheduler ticks.
"""

from __future__ import annotations

import signal
from time import process_time

# CPU seconds of one kernel call at the nominal speed: about its fastest
# on a 2-vCPU Xeon guest with Python 3.11.
NOMINAL_S = 0.00016
# Seconds between two samples.
EVERY_S = 0.004

_GENERATORS = ((1, 2, 3, 4, 5, 0), (1, 0, 2, 3, 4, 5), (0, 0, 2, 3, 4, 5))
_SIZE = 200


def kernel():
    """Breadth-first closure of _GENERATORS, cut at _SIZE elements."""
    seen = set(_GENERATORS)
    frontier = list(_GENERATORS)
    while frontier:
        grown = []
        for f in frontier:
            for g in _GENERATORS:
                h = tuple([g[x] for x in f])
                if h not in seen:
                    seen.add(h)
                    grown.append(h)
                    if len(seen) == _SIZE:
                        return len(seen)
        frontier = grown
    return len(seen)


class Gauge:
    """Samples as (process CPU time at the end, seconds of the timed
    kernel call, seconds of the whole sample)."""

    def __init__(self):
        self.samples = []
        self._first = 0  # samples before this one end before any later span
        self._previous = None

    def _sample(self, *_):
        start = process_time()
        kernel()  # brings the kernel's code and data back into the caches
        t0 = process_time()
        kernel()
        t1 = process_time()
        self.samples.append((t1, t1 - t0, t1 - start))

    def install(self):
        self._sample()
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def cost(self, t0, t1):
        """Nominal CPU seconds of the process between CPU times t0 and t1.

        Spans must come in order of time."""
        samples = self.samples
        i = self._first
        while i < len(samples) and samples[i][0] <= t0:
            i += 1
        last = max(i - 1, 0)
        ratios, own = [], 0.0
        while i < len(samples) and samples[i][0] <= t1:
            ratios.append(NOMINAL_S / samples[i][1])
            own += samples[i][2]
            i += 1
        self._first = i
        if not ratios:
            ratios.append(NOMINAL_S / samples[last][1])
        return (t1 - t0 - own) * sum(ratios) / len(ratios)
