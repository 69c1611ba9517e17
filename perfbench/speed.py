"""Solve time in reference seconds, steady on a machine whose speed drifts.

The machine this benchmark was written on is shared. How fast it runs the same
code moves by tens of percent from one second to the next, and most code moves
with it (see README.md, "The clock"). A fixed probe, a little pure
Python and small-array numpy work that never touches mobb, is timed before a
solve, after it, and every ``PERIOD_S`` of wall time while it runs, from a
SIGALRM handler. The probe's mean time says how fast the machine ran, so

    reference seconds = work seconds * REFERENCE_PROBE_S / mean probe seconds

is the time the solve would take at the speed where one probe takes
``REFERENCE_PROBE_S``. Work seconds are the wall seconds less the pauses the
probes made. The probe's work is fixed here, so a change to mobb cannot move
it. Signal handlers run in the main thread only, and so must ``Meter``.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

PERIOD_S = 0.25
PY_STEPS = 10_000
NP_STEPS = 700
# median probe time on an idle 2-vCPU x86_64 box (Intel Xeon, Python 3.11.7,
# numpy 2.4.6); it only scales the reported seconds
REFERENCE_PROBE_S = 0.0124

_M = np.random.default_rng(0).random((12, 24))
_V = np.random.default_rng(1).random(24)


def probe() -> float:
    """Run the fixed probe work and return the seconds it took."""
    t0 = time.perf_counter()
    counts, acc = {}, 0
    for i in range(PY_STEPS):
        counts[i % 97] = counts.get(i % 97, 0) + i
        acc += (i * 7) ^ (acc >> 3)
    total = 0.0
    # the probe may run inside a solve, under whatever error state mobb set
    with np.errstate(all="ignore"):
        for _ in range(NP_STEPS):
            w = _M @ _V
            total += float(w[w > w[int(np.argmin(w))] + 0.1].sum())
    return time.perf_counter() - t0


def reference_seconds(work: float, probes) -> float:
    """``work`` wall seconds at the speed the ``probes`` times show, rescaled."""
    return work * REFERENCE_PROBE_S / statistics.fmean(probes)


class Meter:
    """Times the ``with`` block: ``wall``, ``work`` and reference ``seconds``.

    With ``probing=False`` it takes no probes, and all three are wall seconds;
    traced passes use that, so that no probe pauses inside a span.
    """

    def __init__(self, probing: bool = True):
        self.probing = probing
        self.probes = []

    def __enter__(self):
        if self.probing:
            self.probes.append(probe())
            self._saved = signal.signal(signal.SIGALRM, self._tick)
            signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        self._start = time.perf_counter()
        return self

    def _tick(self, signum, frame):
        self.probes.append(probe())

    def __exit__(self, *exc):
        self.wall = time.perf_counter() - self._start
        self.work = self.seconds = self.wall
        if self.probing:
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, self._saved)
            self.work -= sum(self.probes[1:])
            self.probes.append(probe())
            self.seconds = reference_seconds(self.work, self.probes)
        return False
