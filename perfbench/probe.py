"""Host-speed probe: how fast the host ran while an operation was timed.

The benchmark runs on a few cores of a shared host whose speed changes by a
third or more from minute to minute with its neighbours' load. Wall and CPU
times of the same code then differ more between runs than any useful
regression bound. The probe measures that speed while the program runs: a
SIGALRM timer interrupts the process every `PERIOD_S`, and the handler times
one of two fixed loops, a pure-Python one and one of small numpy calls
(the two kinds of work gmacsec does most). A run reports its times scaled
to the reference speed, at which the loops take `REFERENCE_S`:

    scaled = (measured - probe time inside it) / slowdown
    slowdown = geometric mean over the two loops of (mean loop time / reference)

so a program change that does twice the work still reads twice as slow,
while a host that runs everything a third slower does not. The loops are
the benchmark's own code and call nothing from gmacsec. Python handles the
signal in the main thread between bytecodes, so a long C call delays the
next sample, and the ticks that fall inside it give one sample.
"""

from __future__ import annotations

import math
import signal
import time

import numpy as np

PERIOD_S = 0.005
# The reference speed: round figures near the loops' fastest mean times on
# a shared 2-CPU Intel Xeon VM with Python 3.11.7 and numpy 2.4.6.
REFERENCE_S = {"python": 100e-6, "numpy": 250e-6}

_SMALL = np.full((2, 3, 2), 1.0 / 12.0)


def _python_loop():
    total = 0
    for i in range(1500):
        total += i * i
    return total


def _numpy_loop():
    total = 0.0
    for _ in range(20):
        p = _SMALL / _SMALL.sum(axis=(1, 2), keepdims=True)
        logs = np.log2(p, where=p > 0, out=np.zeros_like(p))
        total += float((p * logs).sum())
    return total


_LOOPS = (("python", _python_loop), ("numpy", _numpy_loop))


class SpeedProbe:
    """Samples of both loops' durations, taken on a timer while started."""

    def __init__(self):
        self.samples = {name: [] for name, _ in _LOOPS}
        self.spent = 0.0          # seconds the handler took, to subtract
        self._ticks = 0
        self._busy = False

    def _tick(self, signum, frame):
        if self._busy:            # a tick that lands inside the handler
            return
        self._busy = True
        start = time.perf_counter()
        name, loop = _LOOPS[self._ticks % len(_LOOPS)]
        self._ticks += 1
        loop()
        end = time.perf_counter()
        self.samples[name].append(end - start)
        self.spent += time.perf_counter() - start
        self._busy = False

    def start(self):
        """Start sampling; `stop` reports on the interval from here."""
        self._mark = {name: len(s) for name, s in self.samples.items()}, self.spent
        signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop(self):
        """Stop sampling. Returns (slowdown, handler seconds) since `start`;
        slowdown is None when a loop has no sample in that interval."""
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        counts, spent = self._mark
        factors = []
        for name, samples in self.samples.items():
            recent = samples[counts[name]:]
            if not recent:
                return None, self.spent - spent
            factors.append(math.fsum(recent) / len(recent) / REFERENCE_S[name])
        return math.prod(factors) ** (1.0 / len(factors)), self.spent - spent

    def loop_means(self):
        """Mean seconds of each loop over every sample taken."""
        return {name: math.fsum(s) / len(s) if s else None
                for name, s in self.samples.items()}
