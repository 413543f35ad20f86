"""Machine-speed sampling, to take other tenants' load out of the timings.

On a shared machine the speed of this process moves by tens of percent
within seconds, as other tenants' work comes and goes, and a slow spell can
outlast a whole pass.  While a pass runs, an interval timer interrupts it
every `INTERVAL_S` and times a fixed probe.  The probe mixes what the
package runs: pure-Python arithmetic and small numpy calls, which the
sweeps spend their time on, and one pass over 2 MiB arrays, which stands for
the memory traffic of the vectorized brute-force search.  A probe that takes
longer than `PROBE_REF_S` means the machine was slower at that moment.

`SpeedSampler.scaled` turns a measured interval into reference seconds: its
wall time, less the probes' own time, times the mean of
`PROBE_REF_S / probe time` over the probes taken in it (or that ratio for
the last probe before it, for an interval that no probe falls in).  That is the
time the interval would have taken had the machine run at the speed at which
the probe takes `PROBE_REF_S` throughout.  The probe and the constants are
the benchmark's own, so both sides of a comparison are scaled alike.
"""

from __future__ import annotations

import signal
from array import array
from time import perf_counter

import numpy as np

INTERVAL_S = 0.025
PROBE_REF_S = 1.1e-3  # the probe's typical time on the machine in baseline.json
STREAM_DOUBLES = 1 << 18  # 2 MiB per array


class SpeedSampler:
    """Times the probe at the start, every `INTERVAL_S` while active, and at the end.

    Use as a context manager around a pass, in the main thread of a process
    that uses SIGALRM for nothing else.
    """

    def __init__(self):
        self.at = array("d")
        self.took = array("d")
        self._source = np.ones(STREAM_DOUBLES)
        self._target = np.empty(STREAM_DOUBLES)
        self._previous_handler = None
        self._sampling = False

    def _sample(self, *_signal_args) -> None:
        if self._sampling:  # a tick that lands inside a probe is skipped
            return
        self._sampling = True
        t0 = perf_counter()
        self._probe()
        self.took.append(perf_counter() - t0)
        self.at.append(t0)
        self._sampling = False

    def _probe(self) -> None:
        x = np.arange(4.0)
        s = 0.0
        for i in range(2000):
            s += i * 0.5
            if not i % 8:
                x = np.sort(x) + 1.0
        np.multiply(self._source, 1.0001, out=self._target)

    def __enter__(self):
        self._sample()
        self._previous_handler = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc_info) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._sample()

    def scaled(self, start: float, end: float) -> float:
        """Seconds that [start, end] takes at the reference speed, probes excluded."""
        at = np.frombuffer(self.at, dtype=float)
        took = np.frombuffer(self.took, dtype=float)
        inside = (at >= start) & (at < end)
        busy = end - start - took[inside].sum()
        if inside.any():
            ratio = float(np.mean(PROBE_REF_S / took[inside]))
        else:
            ratio = PROBE_REF_S / took[np.searchsorted(at, start) - 1]
        return busy * ratio
