"""Machine-speed probe: timings in seconds at a fixed reference speed.

The shared hosts this benchmark runs on change speed by large factors over
seconds to minutes: the same pure-Python loop was measured at 50 ms and at
75 ms within one minute, and one symbolic-cold round at 10.2 s and, an hour
later, at 5.7 s.  Steal time stayed at zero, so process CPU time drifts in
the same way.  No run length averages that out.

So every timing is taken next to a fixed pure-Python probe loop, run in the
same process between ops (at least every PROBE_EVERY_S of measured work),
and reported as

    measured seconds * PROBE_REF_S / (mean of the two probes around it)

that is, in seconds on a machine where the probe takes PROBE_REF_S.  The
probe is benchmark code, so it is identical on every commit compared.  The
raw, unscaled figures are printed next to the scaled ones.
"""

from __future__ import annotations

from time import perf_counter

PROBE_REF_S = 0.001
PROBE_EVERY_S = 0.25


def probe() -> float:
    """Mean time of a fixed integer loop (about 1 ms), over the 5 fastest of 7 runs.

    The host interrupts a process for 8-20 ms at random, which only ever adds
    time, so the two slowest runs are dropped.  A minimum would go too far:
    the host also flips between a fast and a slow state within milliseconds,
    and the mean of the rest follows the mix of the two.
    """
    times = []
    for _ in range(7):
        t0 = perf_counter()
        acc = 0
        for i in range(12_000):
            acc += i * i % 7
        times.append(perf_counter() - t0)
    return sum(sorted(times)[:5]) / 5


class Scaler:
    """Collects op timings and scales each segment by the probes that bracket it."""

    def __init__(self) -> None:
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.probes: list[float] = [probe()]
        self._segment: list[float] = []

    def add(self, seconds: float) -> None:
        self._segment.append(seconds)
        if sum(self._segment) >= PROBE_EVERY_S:
            self.flush()

    def flush(self) -> None:
        if not self._segment:
            return
        self.probes.append(probe())
        factor = PROBE_REF_S / ((self.probes[-2] + self.probes[-1]) / 2)
        self.raw += self._segment
        self.scaled += [x * factor for x in self._segment]
        self._segment = []
