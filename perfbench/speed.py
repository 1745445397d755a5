"""Host speed probe: rescales a measured time to a fixed reference speed.

On a shared host the processor's speed drifts by a quarter or more over
seconds to minutes, and every pass slows or speeds up with it.  While a
timed region runs, a timer signal every PERIOD_S interrupts it and times
a fixed pure-Python loop that belongs to the benchmark, not the program.
The median of those samples is the host's speed during that region.
`SpeedProbe.scaled` gives the region's time, less the time spent in the
probe, as it would read on a host where the loop takes REFERENCE_S: a
change in the program still moves it one for one, a change in the
host's speed mostly cancels.

On the 2-vCPU VM where this was set up, a noisy_sweep pass and the probe
taken during it correlated at 0.93 to 0.95 across passes; the pass time
varied by 13.7 % (coefficient of variation), the scaled time by 5.1 %.
"""
from __future__ import annotations

import signal
import statistics
from time import perf_counter

#: Seconds between two samples; each sample takes about 1 % of that.
PERIOD_S = 0.02
#: The loop's median time on the VM where the baseline was measured, so
#: that a scaled time reads in that host's seconds at its typical speed.
REFERENCE_S = 180e-6
#: A region too short for the timer to fire this often is sampled after it.
MIN_SAMPLES = 3

_active: list[list[float]] = []


def _loop() -> int:
    acc = 0
    for i in range(2000):
        acc = (acc * 31 + i) & 0xFFFF
    return acc


def _sample(samples: list[float]) -> None:
    began = perf_counter()
    _loop()
    samples.append(perf_counter() - began)


def _on_alarm(signum, frame) -> None:
    if _active:
        _sample(_active[-1])


class SpeedProbe:
    """Context manager that samples the host's speed while its block runs."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent_s = 0.0  # time the block spent inside the probe

    def __enter__(self) -> SpeedProbe:
        signal.signal(signal.SIGALRM, _on_alarm)
        _active.append(self.samples)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        _active.pop()
        self.spent_s = sum(self.samples)
        while len(self.samples) < MIN_SAMPLES:
            _sample(self.samples)

    def scaled(self, seconds: float) -> float:
        """`seconds`, measured around the block, at the reference speed."""
        return (seconds - self.spent_s) * REFERENCE_S / statistics.median(self.samples)
