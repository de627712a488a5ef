"""Times scaled to a fixed host speed.

The speed of a shared VM drifts by tens of percent over seconds to
minutes, with contention from other guests, which is wider than the
bounds in ``BENCHMARK.json``.  While a child measures, a ``SIGPROF``
handler runs a fixed reference loop every ``SAMPLE_EVERY_S`` of process
CPU time and records how long it took.  A measured interval is then
reported with the handler's own time taken out, times ``REFERENCE_S``
over the mean reference time inside the interval: the seconds it would
have taken at a host speed where the loop takes ``REFERENCE_S``.  A
change to the library changes the interval, not the loop, so it shows in
full.

On a 2-vCPU Xeon VM, interleaved over 150 s of report documents whose
time swung by 0.39 in log, log(document time) against log(loop time)
had slope 1.01 and correlation 0.91; scaling cut the standard deviation
of 5 s windows from 0.111 to 0.047 in log.
"""

from __future__ import annotations

import signal
import statistics
import time

SAMPLE_EVERY_S = 0.02  # of process CPU time; the loop adds about 5%
REFERENCE_S = 0.001  # about the loop's time on an idle host
MIN_SAMPLES = 10


def reference_loop() -> int:
    """Fixed work of the library's kind: big-integer arithmetic in
    interpreted Python, about a millisecond."""
    x = acc = 0
    for i in range(3000):
        x = (x * 7 + i) % (1 << 256)
        acc += x & 255
    return acc


class HostSpeed:
    """Samples the reference loop while started.

    Callers read ``mark()`` at the start of an interval, take the
    handler's time ``spent`` out of what they measured, and multiply by
    ``factor(mark)`` at its end; ``spent`` is read first, because
    ``factor`` may sample more.
    """

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds inside the handler, so far

    def _sample(self, signum=None, frame=None) -> None:
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        self.samples.append(took)
        self.spent += took

    def start(self) -> None:
        signal.signal(signal.SIGPROF, self._sample)
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)

    def mark(self) -> int:
        return len(self.samples)

    def factor(self, mark: int) -> float:
        """``REFERENCE_S`` / mean loop time since ``mark``.  A short
        interval is topped up to ``MIN_SAMPLES`` right after it ends."""
        while len(self.samples) - mark < MIN_SAMPLES:
            self._sample()
        return REFERENCE_S / statistics.fmean(self.samples[mark:])


class FixedSpeed(HostSpeed):
    """No sampling and no scaling, for the traced run: its spans and its
    traced/untraced ratio stay free of the handler."""

    def start(self) -> None:
        pass

    def stop(self) -> None:
        pass

    def factor(self, mark: int) -> float:
        return 1.0
