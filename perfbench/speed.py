"""CPU speed samples, to express measured times in reference-CPU seconds.

On a shared virtual machine the speed of one virtual CPU drifts by tens of
percent over minutes (a fixed loop was seen to take anywhere from 0.062 s
to 0.096 s over six minutes, independently on each of two CPUs), which is
far more than the run-to-run differences this benchmark must resolve. So
every time the benchmark reports is scaled by the speed of the CPU it ran
on, sampled while it ran: a fixed pure-Python kernel is timed in thread
CPU time, and a measured time t becomes t * REF_KERNEL_S / kernel_s. The
raw times are reported alongside.
"""

from __future__ import annotations

import signal
import statistics
import time

# Kernel CPU time that defines one reference second (the median of this
# kernel on the 2-vCPU Xeon VM where the benchmark was written).
REF_KERNEL_S = 2.0e-4
SAMPLE_PERIOD_S = 0.05


def kernel() -> int:
    """Fixed mix of integer and complex arithmetic, about 0.2 ms."""
    s = 0
    x = 0.5 + 0.1j
    for i in range(1000):
        s += i * i
        x = x * 0.999 + 0.001j
    return s + int(x.real)


def timed_kernel() -> float:
    t = time.thread_time()
    kernel()
    return time.thread_time() - t


def scale(kernel_s: float) -> float:
    """Factor that turns a time measured at this kernel time into reference seconds."""
    return REF_KERNEL_S / kernel_s


class Sampler:
    """Times the kernel every SAMPLE_PERIOD_S in the main thread.

    The samples run from a SIGALRM handler, so they measure the CPU the
    main thread is on at that moment; thread CPU time keeps out time the
    thread spent preempted. Samples cost about 0.4% of the measured time.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []

    def _handler(self, signum, frame):
        start = time.perf_counter()
        self.samples.append((start, timed_kernel()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD_S, SAMPLE_PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)

    def kernel_s(self, start: float, end: float) -> float:
        """Median kernel time sampled in [start, end); one sample now if none."""
        inside = [k for t, k in self.samples if start <= t < end]
        return statistics.median(inside) if inside else timed_kernel()
