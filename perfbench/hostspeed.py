"""Host speed, sampled while the benchmark runs, to express times at a fixed speed.

The benchmark runs on a few vCPUs of a shared host whose speed drifts: the
same operation takes up to twice as long for seconds or minutes at a time,
depending on what other tenants do.  Raw wall times then spread across runs
more than any useful regression bound.

``HostSpeed`` runs a small fixed kernel from a timer signal every
``PERIOD_S`` seconds while a phase of the benchmark runs, so the samples are
spread evenly over the phase's wall time, inside the program's operations as
well as between them.  The kernel is owned by the benchmark and never changes
with the program: pure-Python arithmetic on a small dual-number class, the
kind of work dlgeom's forward-mode derivatives do, which slows down with the
host in the same proportion as dlgeom does.

The speed of a phase is ``REF_KERNEL_S`` times the mean of 1/kernel time over
its samples: 1 when the host runs at the reference speed, below 1 when it is
slower.  A wall time times the speed is the time the same work would take at
the reference speed ("reference seconds").  The process is pinned to one CPU
first, so the kernel samples the CPU that runs the work, child processes
included.
"""

from __future__ import annotations

import os
import signal
import statistics
import time

#: time between kernel samples
PERIOD_S = 0.05
#: kernel time at the reference speed: the fast state of a 2.0 GHz Xeon vCPU
#: under CPython 3.11 (0.24 ms; 0.46 ms in its slow state)
REF_KERNEL_S = 2.4e-4
KERNEL_STEPS = 400


class _Dual:
    __slots__ = ("re", "eps")

    def __init__(self, re, eps):
        self.re = re
        self.eps = eps

    def __add__(self, other):
        return _Dual(self.re + other.re, self.eps + other.eps)

    def __mul__(self, other):
        return _Dual(self.re * other.re, self.re * other.eps + self.eps * other.re)


def kernel() -> float:
    """The fixed reference work."""
    x = _Dual(0.5, 1.0)
    acc = _Dual(0.0, 0.0)
    for _ in range(KERNEL_STEPS):
        acc = acc + x * x
    return acc.eps


def pin_to_one_cpu() -> int:
    """Pin this process (and the children it starts later) to one CPU."""
    cpu = min(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


class HostSpeed:
    """Kernel samples taken on a timer while the context is entered."""

    def __init__(self):
        self.kernel_s: list[float] = []
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        kernel()
        self.kernel_s.append(time.perf_counter() - t0)

    def __enter__(self) -> "HostSpeed":
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def mark(self) -> int:
        """A position in the samples, to read a phase's samples later."""
        return len(self.kernel_s)

    def kernel_time(self, since: int = 0) -> float:
        """Wall time spent in the kernel since a mark."""
        return sum(self.kernel_s[since:])

    def speed(self, since: int = 0) -> float:
        """Mean speed relative to the reference since a mark (1 when unsampled)."""
        samples = self.kernel_s[since:]
        if not samples:
            return 1.0
        return REF_KERNEL_S * statistics.fmean(1.0 / k for k in samples)
