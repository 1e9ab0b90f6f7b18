"""CPU speed calibration, so that timings from a shared host compare.

A virtual machine on a shared host can run the same code half as fast for
a second or two at a time, and a few tens of percent slower for minutes.
A run's timings would then say more about the host than about the
program.  So while a request runs, the benchmark runs a fixed pure-Python
kernel every INTERVAL_S on the same CPU, and reports the request's CPU
time scaled by the mean of REFERENCE_S / (kernel time) over the samples
taken while it ran: the time the request would take on a host where one
kernel run always takes REFERENCE_S.  The mean, not the median, because a
request that ran partly in a slow spell did part of its work slowly.
The kernel does the kinds of work the package does (table lookups, dict
counting, tuples, big-integer arithmetic) and imports nothing from it, so
no change to the package can move it.
"""
from __future__ import annotations

import gc
import os
import statistics
import time

# Median CPU seconds of one kernel run on the machine the benchmark was
# tuned on (2 vCPUs of a shared Intel Xeon host, Python 3.11).  Scaled
# times read as seconds on that machine at its usual speed.
REFERENCE_S = 0.00245
INTERVAL_S = 0.05  # pause between samples while a process runs
MARGIN_S = 0.05   # samples this close to a request also count for it
WARMUP_RUNS = 3


def kernel():
    """A fixed amount of interpreter work; returns a checksum."""
    n = 90
    table = [[(i * j + 3 * i + j) % n for j in range(n)] for i in range(n)]
    counts = {}
    for a in range(n):
        row = table[a]
        for b in range(n):
            c = row[table[b][a]]
            key = (c, a % 3)
            counts[key] = counts.get(key, 0) + 1
    x, coeffs = 1, [0] * 12
    for k in range(1500):
        x = (x * 1000003 + k) % 2305843009213693951
        coeffs[k % 12] += x >> 40
    return len(counts) + sum(coeffs) % 7


class Sampler:
    """Kernel timings of one run, each with the monotonic time it ended."""

    def __init__(self):
        self.samples = []   # (time.monotonic(), CPU seconds of one kernel)
        # the interpreter specialises a function's code over its first
        # calls, so the first runs are slower than the rest
        for _ in range(WARMUP_RUNS):
            kernel()

    def take(self):
        """Time one kernel run.  The garbage collector is off meanwhile, so
        the size of the heap does not change the figure."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.thread_time()
            kernel()
            cpu = time.thread_time() - t0
        finally:
            if enabled:
                gc.enable()
        self.samples.append((time.monotonic(), cpu))

    def factor(self, start, end):
        """The mean of REFERENCE_S / (kernel time) over the samples from
        `start` to `end` (monotonic times, widened by MARGIN_S); the
        nearest sample when none falls inside."""
        near = [cpu for t, cpu in self.samples
                if start - MARGIN_S <= t <= end + MARGIN_S]
        if not near:
            mid = (start + end) / 2
            near = [min(self.samples, key=lambda s: abs(s[0] - mid))[1]]
        return statistics.fmean(REFERENCE_S / cpu for cpu in near)


def pin():
    """Keep this process and its children on one CPU, so the kernel runs
    where the requests run."""
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
