"""Times normalised by the host speed, sampled while they run.

The host's speed swings between two levels about 1.4-1.7x apart, in
phases from under a second to tens of seconds, and process CPU time swings
with it, so neither wall nor CPU time of one call is comparable between
runs.  A :class:`SpeedSampler` therefore interrupts the process every
SAMPLE_INTERVAL_S with a timer signal and times a short reference loop
of small-array numpy calls in the handler.  A span of wall time is then converted to
the time it would have taken at the reference speed: each stretch between
two samples is divided by the slowness measured around it (sample time
over REFERENCE_S), and the samples' own time is left out.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

SAMPLE_INTERVAL_S = 0.02
REFERENCE_ITERATIONS = 150
# Time of the loop below in a fast phase of the 2-vCPU host the benchmark
# was calibrated on (Python 3.11, numpy 2.4); normalised times are seconds
# at that speed.
REFERENCE_S = 0.00055


def _reference_loop(n):
    """Small-array numpy calls, the kind that dominate netmesh's geometry code.

    Of the reference loops tried, this one tracked the speed of netmesh's
    intersection sweep best: the ratio of the two varied three to five
    times less than pure-Python dictionary loops did.
    """
    acc = 0.0
    for i in range(n):
        corners = np.asarray([[0.0, 1.0, 2.0], [1.0, 2.0, float(i & 7)]])
        edge = corners[1:] - corners[0]
        acc += float((edge @ edge.T)[0, 0])
    return acc


class SpeedSampler:
    """Samples the reference loop on a timer signal between ``start`` and ``stop``."""

    def __init__(self):
        self.samples = []  # (start, end) of each reference loop
        self._previous = None

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        _reference_loop(REFERENCE_ITERATIONS)
        self.samples.append((t0, time.perf_counter()))

    def start(self):
        self._previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous or signal.SIG_DFL)

    def forget_before(self, t):
        """Drop samples that ended before ``t`` (keeps memory bounded)."""
        keep = [s for s in self.samples if s[1] >= t]
        self.samples[:] = keep

    def normalised(self, t0, t1):
        """Seconds the stretch [t0, t1] would take at the reference speed."""
        samples = self.samples
        if len(samples) < 3:
            raise RuntimeError("too few speed samples; is the sampler running?")
        durations = [end - start for start, end in samples]
        # median of three neighbours drops a sample that was preempted
        slowness = [
            statistics.median(durations[max(0, i - 1) : i + 2]) / REFERENCE_S
            for i in range(len(durations))
        ]
        inside = [i for i, (start, end) in enumerate(samples) if start >= t0 and end <= t1]
        if not inside:
            nearest = min(range(len(samples)), key=lambda i: abs(samples[i][0] - t0))
            return (t1 - t0) / slowness[nearest]
        total = 0.0
        cursor, factor = t0, slowness[inside[0]]
        for i in inside:
            start, end = samples[i]
            total += (start - cursor) / (0.5 * (factor + slowness[i]))
            cursor, factor = end, slowness[i]
        total += (t1 - cursor) / factor
        return total

