"""Processor-speed probe: timings expressed at a fixed reference speed.

The processors this benchmark runs on change speed by up to 2x within
minutes (shared hosts), far more than the changes it must resolve.  So a
fixed piece of reference work runs every ``INTERVAL_S`` of wall time from a
SIGALRM handler, on the same processor and in the same process as the
workload, and every timing is rescaled by how long the reference took around
it:

    normalized = raw * NOMINAL_S / mean(reference seconds within WINDOW_S)

A normalized second is a second on a machine where the reference work takes
``NOMINAL_S``.  The handler's own time is subtracted from the timed calls it
interrupts.  Raw timings are reported alongside.
"""

from __future__ import annotations

import argparse
import bisect
import json
import signal
import time
from fractions import Fraction

INTERVAL_S = 0.05
NOMINAL_S = 0.002
WINDOW_S = 0.5


_PARSER = argparse.ArgumentParser(prog="reference")
_PARSER.add_argument("--cells", type=int)
_PARSER.add_argument("--init", default="all")
_PARSER.add_argument("--dilate", action="store_true")
_ARGV = ["--cells", "64", "--init", "cells:1,2,3", "--dilate"]
_DOC = {"limit_set": [[{"num": str(i), "den": "8"}] for i in range(12)],
        "verdicts": {f"v{i}": {"state": "holds"} for i in range(12)}}


_POINTS = [(Fraction(2 * i + 1, 64), Fraction(i, 7)) for i in range(16)]


def reference_work() -> int:
    """Fixed interpreter work shaped like the workloads' mix.

    Max-norm distances between sets of exact points (the library's hottest
    arithmetic), bit masks, dict and string building, sorting, JSON and
    argparse, all from the standard library, so the program under test
    cannot change it.
    """
    far = max(min(max(abs(p - q) for p, q in zip(a, b)) for b in _POINTS[8:])
              for a in _POINTS[:8])
    x = Fraction(0)
    mask = 0
    seen = {}
    for i in range(1, 100):
        x += Fraction(i % 7 + 1, i % 11 + 2)
        mask = (mask | 1 << (i * 7 % 61)) & ~(mask >> 3)
        seen[f"k{i}"] = bin(mask).count("1")
    rows = sorted(((i * 7919) % 503, i) for i in range(400))
    text = json.dumps(_DOC, sort_keys=True)
    args = _PARSER.parse_args(_ARGV)
    return (far.denominator + x.denominator + len(seen) + rows[0][1]
            + len(json.loads(text)) + args.cells)


class SpeedProbe:
    """Samples the reference work while active; ``stolen`` is its total time."""

    def __init__(self):
        self.times = []      # end time of each sample
        self.costs = []      # seconds the reference work took
        self.stolen = 0.0
        self.busy = False

    def sample(self, *_):
        if self.busy:  # a signal arrived during a sample
            return
        self.busy = True
        t0 = time.perf_counter()
        reference_work()
        t1 = time.perf_counter()
        self.times.append(t1)
        self.costs.append(t1 - t0)
        self.stolen += time.perf_counter() - t0
        self.busy = False

    def burst(self, seconds: float):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            self.sample()

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def factors(self, spans):
        """NOMINAL_S / local mean reference cost, for each (start, end) span.

        Call after the probe has stopped.
        """
        prefix = [0.0]
        for c in self.costs:
            prefix.append(prefix[-1] + c)
        overall = prefix[-1] / len(self.costs)
        out = []
        for start, end in spans:
            lo = bisect.bisect_left(self.times, start - WINDOW_S)
            hi = bisect.bisect_right(self.times, end + WINDOW_S)
            mean = (prefix[hi] - prefix[lo]) / (hi - lo) if hi > lo else overall
            out.append(NOMINAL_S / mean)
        return out
