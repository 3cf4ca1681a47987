"""The machine's speed, sampled through a run, so that times read at one reference speed.

The host shares its cores: the same fixed work takes 0.19 s or 0.35 s, and
the machine switches between the two speeds every few seconds.  A run that
happens to fall in slow stretches would read up to 1.8 times slower with
the same code.  So a fixed kernel, which calls nothing in gbcbound, is timed
before every operation and after the last, and each measured time is scaled
by REFERENCE_S over the mean kernel time of the samples just before and just
after it.  A set-up probe, a fresh interpreter, runs the kernel itself
just before and just after its own work.  The kernel does the kind of work
the supremum does, an exhaustive ordered grid over the functional in plain
Python floats, so the two slow down alike.  Raw times are reported beside
the scaled ones.
"""

from __future__ import annotations

import bisect
import itertools
import math
from time import perf_counter
from types import SimpleNamespace

# Kernel time at the reference speed: its median at the fast speed of a
# 2-vCPU Intel Xeon virtual machine at 2.0 GHz (Python 3.11).  Scaled times
# are those that machine gives at its fast speed.
REFERENCE_S = 0.0018

_SCENARIO = SimpleNamespace(noises=(4.0, 2.0, 1.0), source_var=2.0, bandwidth=1.7)
_D = (0.9, 0.7, 0.55)
_AXIS = [i / 15 for i in range(15)]


def reference_lhs(sc, d, taus) -> float:
    """The outer-bound functional written out from its definition.

    The output checks compare gbcbound against it, and the kernel runs it.

    A prefix of m infinite entries is the shared-rate limit: those terms
    tend to dN_k, leaving (N_1 - N_{m+1}) plus the suffix system.
    """
    taus = [float(t) for t in taus]
    m = sum(1 for t in taus if math.isinf(t))
    noises, d, taus = sc.noises[m:], list(d)[m:], taus[m:]
    deltas = [a - c for a, c in zip(noises, noises[1:])] + [noises[-1]]
    total = sc.noises[0] - noises[0]
    ratio = 1.0 / (d[0] + taus[0])
    for k, dn in enumerate(deltas):
        if k:
            ratio *= (d[k] + taus[k - 1]) / (d[k] + taus[k])
        total += dn * ((sc.source_var + taus[k]) * ratio) ** (1.0 / sc.bandwidth)
    return total


def kernel() -> float:
    """Largest functional value over an ordered 15-point grid, four times over."""
    best = -math.inf
    for _ in range(4):
        for t in itertools.product(_AXIS, repeat=2):
            if t[0] >= t[1]:
                taus = [x / (1.0 - x) for x in t] + [0.0]
                best = max(best, reference_lhs(_SCENARIO, _D, taus))
    return best


class Speed:
    """Kernel times, each stamped with when it ended."""

    def __init__(self) -> None:
        self.ends: list[float] = []
        self.durations: list[float] = []

    def sample(self) -> None:
        start = perf_counter()
        kernel()
        end = perf_counter()
        self.ends.append(end)
        self.durations.append(end - start)

    def scale(self, start: float, end: float) -> float:
        """Factor taking a time measured over [start, end] to the reference speed."""
        before = bisect.bisect_right(self.ends, start) - 1
        after = bisect.bisect_left(self.ends, end)
        around = [self.durations[i] for i in (before, after) if 0 <= i < len(self.ends)]
        return REFERENCE_S * len(around) / sum(around)
