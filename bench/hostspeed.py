"""Host speed, sampled inside each measured process, and times scaled by it.

A shared host runs the same process up to twice as slowly in stretches
that last from seconds to minutes, so raw times of one run say more about
the host than about the program.  Each measured process therefore times a
fixed pure-Python loop, the speed probe, when it starts, every
``PERIOD_S`` seconds while it works, and when it is done.  The parent
scales each interval it reports by the probe times taken around it:

    scaled = sum over the interval's pieces of  piece / slowdown

where the slowdown of a piece is the nearest probe's time divided by
``REF_PROBE_S``.  A scaled time reads in seconds at the host speed at
which the probe takes ``REF_PROBE_S``; a program change moves it as much
as it moves the raw time, because the probe runs none of the program.
The time the probes themselves take is left out.
"""

from __future__ import annotations

import bisect
import json
import signal
import time

PROBE_ITERS = 3000
# Median probe time on a 2-vCPU x86 guest in its fast stretches.
REF_PROBE_S = 4.5e-4
PERIOD_S = 0.25


def probe_time() -> float:
    """Seconds one round of the speed probe takes: dictionary updates,
    the interpreter work hallzero is mostly made of."""
    t0 = time.perf_counter()
    d: dict[int, int] = {}
    for i in range(PROBE_ITERS):
        d[i & 511] = d.get(i & 511, 0) + i
    return time.perf_counter() - t0


class Sampler:
    """Probe samples [start, end, probe_s] of one process."""

    def __init__(self) -> None:
        self.samples: list[list[float]] = []

    def sample(self, rounds: int = 3) -> None:
        t0 = time.perf_counter()
        probe_s = sorted(probe_time() for _ in range(rounds))[rounds // 2]
        self.samples.append([t0, time.perf_counter(), probe_s])

    def start_timer(self) -> None:
        """Sample every PERIOD_S from a SIGALRM handler, for code that this
        process does not drive itself."""
        signal.signal(signal.SIGALRM, lambda *_: self.sample())
        signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)

    def stop_timer(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def dump(self, path: str) -> None:
        with open(path, "w") as handle:
            json.dump(self.samples, handle)


class Scale:
    """Scales intervals of one process's life by its probe samples."""

    def __init__(self, samples: list[list[float]]) -> None:
        if not samples:
            raise RuntimeError("a measured process left no speed samples")
        self.samples = sorted(samples)
        mids = [(s[0] + s[1]) / 2 for s in self.samples]
        # Sample i stands for the host from halfway to its predecessor
        # to halfway to its successor.
        self.edges = [(a + b) / 2 for a, b in zip(mids, mids[1:])]
        self.slow = [s[2] / REF_PROBE_S for s in self.samples]

    def __call__(self, a: float, b: float) -> float:
        """Seconds of [a, b], probes left out, at the reference speed."""
        total = 0.0
        bounds = [float("-inf"), *self.edges, float("inf")]
        first = bisect.bisect_right(self.edges, a)
        for i in range(first, len(self.samples)):
            lo, hi = max(a, bounds[i]), min(b, bounds[i + 1])
            if lo >= b:
                break
            if hi > lo:
                total += (hi - lo) / self.slow[i]
        for (s0, s1, _), slow in zip(self.samples, self.slow):
            lo, hi = max(a, s0), min(b, s1)
            if hi > lo:
                total -= (hi - lo) / slow
        return total
