"""Host-speed calibration: what makes the timings repeat on a shared box.

The benchmark runs on two cores shared with other tenants. With no
steal time showing, one and the same pure-Python loop takes from 1.0 to
1.6 times its best time, in phases that last from a tenth of a second
to minutes; whole runs of one workload, same seed, same code, came out
between 4.2 s and 8.0 s. No median over a run's repetitions removes a
slowdown that outlasts the run.

So the child times its work in parts of about 0.1 s and, between parts,
times a fixed loop of the operations the simulator lives on (heap
pushes and pops of objects ordered by ``__lt__``, dict and array item
reads, a clipped scalar lognormal draw, a masked scan). A part's
*calibrated* time is its raw time divided by how much slower than
:data:`NOMINAL_S` the loops around it ran. Measured here on
``paper_scale`` and ``hifi_replay``: raw run times of one seed spread
with a coefficient of variation of 6-13 %, calibrated ones 2-3 %, and
the per-part median over three repetitions 1 %.

A calibrated second is a second of this host when nobody else is on it.
The loop belongs to the benchmark, not the program: a change to
``repro`` cannot alter it, so calibrated times compare across commits.
"""

from __future__ import annotations

import heapq
import statistics
import time
from typing import Callable

import numpy as np

#: What :func:`calibrate` takes on this host undisturbed (the smallest
#: of several hundred samples), in seconds.
NOMINAL_S = 0.0039

#: A part shorter than this reuses the previous sample of host speed.
RESAMPLE_AFTER_S = 0.05


class _Item:
    __slots__ = ("time", "seq")

    def __init__(self, time: float, seq: int) -> None:
        self.time = time
        self.seq = seq

    def __lt__(self, other: "_Item") -> bool:
        return self.time < other.time or (self.time == other.time and self.seq < other.seq)


_ITEMS = [_Item((i * 7919) % 1013, i) for i in range(3200)]
_FREE = np.ones(8192)
_RNG = np.random.default_rng(0)


def calibrate() -> float:
    """Host seconds one pass of the fixed loop takes right now."""
    start = time.perf_counter()
    heap: list[_Item] = []
    table = {}
    for item in _ITEMS:
        heapq.heappush(heap, item)
        if item.seq % 25 == 0:
            table[item.seq] = float(np.clip(_RNG.lognormal(0.0, 1.0, size=1), 0.1, 10.0)[0])
        else:
            table[item.seq] = item.seq * 0.5
    total = 0.0
    while heap:
        item = heapq.heappop(heap)
        total += table[item.seq] + _FREE.item(item.seq)
    np.flatnonzero((_FREE + 1e-9 >= 0.5) & (_FREE * total >= 0.0))
    return time.perf_counter() - start


class Stopwatch:
    """Times consecutive parts of one repetition, sampling the host's
    speed between them with ``sample`` (the traced child passes
    :func:`calibrate` wrapped in a span)."""

    def __init__(self, sample: Callable[[], float] = calibrate) -> None:
        #: raw host seconds of each part, by kind ("setup" or "run")
        self.parts: dict[str, list[float]] = {"setup": [], "run": []}
        # index of the last speed sample taken before each part
        self._sample_before: dict[str, list[int]] = {"setup": [], "run": []}
        self._sample = sample
        self._samples = [sample(), sample()]
        self._mark = self._sampled = time.perf_counter()

    def add(self, kind: str, seconds: float) -> None:
        """A part timed elsewhere, before this watch existed."""
        self.parts[kind].append(seconds)
        self._sample_before[kind].append(0)

    def lap(self, kind: str) -> None:
        """The part since the last lap (or construction) ends here."""
        now = time.perf_counter()
        self.parts[kind].append(now - self._mark)
        self._sample_before[kind].append(len(self._samples) - 1)
        if now - self._sampled >= RESAMPLE_AFTER_S:
            self._samples.append(self._sample())
            self._sampled = time.perf_counter()
        self._mark = time.perf_counter()

    def slowdowns(self, kind: str) -> list[float]:
        """For each part, how much slower than nominal the host was:
        the median of the two speed samples before and the two after
        it (single samples catch the shortest disturbances, which a
        0.1 s part averages out), over :data:`NOMINAL_S`."""
        return [
            statistics.median(self._samples[max(0, index - 1) : index + 3]) / NOMINAL_S
            for index in self._sample_before[kind]
        ]
