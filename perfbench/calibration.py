"""A fixed piece of reference work, timed between cases to gauge the host's speed.

The host this benchmark runs on is shared: for minutes at a time, other work
on it slows everything in this process by up to a third, in CPU time as much
as in wall time, and a slowdown that covers a whole run moves every time the
run reports.  The reference work is the benchmark's own code, never the
library's, and does work of the library's kind: strided adds on a 7-qutrit
complex vector (as the driver matvec does) and pure-Python enumeration with
pairwise sums (as the oracle does).  It is timed after every case, and a
time measured during a pass is scaled by ``REFERENCE_S`` over the median of
the reference times of that pass: a slower host slows both alike, while a
slower library slows only the cases.
"""

from __future__ import annotations

import itertools
import statistics
from time import perf_counter

import numpy as np

#: Median time of ``reference_work`` between cases on the 2-vCPU VM the seed
#: numbers in README.md come from (Python 3.11.7, numpy 2.4.6, one BLAS
#: thread), when its host was least loaded.  Times scaled by it read as
#: seconds on that machine then.
REFERENCE_S = 0.012

_N = 7
_PSI = np.exp(1j * np.arange(3**_N, dtype=float)).reshape((3,) * _N)
_POINTS = 7
_D = [[abs(i - j) ** 0.5 for j in range(_POINTS)] for i in range(_POINTS)]


def reference_work() -> float:
    """Do the fixed work once; return its result, so none of it can be skipped."""
    out = np.zeros_like(_PSI)
    for _ in range(28):
        for axis in range(_N):
            src = np.moveaxis(_PSI, axis, 0)
            dst = np.moveaxis(out, axis, 0)
            dst[0] += src[1] * 0.5
            dst[1] += (src[0] + src[2]) * 0.5
            dst[2] += src[1] * 0.5
    best = float("inf")
    n = _POINTS
    for labels in itertools.product(range(3), repeat=n):
        w = sum(_D[i][j] for i in range(n) for j in range(i + 1, n) if labels[i] == labels[j])
        best = min(best, w)
    return best + float(out.real.sum())


class HostSpeed:
    """Times of the reference work, in the order they were taken."""

    def __init__(self) -> None:
        self.times: list[float] = []

    def sample(self) -> None:
        t0 = perf_counter()
        reference_work()
        self.times.append(perf_counter() - t0)

    def scale(self, last: int) -> float:
        """Factor that takes a time measured now to ``REFERENCE_S`` speed,
        from the median of the last ``last`` samples."""
        return REFERENCE_S / statistics.median(self.times[-last:])

    def pass_scales(self, per_pass: int) -> list[float]:
        """``scale`` of each pass, for passes of ``per_pass`` samples each."""
        return [
            REFERENCE_S / statistics.median(self.times[i : i + per_pass])
            for i in range(0, len(self.times), per_pass)
        ]
