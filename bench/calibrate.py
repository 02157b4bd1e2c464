"""Machine-speed calibration for the benchmark's timings.

The machines this benchmark runs on change speed by a quarter or more
within a minute, and the change shows in CPU time as much as in wall
time, so it is not preemption.  A fixed calibration kernel, timed in
blocks between ops, follows that change: timings divided by the
kernel's median time in the blocks taken just before and just after
them, and multiplied by ``REFERENCE_NS``, read as times on a machine
where the kernel takes ``REFERENCE_NS``.  Across speed changes of 1.8x
the ratio of op time to kernel time stayed within a few percent when
both were timed in the same steady stretch; what remains comes from
speed changes between an op and the blocks around it.

The kernel is signature refinement on a fixed graph held in dicts of
tuples, the same kind of interpreter work the package does.  It uses no
code of the package, so a change to the package cannot move it; the
cyclic garbage collector is off while it runs, so the package's heap
cannot move it either.
"""

from __future__ import annotations

import gc
import statistics
import time

# Median time of kernel() on the machine where the benchmark was
# defined (2 vCPUs, Python 3.11.7, Linux).  It fixes the unit only.
REFERENCE_NS = 475_000

_N = 100
_SUCC = [((i * 31 + 7) % _N, (i * 17 + 3) % _N) for i in range(_N)]
_LABEL = [i % 3 for i in range(_N)]


def kernel() -> int:
    block = {v: _LABEL[v] for v in range(_N)}
    ids: dict = {}
    for _ in range(3):
        sig = {v: (block[v], tuple(block[w] for w in _SUCC[v])) for v in range(_N)}
        ids = {}
        block = {v: ids.setdefault(sig[v], len(ids)) for v in range(_N)}
    return len(ids)


class Calibrator:
    """Kernel samples of one run, taken in blocks so that most of them run
    with the kernel warm in cache whatever ran before them."""

    def __init__(self):
        self.samples: list[int] = []

    def block(self, times: int) -> float:
        """Median kernel time over ``times`` fresh samples."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            block = []
            for _ in range(times):
                t0 = time.perf_counter_ns()
                kernel()
                block.append(time.perf_counter_ns() - t0)
        finally:
            if enabled:
                gc.enable()
        self.samples += block
        return statistics.median(block)

    @staticmethod
    def scale(*medians: float) -> float:
        """Factor from wall time to calibrated time, for a time taken
        between blocks with these medians."""
        return REFERENCE_NS / statistics.fmean(medians)

    def speed_scale(self) -> float:
        """The factor over the whole run, for reports."""
        return REFERENCE_NS / statistics.median(self.samples)
