"""Machine speed, measured by short fixed probes.

The CPU speed of a shared machine swings by half within seconds and
drifts over minutes, so raw timings of the same work spread by a fifth
between runs.  The benchmark therefore reports body times at a
reference speed: it runs a probe right before and right after each timed
piece of work, divides the work's time by the mean of the two probe
times, and scales the ratio by the probe's time on a quiet machine.  Raw
times are reported beside them.

There are two probes, and each workload uses the one that follows its
own speed best (``workloads.PROBE``).  ``loop`` is a bare arithmetic
loop; ``calls`` makes small function calls that compute with ``math``
and build tuples, as the cylinder, hyptrig and bounds layers do.  Over
240 s of a workload's units cut into 24-s windows, the spread
(IQR/median) of the window body times at reference speed was, with
``loop`` and ``calls``: cylinder_deep 0.056 and 0.025, bounds_grid 0.058
and 0.025, torus_large 0.057 and 0.14 (Intel Xeon, 2 vCPUs).
"""

import math
import time

CAL_LOOPS = 100_000
CALL_LOOPS = 6000


def _loop() -> tuple[float, float]:
    t0 = time.perf_counter()
    s = 0
    for i in range(CAL_LOOPS):
        s += i * i
    return t0, time.perf_counter()


def _pair(x: float, y: float) -> tuple[float, float]:
    return math.sinh(x) + math.asinh(y), x * y


def _calls() -> tuple[float, float]:
    t0 = time.perf_counter()
    acc = 0.0
    for i in range(CALL_LOOPS):
        a, b = _pair(i * 1e-4, 0.5)
        acc += a if a < b else b
    return t0, time.perf_counter()


# name: (probe, its time on an Intel Xeon, 2 vCPUs, Python 3.11, with the
# host quiet); only the scale of the reported times depends on the latter.
PROBES = {"loop": (_loop, 0.0055), "calls": (_calls, 0.0015)}


def at_reference(seconds: float, cal_before: float, cal_after: float,
                 ref_s: float) -> float:
    """A time taken between two probes, at reference speed."""
    return seconds * ref_s / (0.5 * (cal_before + cal_after))
