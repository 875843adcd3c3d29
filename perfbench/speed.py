"""Timings in seconds at a fixed machine speed.

On a shared 2-vCPU KVM guest the speed of the machine drifts by 20-40 %
over tens of seconds: every process slows at once, steal time stays near 0
and CPU time drifts with wall time. A run of 30 s cannot average that out.
So while the timed loop runs, ``Speedometer`` interrupts it once a second
(``SIGALRM``) to time a small fixed kernel of interpreted Python and small
NumPy/LAPACK calls, the same mix the solvers spend their time in.

``Speedometer.measure`` then turns the workload's timed intervals into
*reference seconds*: each stretch between two kernel runs counts as its wall
time scaled by ``REFERENCE_S`` over the mean of the two kernel times around
it. On a machine running at the speed where the kernel takes ``REFERENCE_S``
the reference seconds equal wall seconds; when the host slows, both the
workload and the kernel slow and the ratio stays put. Time spent in the
kernel itself is never counted.

The kernel depends only on NumPy and SciPy, never on the package under
test, so a change to the package moves the workload's time but not the
yardstick's.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.linalg

#: Median kernel time on the machine the bounds were set on (2-vCPU KVM
#: guest, Xeon family 6 model 207, Python 3.11, OpenBLAS 0.3.31 on one
#: thread). A constant, so reference seconds stay comparable across runs.
REFERENCE_S = 0.022
#: Seconds between kernel runs while a ``Speedometer`` is active.
PERIOD_S = 1.0

_rng = np.random.default_rng(0)
_TALL = _rng.standard_normal((1000, 10))
_SMALL = _rng.standard_normal((10, 10))
_SQUARE = _rng.standard_normal((20, 20)) + 20.0 * np.eye(20)
_RHS = _rng.standard_normal((20, 10))


def kernel() -> float:
    """Run the fixed reference work once; return its wall time in seconds."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(60_000):
        acc += i * i % 7
    for _ in range(250):
        prod = _TALL @ _SMALL
        gram = _TALL.T @ prod
        lu = scipy.linalg.lu_factor(_SQUARE)
        scipy.linalg.lu_solve(lu, _RHS)
        np.linalg.norm(gram)
    return time.perf_counter() - t0


def reference_seconds(wall_s: float, before_s: float, after_s: float) -> float:
    """``wall_s`` measured between kernel times ``before_s`` and ``after_s``,
    in reference seconds."""
    return wall_s * REFERENCE_S / ((before_s + after_s) / 2.0)


def kernel_median(samples: int = 3) -> float:
    """Median of ``samples`` kernel times: the machine's speed right now."""
    return statistics.median(kernel() for _ in range(samples))


class Speedometer:
    """Runs ``kernel`` on entry, every ``period_s`` while active (from a
    ``SIGALRM`` handler, so it interleaves with the code being timed) and
    on exit. Use in the main thread only; not re-entrant."""

    def __init__(self, period_s: float = PERIOD_S):
        self.period_s = period_s
        #: (start, end) of every kernel run, in perf_counter seconds.
        self.ticks: list[tuple[float, float]] = []
        self._previous_handler = None

    def _tick(self, *_):
        start = time.perf_counter()
        kernel()
        self.ticks.append((start, time.perf_counter()))

    def __enter__(self):
        self._previous_handler = signal.signal(signal.SIGALRM, self._tick)
        self._tick()
        signal.setitimer(signal.ITIMER_REAL, self.period_s, self.period_s)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, self._previous_handler)
        self._tick()
        return False

    def measure(self, spans) -> tuple[float, float]:
        """(wall seconds, reference seconds) of the program inside ``spans``,
        a sequence of (start, end) perf_counter pairs taken while this
        speedometer was active. Kernel runs inside a span are excluded."""
        wall = ref = 0.0
        for before, after in zip(self.ticks, self.ticks[1:]):
            gap_start, gap_end = before[1], after[0]
            for start, end in spans:
                overlap = min(end, gap_end) - max(start, gap_start)
                if overlap > 0.0:
                    wall += overlap
                    ref += reference_seconds(overlap, before[1] - before[0],
                                             after[1] - after[0])
        return wall, ref
