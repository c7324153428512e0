"""Times scaled to a reference machine speed.

On a shared machine the speed of one core changes while a run is in
progress: on a 2-vCPU Intel Xeon virtual machine, a fixed pure-Python loop
was measured alternating between about 12.5 ms and 21 ms, in phases lasting
from a few seconds to more than 40 s.
A wall-clock time then depends more on the phase than on the code. The
benchmark therefore times a small fixed kernel between equal chunks of work
(every RK step, every 25 Riemann problems, every reference fan) and scales
each measured time by ``REF_S / mean kernel time`` over the same interval.
With one kernel sample per equal chunk of work, this recovers the time the
work would take at the reference speed. The kernel is benchmark code, so a
change to the package does not move it.

Different code slows by different factors in the slow phase (1.4x for small
numpy operations, 1.6-1.8x for scalar Python), so each workload uses the
kernel whose slowdown tracked its own work best when both were timed
alternately over 70 s: an integer loop for the 1600-cell DG run, scalar
float arithmetic on tuples for the 400-cell runs and the Riemann solver.

A scaled time is still in seconds: seconds on a machine whose kernel takes
``REF_S``. Each run records its mean kernel time, so raw times can be
recovered as ``scaled * kernel / REF_S``.
"""

from __future__ import annotations

import math
import statistics
from array import array
from time import perf_counter

REF_S = 2.0e-4  # about each kernel's time in the machine's fast phase


def _loop() -> None:
    acc = 0
    for i in range(3000):
        acc += i * i


def _scalar() -> None:
    acc = 0.0
    for i in range(1000):
        t = (1.0 + i * 1e-3, 0.5, 2.0)
        acc += math.sqrt(t[0] * t[2] / t[1])


KERNELS = {"loop": _loop, "scalar": _scalar}
KERNEL_OF = {"fine_run": "loop", "table_sweep": "scalar", "riemann_batch": "scalar"}


def kernel_seconds(kernel: str) -> float:
    t0 = perf_counter()
    KERNELS[kernel]()
    return perf_counter() - t0


class Calibration:
    """Kernel timings taken between chunks of work.

    A disabled calibration takes no samples and scales nothing; the traced
    phase uses one so that the kernel does not land inside spans.
    """

    def __init__(self, kernel: str, enabled: bool = True):
        self.kernel = kernel
        self.enabled = enabled
        self.samples = array("d")
        self.spent = 0.0  # seconds spent in samples, to subtract from enclosing timers

    def sample(self) -> None:
        if self.enabled:
            t0 = perf_counter()
            self.samples.append(kernel_seconds(self.kernel))
            self.spent += perf_counter() - t0

    def window(self) -> tuple[int, float]:
        return len(self.samples), self.spent

    def factor(self, window: tuple[int, float]) -> float:
        """REF_S over the mean kernel time since ``window`` (1 with no samples)."""
        taken = self.samples[window[0]:]
        return REF_S / statistics.fmean(taken) if taken else 1.0

    def scaled(self, raw: float, window: tuple[int, float]) -> float:
        """A timer's reading over ``window``, minus the samples inside it, scaled."""
        return (raw - (self.spent - window[1])) * self.factor(window)
