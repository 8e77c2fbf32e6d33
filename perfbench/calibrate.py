"""Host-speed calibration for the benchmark's timings.

On a shared host the speed of the whole machine drifts: on a 2-vCPU VM the
same invocation took 1.0-2.1 s, with phases lasting minutes, so the medians
of ten 50 s runs spread by 17-32% of their middle value (quartile distance
over median).  The benchmark therefore reports each time scaled to a
reference host speed: the time of an interval, divided by the time a fixed
calibration kernel takes at the same moments, times the kernel's reference
time.  On that VM, in the same runs, this cut the spread to 2-4% on
single_run and 5-6% on sweep_map.  The raw times stay in the run's metadata.

The kernels do fixed work that resembles the program's: small dense linear
algebra called from Python for the workloads, plain bytecode for imports.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

# Reference times: roughly what each kernel takes on an uncontended 2 GHz
# Xeon vCPU, so that scaled times read close to real ones there.
NUMPY_REF_S = 0.010
PYTHON_REF_S = 0.010

# Source of the bytecode kernel, run in fresh interpreters around an import;
# it imports nothing, so it leaves the import it brackets unchanged.
PYTHON_KERNEL = """
def kernel():
    t = time.perf_counter()
    s = 0
    for i in range(150000):
        s += i * i
    return time.perf_counter() - t
"""

_MATRIX = np.diag(np.linspace(1.0, 2.0, 10)) + 0.01 * np.arange(100.0).reshape(10, 10) / 100


def numpy_kernel() -> float:
    """Seconds taken by a fixed run of small eigenvalue problems."""
    start = time.perf_counter()
    for _ in range(300):
        np.linalg.eigvals(_MATRIX)
    return time.perf_counter() - start


class SpeedProbe:
    """Times ``numpy_kernel`` once before an interval and every ``period``
    seconds during it, from a ``SIGALRM`` handler, so that a long invocation
    is compared with the host's speed over all of its length."""

    def __init__(self, period: float = 0.2):
        self.period = period
        self.samples: list = []
        self.spent = 0.0

    def _sample(self, *_args) -> None:
        start = time.perf_counter()
        self.samples.append(numpy_kernel())
        self.spent += time.perf_counter() - start

    def begin(self) -> None:
        self.samples, self.spent = [numpy_kernel()], 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)

    def end(self) -> tuple:
        """Median kernel time over the interval, and the seconds the samples
        taken inside it added to it."""
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        return statistics.median(self.samples), self.spent
