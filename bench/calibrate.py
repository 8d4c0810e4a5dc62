"""A fixed pass of work outside the program, timed to gauge the core's speed.

The cores of a shared host change speed by a quarter or more over
minutes, and CPU time changes with them.  A short pass of the same kinds
of work as the workloads (small eigenproblems, Kronecker products,
interpreted dictionary updates), run between operations whenever
``INTERVAL_NS`` of CPU time have gone by, samples the core's speed all
through the run, so the untraced time metrics can be scaled to a core on
which one pass takes ``REFERENCE_NS``.  The pass uses only numpy, so a
change to the program cannot change the scale.  See "Clock" in README.md
for the measurements.
"""

from __future__ import annotations

import numpy as np

from workloads import cpu_ns

#: CPU time of one pass on the core the reported times are scaled to
#: (about its time on a quiet 2-vCPU Xeon virtual machine).
REFERENCE_NS = 3_000_000

#: CPU time of the workload between two passes, at least.
INTERVAL_NS = 50_000_000


class Calibration:
    def __init__(self):
        rng = np.random.default_rng(0)
        self._mats = [rng.standard_normal((9, 9)) for _ in range(20)]
        self.samples: list[int] = []
        self._pass()  # warm-up, untimed
        self._last = cpu_ns()

    def _pass(self) -> float:
        total = 0.0
        for m in self._mats:
            total += np.linalg.eig(m)[0].real.sum()
            total += float(np.kron(m[:3, :3], m[3:6, 3:6]).sum())
        counts: dict[int, int] = {}
        for i in range(3000):
            counts[i % 17] = counts.get(i % 17, 0) + i
        return total

    def _measure(self) -> None:
        start = cpu_ns()
        self._pass()
        self._last = cpu_ns()
        self.samples.append(self._last - start)

    def tick(self) -> None:
        """Time one pass if ``INTERVAL_NS`` have gone by since the last; call between operations."""
        if cpu_ns() - self._last >= INTERVAL_NS:
            self._measure()

    def total_ns(self) -> int:
        return sum(self.samples)

    def scale(self) -> float:
        """Reference time per CPU time measured in this run (mean over passes)."""
        if not self.samples:  # a run shorter than INTERVAL_NS
            self._measure()
        return REFERENCE_NS * len(self.samples) / sum(self.samples)
