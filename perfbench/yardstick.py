"""A fixed piece of work that calls nothing of gaussfid, timed inside a run to
gauge the speed of the host at that time.

The host is shared, and its speed changes by up to 1.7x for stretches of
seconds to minutes, so a run that falls entirely into a slow stretch reads
slow whatever statistic it takes of its own latencies.  The yardstick runs
between the ops of the untraced loop; its lowest time over the run, against
its fixed reference time, is the run's host factor, and the end-to-end
timings are scaled by it to what they would read on a host where the
yardstick takes its reference time.  The yardstick is the same on every
commit, so a change to gaussfid moves the scaled timings as it moves the
raw ones.

It has two parts, timed separately, because ops differ in what they spend
their time on: interpreter work (small ``fidelity()`` calls, metrology
steps, the CLI's import) and LAPACK on 128x128 matrices (n = 64 pairs, the
Fock oracle).  The host factor is the geometric mean of both parts.
"""

from __future__ import annotations

import math
from time import perf_counter_ns

import numpy as np

#: The untraced loop times the yardstick between two ops once this much
#: time has passed since it last did.
EVERY_NS = 100_000_000
#: Lowest time of each part on the measuring machine in a fast stretch
#: (2-vCPU x86_64 VM, OpenBLAS with one thread); see NOTES.md.
REFERENCE_MS = {"python": 0.55, "lapack": 5.3}


class Yardstick:
    def __init__(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((128, 128)) / math.sqrt(128.0)
        self.sym = a @ a.T + np.eye(128)
        self.gen = rng.standard_normal((128, 128)) / math.sqrt(128.0)
        self.rhs = rng.standard_normal((128, 8))
        self.lowest_ns = {part: math.inf for part in REFERENCE_MS}
        self.samples = 0
        self._last = 0

    def _python(self):
        table, acc = {}, 0.0
        for i in range(2000):
            key = f"k{i % 61}"
            table[key] = table.get(key, 0) + i
            acc += math.sqrt(i) * 0.5
        return acc + len(table)

    def _lapack(self):
        x = np.linalg.solve(self.sym, self.rhs)
        w = np.linalg.eigvals(self.gen @ self.sym)
        return float(x[0, 0] + w.real.sum() + np.linalg.slogdet(self.sym)[1])

    def measure_if_due(self) -> int:
        """Time each part once if EVERY_NS has passed since the last time;
        return the wall time spent, in ns."""
        start = perf_counter_ns()
        if start - self._last < EVERY_NS:
            return 0
        for part, work in (("python", self._python), ("lapack", self._lapack)):
            t0 = perf_counter_ns()
            work()
            self.lowest_ns[part] = min(self.lowest_ns[part], perf_counter_ns() - t0)
        self.samples += 1
        self._last = perf_counter_ns()
        return self._last - start

    def lowest_ms(self) -> dict:
        return {part: ns / 1e6 for part, ns in self.lowest_ns.items()}

    def host_factor(self) -> float:
        """Reference over measured time, geometric mean of the parts: above 1
        on a host faster than the reference, below 1 on a slower one."""
        logs = [math.log(REFERENCE_MS[part] / ms) for part, ms in self.lowest_ms().items()]
        return math.exp(sum(logs) / len(logs))
