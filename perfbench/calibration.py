"""Machine-speed calibration, timed between ops.

The cores this benchmark was defined on are shared with other tenants,
and their speed drifts by up to 2x within tens of seconds.
Interpreter-bound and numpy-bound code drift differently, so each
workload names the kinds of fixed work that track its ops.  The work
is timed before and after every op; the mean slowdown against the
reference times converts the op's wall time into seconds at reference
speed.  The work never calls ``ppn``, so no change to the program can
move it.
"""

from __future__ import annotations

import threading
from itertools import combinations
from time import perf_counter

import numpy as np

#: Best-of-three seconds of each kind of work on the machine the
#: benchmark was defined on (2 vCPU Xeon, 2 MiB L2, Python 3.11.7,
#: numpy 2.4.6), in a quiet spell.
REFERENCE_S = {"interpreter": 0.015, "numpy": 0.010, "threads": 0.030}


class Calibration:
    def __init__(self, kinds):
        self.kinds = tuple(kinds)
        rng = np.random.default_rng(0)
        self._codes = rng.integers(0, 4, 2_000_000).astype(np.int8)
        self._lengths = rng.integers(0, 50, (20, 20))

    def _interpreter(self) -> None:
        table = {}
        for i in range(60_000):
            key = i * 7919 % 1009
            table[key] = table.get(key, 0) + i * i
        sorted((value % 97, key) for key, value in table.items())
        d = self._lengths
        ties = 0
        for a, b, c, e in combinations(range(20), 4):
            s0 = int(d[a, b]) + int(d[c, e])
            s1 = int(d[a, c]) + int(d[b, e])
            s2 = int(d[a, e]) + int(d[b, c])
            low = min(s0, s1, s2)
            ties += (s0 == low) + (s1 == low) + (s2 == low)

    def _threads(self) -> None:
        """The interpreter work on two threads at once, as in the CLI's
        thread pool: they contend for the interpreter lock and both cores."""
        workers = [threading.Thread(target=self._interpreter) for _ in range(2)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join()

    def _numpy(self) -> None:
        prefix = np.cumsum(self._codes == 1, dtype=np.int32)
        np.unique(prefix[::3] % 977, return_counts=True)

    def slowdown(self) -> float:
        """Mean over the kinds of work of best-of-three time now over
        reference time."""
        total = 0.0
        for kind in self.kinds:
            work = getattr(self, "_" + kind)
            best = float("inf")
            for _ in range(3):
                start = perf_counter()
                work()
                best = min(best, perf_counter() - start)
            total += best / REFERENCE_S[kind]
        return total / len(self.kinds)

    @staticmethod
    def factor(before: float, after: float) -> float:
        """Wall seconds to reference-speed seconds, from the slowdowns
        measured before and after an op."""
        return 2.0 / (before + after)
