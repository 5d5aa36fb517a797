"""A speed probe that samples how fast the host runs while a round runs.

The benchmark's host is a VM whose speed switches between two levels, each
held for 10 to 60 seconds; grs runs about 1.7x slower on the slow one.  A
round's wall time follows those levels, so on its own the median round of
a 20 s run spreads 9-19% between runs of the same code, and more when a
run holds fewer rounds.  While a round runs, ``SpeedProbe`` takes a timer
signal every ``INTERVAL_S`` seconds of wall time and times one fixed
kernel in the handler: a sparse LU factorization and solve with scipy,
then a dict built from the solution in Python.  The kernel does not touch
grs, so a change to grs does not change it.  It slows about 1.4x on the
slow level, so rounds there are under-corrected by up to about 15%.

``rescale`` turns a round's wall time into reference seconds: the time the
round would take with the kernel at ``REF_S``.  The kernel's time in the
handler is left out of the round's time.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

INTERVAL_S = 0.05
# A fixed scale: any value would do.  Between grs calls the kernel takes
# 3.5 to 4.5 ms on the reference host (a 2-vCPU Xeon VM), so with 4 ms
# reference seconds come out near that host's wall seconds.
REF_S = 4.0e-3


class SpeedProbe:
    def __init__(self):
        n = 300
        self.matrix = (sp.random(n, n, density=0.02, random_state=1)
                       + 5.0 * sp.eye(n)).tocsc()
        self.rhs = np.ones(n)
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent in the handler since start()
        self._busy = False

    def kernel(self) -> dict:
        x = spla.splu(self.matrix).solve(self.rhs)
        return {i: 2.0 * v + 1.0 for i, v in enumerate(x.tolist())}

    def _sample(self, signum=None, frame=None):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.kernel()
        dt = time.perf_counter() - t0
        self.samples.append(dt)
        self.spent += dt
        self._busy = False

    def start(self):
        self.samples.clear()
        self.spent = 0.0
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        signal.setitimer(signal.ITIMER_REAL, 0.0, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)
        if not self.samples:  # a round shorter than one interval
            self._sample()
            self.spent = 0.0

    def rescale(self, wall_s: float) -> float:
        """Reference seconds for a round that took ``wall_s`` (handler included)."""
        return (wall_s - self.spent) * REF_S / statistics.mean(self.samples)
