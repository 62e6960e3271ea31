"""Host speed right now, from a fixed chunk of work timed between missions.

The shared host this benchmark was written on changes speed by up to
1.6x within minutes (the same ``rho_ref`` mission took 23 s and 44 s
ten minutes apart, with pivot counts within 0.3 %).  A chunk of pure
Python, small numpy operations and sparse LU -- the same kinds of work
the solver does, but none of it in shipems, so no change to the
program moves it -- is timed before and after the set-up probes and
after every mission.  End-to-end times are multiplied by
``CHUNK_REF_S / median(chunk times)``: they read as seconds on the
reference host, and a slow or fast phase of the host cancels out as far
as the chunk slows down with the program.  The sparse LU is about 90 %
of the chunk.
"""

from __future__ import annotations

import time
from statistics import median

import numpy as np
import scipy.sparse as sp
from scipy.sparse.linalg import splu

#: Median seconds of one chunk on the reference host (bench/README.md).
CHUNK_REF_S = 0.070


class HostSpeed:
    """Times a fixed chunk of Python, numpy and sparse-LU work that does
    not touch shipems, between missions, to track how fast the shared
    host runs right now."""

    def __init__(self):
        rng = np.random.default_rng(0)
        n = 800
        self._a = (sp.random(n, n, density=0.004, random_state=rng)
                   + 4.0 * sp.identity(n)).tocsc()
        self._v = rng.random(n)
        self.samples: list[float] = []

    def sample(self, chunks=5):
        for _ in range(chunks):
            start = time.perf_counter()
            acc = 0.0
            for i in range(20_000):
                acc += (i % 13) * 0.5
            x = self._v.copy()
            for _ in range(150):
                k = int(np.argmax(x))
                x = np.where(x > 0.5, 0.9 * x, x + 0.01)
                x[k] = 0.0
            for _ in range(4):
                splu(self._a).solve(self._v)
            self.samples.append(time.perf_counter() - start)

    def factor(self) -> float:
        """Reference chunk time over the measured one (>1: host is fast)."""
        return CHUNK_REF_S / median(self.samples)
