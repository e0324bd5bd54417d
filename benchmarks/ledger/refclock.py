"""A reference kernel that measures how fast the host is running right now.

On a small shared host the same computation takes 20-40 % longer in one
minute than in the next (other tenants evict the caches), and every
wall-clock metric follows.  The reference kernel is a fixed piece of
plain NumPy work — interpreter-bound small-array calls, a cache-sized
matrix product, a memory-bound pass — that slows down and speeds up with
the host the way the workloads do, and touches no code of the program.
A run interleaves it with the ops (outside their timing) and reports
``measured seconds × NOMINAL_S ÷ median kernel seconds``: seconds at
nominal host speed, the ``*_norm`` end-to-end metrics.

Measured on the development host, as the quartile distance of ten
20-second runs over their median: ``op_s_p50`` of ``hwea200_cold`` 10 % raw
-> 8 % normalised, ``hwea_sweep`` 18 % -> 6 %, ``wide61_recursive`` 18 % ->
10 %.  ``service_sweep`` does not follow the kernel and stays raw (see
``ServiceSweep.measure``).  Raw seconds are kept next to every normalised
number in the ledger file.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

#: what one tick typically takes between ops on the development host; only
#: fixes the scale of the normalised metrics (ratios between runs never
#: see it)
NOMINAL_S = 0.017

#: least time between two ticks, so that ticking costs ops of any length
#: at most a few percent
TICK_EVERY_S = 0.5


class RefClock:
    def __init__(self):
        self.ticks: list[float] = []
        self._last = -float("inf")
        self._arrays = None

    def tick(self) -> None:
        """Time the kernel once."""
        if self._arrays is None:
            # 8 MiB in all, reused by every tick: the kernel must not show
            # up in the workload's peak RSS as more than a small constant
            stream = np.arange(512 * 1024, dtype=np.uint64)
            self._arrays = (
                np.arange(64, dtype=np.uint64),
                np.random.default_rng(0).random((200, 200)),
                stream,
                np.empty_like(stream),
            )
        small, square, stream, scratch = self._arrays
        start = time.perf_counter()
        for _ in range(3000):
            (small ^ small).sum()
        for _ in range(20):
            square @ square
        for _ in range(8):
            np.right_shift(stream, 3, out=scratch)
            np.bitwise_xor(stream, scratch, out=scratch)
            scratch.sum()
        self._last = time.perf_counter()
        self.ticks.append(self._last - start)

    def tick_if_due(self) -> None:
        if time.perf_counter() - self._last >= TICK_EVERY_S:
            self.tick()

    def scale(self, since: int = 0) -> float:
        """Factor that turns seconds measured while ``ticks[since:]`` were
        taken into seconds at nominal host speed."""
        return NOMINAL_S / statistics.median(self.ticks[since:])
