"""A speed probe: a fixed piece of interpreter work timed between ops.

On a shared machine the same op can take up to 1.7x longer for stretches of
tens of seconds, for reasons outside the process (the CPU time grows with the
wall time, so it is not waiting). No statistic taken inside one run removes a
slow stretch that covers the whole run. The probe follows that speed instead:
it shares no code with spanlab, so a change to the program leaves it
untouched, and an op's latency is scaled by the probe's time around it. The
scaled figures read as times on a machine where one probe takes
``REFERENCE_S``.
"""

from __future__ import annotations

import random
import time

REFERENCE_S = 0.001
INTERVAL_S = 0.2  # sample at least this often, between ops


class SpeedProbe:
    def __init__(self) -> None:
        rng = random.Random(7)
        self._graphs = []
        for n, m in ((24, 60), (400, 1600)):  # small and big-int masks, as in spanlab
            masks = [0] * n
            for _ in range(m):
                u, v = rng.randrange(n), rng.randrange(n)
                masks[u] |= 1 << v
                masks[v] |= 1 << u
            self._graphs.append(masks)
        self.samples: list[float] = []
        self._last = 0.0

    def _work(self) -> int:
        """Breadth-first levels from a few sources, recorded in a dict."""
        seen: dict[tuple[int, int], int] = {}
        for masks in self._graphs:
            for s in range(0, len(masks), max(1, len(masks) // 6)):
                reached = frontier = 1 << s
                d = 0
                while frontier:
                    nxt = 0
                    m = frontier
                    while m:
                        low = m & -m
                        i = low.bit_length() - 1
                        nxt |= masks[i]
                        seen[s, i] = d
                        m ^= low
                    frontier = nxt & ~reached
                    reached |= frontier
                    d += 1
        return len(seen)

    def sample(self) -> None:
        """Time the work three times and keep the fastest."""
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            self._work()
            best = min(best, time.perf_counter() - t0)
        self.samples.append(best)
        self._last = time.perf_counter()

    def due(self) -> bool:
        return time.perf_counter() - self._last >= INTERVAL_S

    def scale(self, k: int) -> float:
        """Factor for work done between samples ``k`` and ``k + 1``."""
        return REFERENCE_S / ((self.samples[k] + self.samples[k + 1]) / 2)
