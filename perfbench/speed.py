"""Reference speed: timings that hold still on a shared host.

On a shared host the same single-threaded work takes up to half again as
long in one minute as in the next, and the slow stretches last minutes,
longer than a run.  A :class:`Gauge` times a fixed workload that belongs
to the benchmark, not to the package, in two parts shaped like the
package's own work: row operations on a small dense numpy tableau, as the
simplex does, and a breadth-first search over a seeded graph, the dict,
set and list work of the game code.  It runs between the timed calls, so
the data it needs have left the core's own cache, as the package's have
after a call; that is the state in which its time follows the host's load
most closely.  Every time the benchmark reports is divided by the speed
factor of its stretch::

    factor = median gauge time / REFERENCE_S

The result is seconds at reference speed: the time the same work would
take on a machine where the gauge takes ``REFERENCE_S``.  A change to the
package moves the timed calls and not the gauge, so it shows in full.
"""

from __future__ import annotations

import gc
import statistics
from collections import deque
from time import perf_counter

# Gauge time that defines reference speed; on the 2-core host the benchmark
# was written on, the gauge took about 6 ms, more or less with the host's load.
REFERENCE_S = 0.006
GRAPH_NODES = 8000
GRAPH_DEGREE = 3
TABLEAU_ROWS = 40
TABLEAU_COLS = 120
PIVOTS = 60
SEED = 12345


def _lcg(x: int) -> int:
    return (x * 6364136223846793005 + 1442695040888963407) & 0xFFFFFFFFFFFFFFFF


class Gauge:
    """Times the reference workload and keeps the samples.

    numpy is loaded by the package; the tableau is made on the first sample,
    after the package's import, so that the import is timed with numpy.
    """

    def __init__(self) -> None:
        x, n = SEED, GRAPH_NODES
        self.adjacency: list[list[int]] = []
        for _ in range(n):
            row = []
            for _ in range(GRAPH_DEGREE):
                x = _lcg(x)
                row.append((x >> 33) % n)
            self.adjacency.append(row)
        self.np = None
        self.tableau = None
        self.reference = None
        self.samples: list[float] = []

    def _make_tableau(self) -> None:
        import numpy

        x, cells = SEED, []
        for _ in range(TABLEAU_ROWS * TABLEAU_COLS):
            x = _lcg(x)
            cells.append(0.1 + (x >> 11) / 2.0**53)
        self.np = numpy
        self.tableau = numpy.array(cells).reshape(TABLEAU_ROWS, TABLEAU_COLS)

    def _pivots(self) -> tuple[float, int]:
        np = self.np
        t = self.tableau.copy()
        entering = 0
        for k in range(PIVOTS):
            r, c = k % TABLEAU_ROWS, k * 7 % TABLEAU_COLS
            column = t[:, c].copy()
            t[r] /= t[r, c]
            t -= np.outer(column, t[r]) * 0.01
            entering += int(np.argmin(t[r]))
        return float(t.sum()), entering

    def _search(self) -> int:
        adjacency = self.adjacency
        seen = {0}
        queue = deque([0])
        order = []
        while queue:
            v = queue.popleft()
            order.append(v)
            for w in adjacency[v]:
                if w not in seen:
                    seen.add(w)
                    queue.append(w)
        return len(order)

    def sample(self) -> float:
        """Run the reference workload once; returns and keeps its time.

        The collector is off while it runs.  The workload frees what it
        allocates, so it leaves the collector's counts as it found them, and
        the package's collections fall at the same points of a pass whenever
        the gauge runs; none falls inside a sample.
        """
        if self.tableau is None:
            self._make_tableau()
        collecting = gc.isenabled()
        gc.disable()
        try:
            start = perf_counter()
            result = (self._pivots(), self._search())
            elapsed = perf_counter() - start
        finally:
            if collecting:
                gc.enable()
        if self.reference is None:
            self.reference = result
        elif result != self.reference:
            raise RuntimeError("speed gauge: reference workload is not deterministic")
        self.samples.append(elapsed)
        return elapsed

    def take(self) -> list[float]:
        """The samples since the last call, forgetting them."""
        samples, self.samples = self.samples, []
        return samples


def factor(samples: list[float]) -> float:
    """Speed factor of a stretch from its gauge samples (1 = reference)."""
    return statistics.median(samples) / REFERENCE_S
