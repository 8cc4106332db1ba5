"""Fixed reference kernel for host normalization.

Every timing the benchmark reports is scaled by how long this kernel
takes on the same host at about the same moment: a host that is slower
or busier for a while slows the kernel and the measured operation
alike, so their ratio holds still while raw seconds drift.  The kernel
mirrors the mix of work the annotation flow does -- pure-Python graph
walking with dict and string churn, plus small sparse x dense products
-- and imports nothing from ``repro``, so no change to the program
under test can move it.
"""

from __future__ import annotations

import time

import numpy as np
import scipy.sparse as sp

#: Reference-probe seconds the normalized figures are scaled to.  A
#: normalized time reads "seconds on a host where one probe takes R0".
#: R0 and the kernel sizes below are fixed together: changing either
#: rescales every recorded time.
R0 = 0.008

#: Vertices of the walked graph and rows of the sparse operator.
VERTICES = 2000
#: Random chords per vertex on top of a ring.
CHORDS = 2
#: Breadth-first walks per probe.
ROOTS = 2
#: Feature columns of the dense operand.
FEATURES = 16
#: Chebyshev order and recurrences per probe.
ORDER = 6
SWEEPS = 2
SEED = 20200309


class ReferenceProbe:
    """A fixed graph plus a fixed sparse operator; calling the probe
    runs one pass of both kernels and returns its wall-clock seconds.

    The working set (a few thousand vertices, a 2000-row operator) is
    sized past the first cache levels on purpose: a small kernel that
    lives in L1/L2 misses the memory contention that slows the
    program's ops on a shared host, and normalizes them less well.
    """

    def __init__(self):
        rng = np.random.default_rng(SEED)
        neighbours: list[set[int]] = [set() for _ in range(VERTICES)]
        for v in range(VERTICES):
            ring = (v + 1) % VERTICES
            neighbours[v].add(ring)
            neighbours[ring].add(v)
            for u in rng.integers(0, VERTICES, size=CHORDS):
                if int(u) != v:
                    neighbours[v].add(int(u))
                    neighbours[int(u)].add(v)
        self._adjacency = {v: tuple(sorted(ns)) for v, ns in enumerate(neighbours)}
        self._roots = tuple(range(0, VERTICES, VERTICES // ROOTS))[:ROOTS]
        rows = [v for v, ns in self._adjacency.items() for _ in ns]
        cols = [u for ns in self._adjacency.values() for u in ns]
        degree = np.array([len(ns) for ns in self._adjacency.values()], float)
        weights = 1.0 / np.sqrt(degree[rows] * degree[cols])
        self._operator = sp.csr_matrix(
            (-weights, (rows, cols)), shape=(VERTICES, VERTICES)
        )
        self._x = rng.standard_normal((VERTICES, FEATURES))
        self._w = rng.standard_normal((FEATURES, FEATURES)) * 0.1

    def _walk(self) -> int:
        """Breadth-first walks from a few roots, each turned into a
        string-keyed level table and sorted."""
        adjacency = self._adjacency
        total = 0
        for root in self._roots:
            depth = {root: 0}
            frontier = [root]
            while frontier:
                following = []
                for v in frontier:
                    for u in adjacency[v]:
                        if u not in depth:
                            depth[u] = depth[v] + 1
                            following.append(u)
                frontier = following
            table = {f"n{v}:{d}": d for v, d in depth.items()}
            total += len(sorted(table))
        return total

    def _spmm(self) -> float:
        """A Chebyshev-style recurrence: repeated sparse x dense
        products feeding small dense GEMMs."""
        acc = 0.0
        for _ in range(SWEEPS):
            x0 = self._x
            x1 = self._operator @ x0
            out = x1 @ self._w
            for _ in range(ORDER):
                x0, x1 = x1, 2.0 * (self._operator @ x1) - x0
                out += x1 @ self._w
            acc += float(out[0, 0])
        return acc

    def __call__(self) -> float:
        start = time.perf_counter()
        self._walk()
        self._spmm()
        return time.perf_counter() - start
