"""Graclus-style greedy graph coarsening (Sec. III-B).

The paper's pooling uses "the greedy Graclus heuristic, built on top of
the Metis algorithm for multilevel clustering".  The operative part is
Graclus's greedy matching step: repeatedly pick an unmarked vertex and
merge it with the unmarked neighbour maximizing the normalized-cut
weight ``w_ij (1/d_i + 1/d_j)``; unmatched vertices become singleton
clusters.  Applied recursively this roughly halves the graph at every
level, giving the multilevel clustering the pool layers consume.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from repro.graph.laplacian import chebyshev_laplacian
from repro.utils.sparse import csr_from_coo, float64_csr, row_ids, row_sums


def graclus_matching(adjacency: sp.spmatrix, rng) -> np.ndarray:
    """One level of greedy normalized-cut matching.

    Returns ``assign``: fine vertex → coarse cluster id (clusters have
    one or two members).  ``rng`` shuffles the visit order, as Graclus
    prescribes, so coarsenings differ between seeds but are fully
    reproducible for a fixed one.
    """
    adjacency = float64_csr(adjacency)
    return _greedy_matching(
        adjacency, rng.permutation(adjacency.shape[0]).tolist()
    )


def _greedy_matching(adjacency: sp.csr_matrix, order: list[int]) -> np.ndarray:
    """Graclus's greedy matching, visiting vertices in ``order``.

    Cluster ids count up in visit order.  The greedy loop is sequential
    by definition, so it runs over plain Python lists, whose float
    arithmetic is the same IEEE double arithmetic as numpy's.
    """
    n = adjacency.shape[0]
    degrees = row_sums(adjacency)
    with np.errstate(divide="ignore"):
        inv_deg = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-12), 0.0)

    matched = [-1] * n
    next_cluster = 0
    indptr = adjacency.indptr.tolist()
    indices = adjacency.indices.tolist()
    data = adjacency.data.tolist()
    inv_deg = inv_deg.tolist()

    for vertex in order:
        if matched[vertex] >= 0:
            continue
        best_neighbor = -1
        best_score = -math.inf
        for idx in range(indptr[vertex], indptr[vertex + 1]):
            neighbor = indices[idx]
            if neighbor == vertex or matched[neighbor] >= 0:
                continue
            score = data[idx] * (inv_deg[vertex] + inv_deg[neighbor])
            if score > best_score:
                best_score = score
                best_neighbor = neighbor
        matched[vertex] = next_cluster
        if best_neighbor >= 0:
            matched[best_neighbor] = next_cluster
        next_cluster += 1
    return np.array(matched, dtype=np.int64)


def coarsen_adjacency(adjacency: sp.spmatrix, assign: np.ndarray) -> sp.csr_matrix:
    """Collapse an adjacency through a cluster assignment.

    ``W_c = Sᵀ W S`` with the diagonal (intra-cluster weight) removed,
    since self-loops carry no information for the next matching or for
    the Laplacian.  Every entry maps through ``assign``; intra-cluster
    entries drop and the rest sum per coarse ``(row, col)``.
    """
    adjacency = float64_csr(adjacency)
    n_coarse = int(assign.max()) + 1 if assign.size else 0
    rows = assign[row_ids(adjacency.indptr)]
    cols = assign[adjacency.indices]
    inter = rows != cols
    return csr_from_coo(
        rows[inter], cols[inter], adjacency.data[inter], n_coarse
    )


@dataclass
class CoarseningPyramid:
    """All levels of a multilevel clustering of one graph, or of the
    disjoint union of several.

    ``adjacencies[0]`` is the input graph; ``assignments[ℓ]`` maps
    level-ℓ vertices to level-(ℓ+1) clusters; ``laplacians[ℓ]`` is the
    rescaled normalized Laplacian at each level, ready for ChebConv.
    ``offsets[ℓ]`` is the (B+1,) array of block boundaries at level ℓ:
    graph ``i`` of the union owns vertices
    ``offsets[ℓ][i]:offsets[ℓ][i+1]`` there.  ``members[ℓ]`` is the
    pooling table of ``assignments[ℓ]`` (:func:`cluster_members`).
    """

    adjacencies: list[sp.csr_matrix]
    assignments: list[np.ndarray]
    laplacians: list[sp.csr_matrix]
    offsets: list[np.ndarray]
    members: list[np.ndarray]

    @property
    def n_levels(self) -> int:
        return len(self.adjacencies)

    def sizes(self) -> list[int]:
        return [a.shape[0] for a in self.adjacencies]


def cluster_members(assign: np.ndarray) -> np.ndarray:
    """Each cluster's lowest (row 0) and highest (row 1) fine member
    under ``assign``, as one (2, n_coarse) array.

    Graclus clusters hold one or two vertices, so max-pooling reduces
    to two gathers plus an elementwise max, and its backward to two row
    scatters.  The table depends only on the static assignment, so a
    pyramid builds its own with its levels and a packed batch
    concatenates them.
    """
    n_coarse = int(assign.max()) + 1 if assign.size else 0
    order = np.argsort(assign, kind="stable")
    clusters = np.arange(n_coarse)
    sorted_assign = assign[order]
    first = np.searchsorted(sorted_assign, clusters, side="left")
    last = np.searchsorted(sorted_assign, clusters, side="right") - 1
    return order[np.stack((first, last))]


def build_pyramid(
    adjacency: sp.spmatrix, levels: int, rng
) -> CoarseningPyramid:
    """Coarsen one graph ``levels`` times and precompute every level's
    Laplacian and pooling table (a union of one, see
    :func:`build_union_pyramid`)."""
    n = adjacency.shape[0]
    return build_union_pyramid(
        adjacency, levels, [rng], np.array([0, n], dtype=np.int64)
    )


def build_union_pyramid(
    adjacency: sp.spmatrix, levels: int, rngs: list, bounds: np.ndarray
) -> CoarseningPyramid:
    """Coarsen the disjoint union of ``len(rngs)`` graphs ``levels``
    times and precompute every level's Laplacian and pooling table.

    Graph ``i`` owns rows ``bounds[i]:bounds[i+1]`` of ``adjacency``
    and no edge leaves its block.  Each level runs one greedy matching
    over the graphs' own ``rngs[i].permutation`` visit orders, placed
    one after the other, so cluster ids continue block by block; one
    coarsening and one Laplacian serve every graph.  Because the blocks
    are disconnected, every level equals the block-diagonal pack of the
    graphs' own pyramids bit for bit.  The union stops coarsening as
    soon as any graph is down to one vertex, where that graph's own
    pyramid stops.
    """
    adjacencies = [float64_csr(adjacency)]
    offsets = [np.asarray(bounds, dtype=np.int64)]
    assignments: list[np.ndarray] = []
    for _ in range(levels):
        current, fine = adjacencies[-1], offsets[-1]
        sizes = fine[1:] - fine[:-1]
        if (sizes <= 1).any():
            break
        order = np.concatenate(
            [rng.permutation(size) + lo
             for rng, size, lo in zip(rngs, sizes.tolist(), fine.tolist())]
        )
        assign = _greedy_matching(current, order.tolist())
        assignments.append(assign)
        adjacencies.append(coarsen_adjacency(current, assign))
        coarse = np.zeros_like(fine)
        coarse[1:] = np.maximum.reduceat(assign, fine[:-1]) + 1
        offsets.append(coarse)
    return CoarseningPyramid(
        adjacencies=adjacencies,
        assignments=assignments,
        laplacians=[chebyshev_laplacian(a) for a in adjacencies],
        offsets=offsets,
        members=[cluster_members(a) for a in assignments],
    )
