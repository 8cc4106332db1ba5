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

from repro.graph.laplacian import normalized_laplacian, rescaled_laplacian
from repro.utils.sparse import csr_from_coo, float64_csr, row_ids, row_sums


def graclus_matching(adjacency: sp.spmatrix, rng) -> np.ndarray:
    """One level of greedy normalized-cut matching.

    Returns ``assign``: fine vertex → coarse cluster id (clusters have
    one or two members).  ``rng`` shuffles the visit order, as Graclus
    prescribes, so coarsenings differ between seeds but are fully
    reproducible for a fixed one.  The greedy loop is sequential by
    definition, so it runs over plain Python lists, whose float
    arithmetic is the same IEEE double arithmetic as numpy's.
    """
    adjacency = float64_csr(adjacency)
    n = adjacency.shape[0]
    degrees = row_sums(adjacency)
    with np.errstate(divide="ignore"):
        inv_deg = np.where(degrees > 0, 1.0 / np.maximum(degrees, 1e-12), 0.0)

    order = rng.permutation(n).tolist()
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
    """All levels of a multilevel clustering of one graph.

    ``adjacencies[0]`` is the input graph; ``assignments[ℓ]`` maps
    level-ℓ vertices to level-(ℓ+1) clusters; ``laplacians[ℓ]`` is the
    rescaled normalized Laplacian at each level, ready for ChebConv.
    """

    adjacencies: list[sp.csr_matrix]
    assignments: list[np.ndarray]
    laplacians: list[sp.csr_matrix]

    @property
    def n_levels(self) -> int:
        return len(self.adjacencies)

    def sizes(self) -> list[int]:
        return [a.shape[0] for a in self.adjacencies]


def build_pyramid(
    adjacency: sp.spmatrix, levels: int, rng
) -> CoarseningPyramid:
    """Coarsen ``levels`` times and precompute every level's Laplacian."""
    adjacencies = [float64_csr(adjacency)]
    assignments: list[np.ndarray] = []
    for _ in range(levels):
        current = adjacencies[-1]
        if current.shape[0] <= 1:
            break
        assign = graclus_matching(current, rng)
        assignments.append(assign)
        adjacencies.append(coarsen_adjacency(current, assign))
    laplacians = [
        rescaled_laplacian(normalized_laplacian(a)) for a in adjacencies
    ]
    return CoarseningPyramid(
        adjacencies=adjacencies, assignments=assignments, laplacians=laplacians
    )
