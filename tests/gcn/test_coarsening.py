"""Graclus coarsening and the pooling pyramid."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcn.coarsening import (
    build_pyramid,
    coarsen_adjacency,
    graclus_matching,
)
from repro.utils.rng import seeded_rng

pytestmark = pytest.mark.property


def _ring(n: int) -> sp.csr_matrix:
    rows = list(range(n)) * 2
    cols = [(i + 1) % n for i in range(n)] + [(i - 1) % n for i in range(n)]
    return sp.csr_matrix((np.ones(2 * n), (rows, cols)), shape=(n, n))


def _with_isolated(adj: sp.csr_matrix, isolated: list[int]) -> sp.csr_matrix:
    """``adj`` with edge-free vertices inserted at the given final indices."""
    n = adj.shape[0] + len(isolated)
    keep = np.setdiff1d(np.arange(n), isolated)
    coo = adj.tocoo()
    return sp.csr_matrix(
        (coo.data, (keep[coo.row], keep[coo.col])), shape=(n, n)
    )


def _random_adj(seed: int, n: int, p: float = 0.3) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < p, k=1)
    return sp.csr_matrix((upper | upper.T).astype(float))


class TestMatching:
    def test_covers_all_vertices(self):
        assign = graclus_matching(_ring(10), seeded_rng(0))
        assert len(assign) == 10
        assert (assign >= 0).all()

    def test_cluster_sizes_at_most_two(self):
        assign = graclus_matching(_ring(11), seeded_rng(1))
        _ids, counts = np.unique(assign, return_counts=True)
        assert counts.max() <= 2

    def test_matched_pairs_are_neighbors(self):
        adj = _random_adj(2, 20)
        assign = graclus_matching(adj, seeded_rng(2))
        dense = adj.toarray()
        for cluster in np.unique(assign):
            members = np.where(assign == cluster)[0]
            if len(members) == 2:
                a, b = members
                assert dense[a, b] > 0

    def test_cluster_ids_contiguous(self):
        assign = graclus_matching(_ring(9), seeded_rng(3))
        ids = np.unique(assign)
        np.testing.assert_array_equal(ids, np.arange(len(ids)))

    def test_deterministic_for_seed(self):
        a = graclus_matching(_ring(16), seeded_rng(7))
        b = graclus_matching(_ring(16), seeded_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_isolated_vertices_become_singletons(self):
        adj = sp.csr_matrix((5, 5))
        assign = graclus_matching(adj, seeded_rng(0))
        assert len(np.unique(assign)) == 5

    @given(st.integers(min_value=2, max_value=40), st.integers(min_value=0, max_value=1000))
    @settings(max_examples=30, deadline=None)
    def test_roughly_halves(self, n, seed):
        adj = _random_adj(seed, n, p=0.5)
        assign = graclus_matching(adj, seeded_rng(seed))
        n_coarse = int(assign.max()) + 1
        assert n_coarse >= (n + 1) // 2  # can't do better than perfect matching
        assert n_coarse <= n


class TestCoarsenAdjacency:
    def test_weights_aggregate(self):
        # Path a-b-c with clusters {a,b},{c}: coarse edge weight 1.
        adj = sp.csr_matrix(
            np.array([[0, 1, 0], [1, 0, 1], [0, 1, 0]], dtype=float)
        )
        assign = np.array([0, 0, 1])
        coarse = coarsen_adjacency(adj, assign).toarray()
        np.testing.assert_allclose(coarse, [[0, 1], [1, 0]])

    def test_self_loops_removed(self):
        adj = _ring(6)
        assign = graclus_matching(adj, seeded_rng(0))
        coarse = coarsen_adjacency(adj, assign)
        assert coarse.diagonal().sum() == 0.0

    def test_symmetry_preserved(self):
        adj = _random_adj(5, 15)
        assign = graclus_matching(adj, seeded_rng(5))
        coarse = coarsen_adjacency(adj, assign)
        assert (coarse != coarse.T).nnz == 0


class TestPyramid:
    def test_level_count(self):
        pyramid = build_pyramid(_ring(16), levels=3, rng=seeded_rng(0))
        assert pyramid.n_levels == 4  # original + 3 coarsenings
        assert len(pyramid.assignments) == 3
        assert len(pyramid.laplacians) == 4

    def test_sizes_decrease(self):
        pyramid = build_pyramid(_ring(32), levels=3, rng=seeded_rng(1))
        sizes = pyramid.sizes()
        assert all(a > b for a, b in zip(sizes, sizes[1:]))

    def test_stops_at_single_vertex(self):
        pyramid = build_pyramid(_ring(4), levels=10, rng=seeded_rng(2))
        assert pyramid.sizes()[-1] >= 1
        assert pyramid.n_levels <= 11

    def test_laplacians_match_adjacency_shapes(self):
        pyramid = build_pyramid(_ring(12), levels=2, rng=seeded_rng(3))
        for adj, lap in zip(pyramid.adjacencies, pyramid.laplacians):
            assert adj.shape == lap.shape

    def test_assignment_shapes_chain(self):
        pyramid = build_pyramid(_ring(20), levels=2, rng=seeded_rng(4))
        for level, assign in enumerate(pyramid.assignments):
            assert len(assign) == pyramid.adjacencies[level].shape[0]
            assert int(assign.max()) + 1 == pyramid.adjacencies[level + 1].shape[0]

    @pytest.mark.parametrize("seed", range(4))
    def test_isolated_vertices_in_the_middle_and_at_the_end(self, seed):
        # A declared port no device touches is an entry-less trailing
        # row of the circuit adjacency; real training decks have them.
        adj = _with_isolated(_random_adj(seed, 14, p=0.25), [0, 6, 7, 17, 18])
        assert adj.indptr[-1] == adj.indptr[-3]  # two empty trailing rows
        pyramid = build_pyramid(adj, levels=2, rng=seeded_rng(seed))
        for level, lap in enumerate(pyramid.laplacians):
            dense = pyramid.adjacencies[level].toarray()
            degrees = dense.sum(axis=1)
            inv_sqrt = np.zeros_like(degrees)
            inv_sqrt[degrees > 0] = 1.0 / np.sqrt(degrees[degrees > 0])
            expected = -(inv_sqrt[:, None] * dense) * inv_sqrt[None, :]
            np.testing.assert_allclose(lap.toarray(), expected, rtol=1e-15, atol=0)
            assert (lap.data != 0).all()
        fine = pyramid.assignments[0]
        for vertex in (0, 6, 7, 17, 18):
            assert (fine == fine[vertex]).sum() == 1  # a singleton cluster

    def test_rescaled_laplacian_spectrum(self):
        pyramid = build_pyramid(_ring(10), levels=2, rng=seeded_rng(5))
        for lap in pyramid.laplacians:
            eigs = np.linalg.eigvalsh(lap.toarray())
            assert eigs.min() >= -1 - 1e-9
            assert eigs.max() <= 1 + 1e-9
