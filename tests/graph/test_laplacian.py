"""Laplacian math (Eq. 1) and its spectral properties."""

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gcn.coarsening import build_pyramid
from repro.graph.laplacian import (
    chebyshev_laplacian,
    fourier_basis,
    laplacian_spectrum,
    largest_eigenvalue,
    normalized_laplacian,
    rescaled_laplacian,
)
from repro.utils.rng import seeded_rng
from repro.utils.sparse import csr_from_arrays

pytestmark = pytest.mark.property


def _path_graph(n: int) -> sp.csr_matrix:
    rows = list(range(n - 1)) + list(range(1, n))
    cols = list(range(1, n)) + list(range(n - 1))
    return sp.csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))


def _random_adjacency(rng: np.random.Generator, n: int, p: float) -> sp.csr_matrix:
    upper = rng.random((n, n)) < p
    upper = np.triu(upper, k=1)
    adj = (upper | upper.T).astype(float)
    return sp.csr_matrix(adj)


class TestNormalizedLaplacian:
    def test_known_two_vertex_graph(self):
        adj = sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]]))
        lap = normalized_laplacian(adj).toarray()
        np.testing.assert_allclose(lap, [[1.0, -1.0], [-1.0, 1.0]])

    def test_symmetric(self):
        lap = normalized_laplacian(_path_graph(7)).toarray()
        np.testing.assert_allclose(lap, lap.T)

    def test_diagonal_ones_for_connected_vertices(self):
        lap = normalized_laplacian(_path_graph(5)).toarray()
        np.testing.assert_allclose(np.diag(lap), np.ones(5))

    def test_isolated_vertex_identity_row(self):
        adj = sp.coo_matrix(([1.0, 1.0], ([0, 1], [1, 0])), shape=(3, 3)).tocsr()
        lap = normalized_laplacian(adj).toarray()
        assert lap[2, 2] == 1.0
        assert lap[2, 0] == lap[2, 1] == 0.0

    def test_constant_vector_near_kernel(self):
        # For a regular graph D^{-1/2} 1 is an exact 0-eigenvector.
        n = 6
        ring = sp.csr_matrix(
            (np.ones(2 * n), (list(range(n)) * 2, [(i + 1) % n for i in range(n)] + [(i - 1) % n for i in range(n)])),
            shape=(n, n),
        )
        lap = normalized_laplacian(ring)
        v = np.ones(n) / np.sqrt(n)
        np.testing.assert_allclose(lap @ v, np.zeros(n), atol=1e-12)

    @given(st.integers(min_value=2, max_value=30), st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40, deadline=None)
    def test_spectrum_in_zero_two(self, n, seed):
        """Normalized-Laplacian eigenvalues always lie in [0, 2]."""
        rng = np.random.default_rng(seed)
        adj = _random_adjacency(rng, n, p=0.4)
        spectrum = laplacian_spectrum(adj)
        assert spectrum.min() >= -1e-9
        assert spectrum.max() <= 2.0 + 1e-9

    def test_zero_eigenvalue_count_equals_components(self):
        adj = sp.block_diag([_path_graph(3), _path_graph(4)]).tocsr()
        spectrum = laplacian_spectrum(adj)
        assert int((np.abs(spectrum) < 1e-9).sum()) == 2


class TestLargestEigenvalue:
    def test_default_upper_bound(self):
        lap = normalized_laplacian(_path_graph(5))
        assert largest_eigenvalue(lap) == 2.0

    def test_exact_lanczos(self):
        lap = normalized_laplacian(_path_graph(20))
        exact = largest_eigenvalue(lap, exact=True)
        dense = np.linalg.eigvalsh(lap.toarray()).max()
        assert exact == pytest.approx(dense, rel=1e-6)

    def test_exact_tiny_graph(self):
        lap = normalized_laplacian(sp.csr_matrix(np.array([[0.0, 1.0], [1.0, 0.0]])))
        assert largest_eigenvalue(lap, exact=True) == pytest.approx(2.0)


class TestRescaledLaplacian:
    def test_spectrum_in_minus_one_one(self):
        adj = _path_graph(9)
        lap = normalized_laplacian(adj)
        rescaled = rescaled_laplacian(lap).toarray()
        eigs = np.linalg.eigvalsh(rescaled)
        assert eigs.min() >= -1.0 - 1e-9
        assert eigs.max() <= 1.0 + 1e-9

    def test_rejects_nonpositive_lmax(self):
        lap = normalized_laplacian(_path_graph(3))
        with pytest.raises(ValueError):
            rescaled_laplacian(lap, lmax=0.0)

    def test_formula(self):
        lap = normalized_laplacian(_path_graph(4))
        rescaled = rescaled_laplacian(lap, lmax=2.0).toarray()
        expected = lap.toarray() - np.eye(4)
        np.testing.assert_allclose(rescaled, expected)


def _weighted_adjacency(
    rng: np.random.Generator, n: int, p: float, isolated: int
) -> sp.csr_matrix:
    """Symmetric random weights with ``isolated`` edge-free vertices
    scattered among the ``n`` connected-or-not ones."""
    upper = np.triu(rng.random((n, n)) < p, k=1)
    weights = np.where(upper, rng.uniform(0.1, 3.0, size=(n, n)), 0.0)
    total = n + isolated
    keep = np.sort(rng.choice(total, size=n, replace=False))
    dense = np.zeros((total, total))
    dense[np.ix_(keep, keep)] = weights + weights.T
    return sp.csr_matrix(dense)


def _assert_same_csr(got: sp.csr_matrix, want: sp.csr_matrix) -> None:
    assert got.shape == want.shape
    for name in ("indptr", "indices", "data"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype, name
        assert a.tobytes() == b.tobytes(), name


class TestChebyshevLaplacian:
    """The one-pass ``L̂`` equals the two-step reference bit for bit."""

    @staticmethod
    def _reference(adjacency: sp.spmatrix) -> sp.csr_matrix:
        return rescaled_laplacian(normalized_laplacian(adjacency))

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(min_value=0, max_value=40),
        p=st.floats(min_value=0.0, max_value=0.6),
        isolated=st.integers(min_value=0, max_value=4),
        seed=st.integers(min_value=0, max_value=10_000),
    )
    def test_random_graphs(self, n, p, isolated, seed):
        adj = _weighted_adjacency(np.random.default_rng(seed), n, p, isolated)
        _assert_same_csr(chebyshev_laplacian(adj), self._reference(adj))

    @pytest.mark.parametrize("seed", range(6))
    def test_coarsened_levels(self, seed):
        rng = np.random.default_rng(seed)
        adj = _random_adjacency(rng, 30, 0.15)
        pyramid = build_pyramid(adj, levels=3, rng=seeded_rng(seed))
        assert pyramid.n_levels > 1
        for level, adjacency in enumerate(pyramid.adjacencies):
            want = self._reference(adjacency)
            _assert_same_csr(chebyshev_laplacian(adjacency), want)
            _assert_same_csr(pyramid.laplacians[level], want)

    def test_empty_graph(self):
        adj = sp.csr_matrix((0, 0))
        _assert_same_csr(chebyshev_laplacian(adj), self._reference(adj))

    def test_isolated_vertices_only(self):
        adj = sp.csr_matrix((4, 4))
        lap = chebyshev_laplacian(adj)
        assert lap.nnz == 0
        _assert_same_csr(lap, self._reference(adj))

    def test_self_loops_keep_reference_rounding(self):
        dense = np.array([[0.7, 1.0, 0.0], [1.0, 0.0, 2.0], [0.0, 2.0, 1.3]])
        adj = sp.csr_matrix(dense)
        _assert_same_csr(chebyshev_laplacian(adj), self._reference(adj))

    def test_non_canonical_input_takes_reference_path(self):
        # Row 0 lists its columns out of order; row 1 repeats one.
        adj = csr_from_arrays(
            np.array([1.0, 2.0, 1.0, 0.5, 0.5, 2.0]),
            np.array([2, 1, 0, 2, 2, 0], dtype=np.int32),
            np.array([0, 2, 5, 6], dtype=np.int32),
            (3, 3),
        )
        _assert_same_csr(chebyshev_laplacian(adj), self._reference(adj))


class TestFourierBasis:
    def test_reconstructs_laplacian(self):
        adj = _path_graph(6)
        eigenvalues, u = fourier_basis(adj)
        lap = normalized_laplacian(adj).toarray()
        np.testing.assert_allclose(u @ np.diag(eigenvalues) @ u.T, lap, atol=1e-10)

    def test_orthonormal(self):
        _eigenvalues, u = fourier_basis(_path_graph(6))
        np.testing.assert_allclose(u.T @ u, np.eye(6), atol=1e-10)

    def test_transform_roundtrip(self):
        adj = _path_graph(8)
        _eigs, u = fourier_basis(adj)
        x = np.arange(8, dtype=float)
        np.testing.assert_allclose(u @ (u.T @ x), x, atol=1e-10)
