"""Normalized graph Laplacians and their spectra (Sec. III-A, Eq. 1).

The GCN's spectral filters are polynomials in the rescaled normalized
Laplacian ``L̂ = 2 L / λmax − I``.  Isolated vertices (degree 0) get a
zero row in the normalized adjacency so their Laplacian diagonal is 1,
the standard convention that keeps L positive semidefinite with
eigenvalues in [0, 2].
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from repro.utils.sparse import (
    csr_from_arrays,
    csr_from_coo,
    float64_csr,
    row_ids,
    row_sums,
)


def normalized_laplacian(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """``L = I − D^{-1/2} A D^{-1/2}`` (Eq. 1).

    Accepts any scipy sparse adjacency; returns canonical CSR.
    Degree-zero vertices contribute an identity row.  Each off-diagonal
    entry is ``−(d_i^{-1/2} · a_ij) · d_j^{-1/2}``, in that product
    order.
    """
    adjacency = float64_csr(adjacency)
    inv_sqrt = _inv_sqrt_degrees(adjacency)
    rows = row_ids(adjacency.indptr)
    cols = adjacency.indices
    scaled = (inv_sqrt[rows] * adjacency.data) * inv_sqrt[cols]
    return _plus_identity(rows, cols, -scaled, adjacency.shape[0], 1.0)


def _inv_sqrt_degrees(adjacency: sp.csr_matrix) -> np.ndarray:
    """``d_i^{-1/2}`` per vertex, 0 where the degree is not positive."""
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(row_sums(adjacency))
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    return inv_sqrt


def _plus_identity(
    rows: np.ndarray,
    cols: np.ndarray,
    values: np.ndarray,
    n: int,
    shift: float,
) -> sp.csr_matrix:
    """Canonical CSR of ``M + shift·I`` from the entries of ``M``.

    A diagonal entry becomes ``m_ii + shift``.  IEEE addition commutes
    and ``a + (−b)`` is ``a − b``, so this is bit for bit the sparse
    ``I − N`` or ``L − I``; entries that come to zero are dropped, as
    sparse subtraction drops them.
    """
    diagonal = np.arange(n)
    return csr_from_coo(
        np.concatenate([rows, diagonal]),
        np.concatenate([cols, diagonal]),
        np.concatenate([values, np.full(n, shift)]),
        n,
    )


def largest_eigenvalue(laplacian: sp.spmatrix, exact: bool = False) -> float:
    """λmax of a normalized Laplacian.

    For normalized Laplacians λmax ≤ 2 always holds, and the Chebyshev
    rescaling only needs an upper bound, so the default returns 2.0
    (Defferrard's choice; also what the paper's TensorFlow code used).
    Set ``exact=True`` to compute it with Lanczos via ARPACK — the
    "computed inexpensively using the Lanczos algorithm" path of
    Sec. III-A.
    """
    if not exact:
        return 2.0
    n = laplacian.shape[0]
    if n <= 2:
        dense = laplacian.toarray()
        return float(np.linalg.eigvalsh(dense).max())
    value = spla.eigsh(
        laplacian.asfptype(), k=1, which="LM", return_eigenvectors=False
    )
    return float(value[0])


def rescaled_laplacian(
    laplacian: sp.spmatrix, lmax: float | None = None
) -> sp.csr_matrix:
    """``L̂ = 2 L / λmax − I`` so the spectrum lands in [−1, 1] (Eq. 3).

    For the normalized Laplacian of a graph without self-loops, the
    default ``λmax = 2`` cancels the unit diagonal, which is dropped,
    leaving ``L̂_ij = −(d_i^{-1/2} · a_ij) · d_j^{-1/2}``.
    """
    laplacian = float64_csr(laplacian)
    if lmax is None:
        lmax = largest_eigenvalue(laplacian)
    if lmax <= 0:
        raise ValueError(f"λmax must be positive, got {lmax}")
    return _plus_identity(
        row_ids(laplacian.indptr),
        laplacian.indices,
        laplacian.data * (2.0 / lmax),
        laplacian.shape[0],
        -1.0,
    )


def chebyshev_laplacian(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """``rescaled_laplacian(normalized_laplacian(adjacency))`` at the
    default λmax = 2, built in one pass over the adjacency's CSR.

    Both reference steps add ``±I`` by a key sort.  On canonical input
    neither sort moves an entry, and the identity cancels: the result
    has the adjacency's own sparsity pattern with data
    ``−(d_i^{-1/2} · a_ij) · d_j^{-1/2}`` (and, when nothing is
    dropped, the adjacency's own index arrays).  A self-loop keeps the
    reference's rounding, ``(−s_ii + 1) − 1``, and entries equal to
    zero are dropped, as the sorts drop them, so the result equals the
    reference bit for bit.  An adjacency that is not canonical CSR
    (unsorted or duplicate indices) takes the reference path.
    """
    adjacency = float64_csr(adjacency)
    if not adjacency.has_canonical_format:
        return rescaled_laplacian(normalized_laplacian(adjacency))
    inv_sqrt = _inv_sqrt_degrees(adjacency)
    n = adjacency.shape[0]
    indptr = adjacency.indptr.astype(np.int32, copy=False)
    cols = adjacency.indices.astype(np.int32, copy=False)
    rows = row_ids(indptr)
    values = -((inv_sqrt[rows] * adjacency.data) * inv_sqrt[cols])
    loops = np.flatnonzero(rows == cols)
    if loops.size:
        values[loops] = (values[loops] + 1.0) + -1.0
    keep = values != 0
    if not keep.all():
        values, cols = values[keep], cols[keep]
        indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(rows[keep], minlength=n))]
        ).astype(np.int32)
    return csr_from_arrays(values, cols, indptr, (n, n))


def laplacian_spectrum(adjacency: sp.spmatrix) -> np.ndarray:
    """All eigenvalues ("frequencies of the graph") of the normalized
    Laplacian, ascending.  Dense computation — for tests and small
    graphs only."""
    lap = normalized_laplacian(adjacency).toarray()
    return np.linalg.eigvalsh(lap)


def fourier_basis(adjacency: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
    """Eigendecomposition ``L = U Λ Uᵀ`` of the normalized Laplacian.

    Returns ``(eigenvalues, U)``; the graph Fourier transform of a
    signal x is ``Uᵀ x``.  Dense — for validation, not for training.
    """
    lap = normalized_laplacian(adjacency).toarray()
    eigenvalues, u = np.linalg.eigh(lap)
    return eigenvalues, u
