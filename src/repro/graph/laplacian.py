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


def normalized_laplacian(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """``L = I − D^{-1/2} A D^{-1/2}`` (Eq. 1).

    Accepts any scipy sparse adjacency; returns CSR.  Degree-zero
    vertices contribute an identity row.
    """
    adjacency = sp.csr_matrix(adjacency, dtype=np.float64)
    n = adjacency.shape[0]
    degrees = np.asarray(adjacency.sum(axis=1)).ravel()
    with np.errstate(divide="ignore"):
        inv_sqrt = 1.0 / np.sqrt(degrees)
    inv_sqrt[~np.isfinite(inv_sqrt)] = 0.0
    d_inv_sqrt = sp.diags(inv_sqrt)
    identity = sp.identity(n, format="csr", dtype=np.float64)
    return sp.csr_matrix(identity - d_inv_sqrt @ adjacency @ d_inv_sqrt)


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
    """``L̂ = 2 L / λmax − I`` so the spectrum lands in [−1, 1] (Eq. 3)."""
    laplacian = sp.csr_matrix(laplacian, dtype=np.float64)
    if lmax is None:
        lmax = largest_eigenvalue(laplacian)
    if lmax <= 0:
        raise ValueError(f"λmax must be positive, got {lmax}")
    n = laplacian.shape[0]
    identity = sp.identity(n, format="csr", dtype=np.float64)
    return sp.csr_matrix(laplacian * (2.0 / lmax) - identity)


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
