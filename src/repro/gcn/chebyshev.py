"""Chebyshev polynomial machinery for spectral graph filters (Eq. 3–5).

The order-K filter ``g_θ(L) x = Σ_k θ_k T_k(L̂) x`` is evaluated with the
three-term recurrence ``T_k(x) = 2 x T_{k-1}(x) − T_{k-2}(x)``, costing
K sparse multiplications — the O(Kn) evaluation the paper relies on.

The terms are written in the layout the graph convolution multiplies
by its weight: side by side, as the column slabs of one (n, K·F) array
(:func:`chebyshev_slabs`).  The (K, n, F) stacking of
:func:`chebyshev_basis` is a view of that array, so there is one
implementation of each direction.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def chebyshev_polynomial(k: int, x: np.ndarray | float) -> np.ndarray | float:
    """Scalar/elementwise Chebyshev polynomial ``T_k(x)`` (Eq. 4).

    Used by tests to validate the operator recurrence against the
    closed form ``T_k(cos θ) = cos(k θ)``.
    """
    if k < 0:
        raise ValueError("Chebyshev order must be non-negative")
    if k == 0:
        return np.ones_like(x) if isinstance(x, np.ndarray) else 1.0
    if k == 1:
        return x
    t_prev, t_cur = (np.ones_like(x) if isinstance(x, np.ndarray) else 1.0), x
    for _ in range(2, k + 1):
        t_prev, t_cur = t_cur, 2 * x * t_cur - t_prev
    return t_cur


def chebyshev_slabs(
    laplacian: sp.spmatrix, x: np.ndarray, order: int
) -> np.ndarray:
    """``[T_0(L̂)x | … | T_{K-1}(L̂)x]`` as one (n, K·F) array.

    This is the layout :class:`~repro.gcn.layers.ChebConv` multiplies
    by its (K·F, F_out) weight: slab ``k`` is columns ``k·F:(k+1)·F``.
    The recurrence keeps its two latest terms as contiguous (n, F)
    arrays, which the sparse products read, and writes each term into
    its slab once.  ``laplacian`` must already be rescaled to spectrum
    ⊆ [−1, 1] (:func:`repro.graph.rescaled_laplacian`).
    """
    if order < 1:
        raise ValueError("Chebyshev order K must be >= 1")
    n, f = x.shape
    flat = np.empty((n, order * f), dtype=np.float64)
    flat[:, :f] = x
    if order > 1:
        older, old = x, laplacian @ x
        flat[:, f : 2 * f] = old
        for k in range(2, order):
            # T_k x = 2 L̂ T_{k-1} x − T_{k-2} x, in place on the product.
            new = laplacian @ old
            new *= 2.0
            new -= older
            flat[:, k * f : (k + 1) * f] = new
            older, old = old, new
    return flat


def chebyshev_slabs_backward(
    laplacian: sp.spmatrix, grad_flat: np.ndarray, order: int
) -> np.ndarray:
    """Reverse-mode gradient of :func:`chebyshev_slabs` w.r.t. ``x``.

    ``grad_flat`` holds the upstream gradients ``G_k = ∂loss/∂T_k(L̂)x``
    as the K (n, F) slabs of one (n, K·F) array (the product of the
    output gradient and the transposed weight).  The recurrence runs
    backwards (L̂ is symmetric, so each adjoint multiplies by L̂ itself),
    again in K sparse products, carrying only the two slabs it updates:

        for k = K−1 … 2:  G_{k−1} += 2 L̂ G_k ;  G_{k−2} −= G_k
        ∂loss/∂x = G_0 + L̂ G_1
    """
    f = grad_flat.shape[1] // order

    def slab(k: int) -> np.ndarray:
        return grad_flat[:, k * f : (k + 1) * f]

    if order == 1:
        return slab(0).copy()
    # ``upper`` is G_k, final; ``lower`` is G_{k−1}, still accumulating
    # (a copy: the caller's gradient is left as it was).
    upper = np.ascontiguousarray(slab(order - 1))
    lower = slab(order - 2).copy()
    for k in range(order - 1, 1, -1):
        spread = laplacian @ upper
        spread *= 2.0
        lower += spread
        upper, lower = lower, slab(k - 2) - upper
    return lower + (laplacian @ upper)


def chebyshev_basis(
    laplacian: sp.spmatrix, x: np.ndarray, order: int
) -> np.ndarray:
    """Stack ``[T_0(L̂)x, …, T_{K-1}(L̂)x]`` along a new leading axis.

    ``x`` is (n, F); the result is a (K, n, F) view of
    :func:`chebyshev_slabs`' array.
    """
    n, f = x.shape
    flat = chebyshev_slabs(laplacian, x, order)
    return flat.reshape(n, order, f).transpose(1, 0, 2)


def chebyshev_basis_backward(
    laplacian: sp.spmatrix, grad_basis: np.ndarray
) -> np.ndarray:
    """Reverse-mode gradient of :func:`chebyshev_basis` w.r.t. ``x``,
    given (K, n, F) upstream gradients: :func:`chebyshev_slabs_backward`
    on their slab layout."""
    order, n, f = grad_basis.shape
    grad_flat = np.asarray(grad_basis, dtype=np.float64).transpose(1, 0, 2)
    return chebyshev_slabs_backward(
        laplacian, grad_flat.reshape(n, order * f), order
    )


def filter_signal(
    laplacian: sp.spmatrix, x: np.ndarray, theta: np.ndarray
) -> np.ndarray:
    """Apply a single scalar Chebyshev filter ``Σ_k θ_k T_k(L̂) x``.

    This is Eq. 5 verbatim — one filter, one input channel — useful for
    spectral-analysis demos and for validating ChebConv against the
    dense Fourier-domain evaluation ``U g_θ(Λ) Uᵀ x`` (Eq. 2).
    """
    theta = np.asarray(theta, dtype=np.float64)
    basis = chebyshev_basis(laplacian, x.reshape(-1, 1), order=len(theta))
    return np.tensordot(theta, basis[:, :, 0], axes=1)
