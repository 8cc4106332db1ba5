"""CSR construction straight from index arrays.

The GCN's graphs are small (tens to hundreds of vertices), so building
their matrices through ``scipy.sparse`` operators costs far more in
per-call overhead than in arithmetic.  These helpers build CSR matrices
from plain numpy arrays instead.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp


def csr_from_arrays(
    data: np.ndarray,
    indices: np.ndarray,
    indptr: np.ndarray,
    shape: tuple[int, int],
) -> sp.csr_matrix:
    """Wrap arrays that are valid canonical CSR by construction.

    Skips the constructor's format checks and index-dtype scans, which
    cost more than the arithmetic at these sizes; falls back to the
    checking constructor if the private fast path ever disappears.
    """
    try:
        out = sp.csr_matrix.__new__(sp.csr_matrix)
        out.data = data
        out.indices = indices
        out.indptr = indptr
        out._shape = shape
        return out
    except AttributeError:  # pragma: no cover - scipy internals moved
        return sp.csr_matrix((data, indices, indptr), shape=shape)


def float64_csr(matrix: sp.spmatrix) -> sp.csr_matrix:
    """``matrix`` as float64 CSR; one that already is comes back as is.

    ``sp.csr_matrix(matrix, dtype=np.float64)`` re-checks the format of
    an input that is already float64 CSR, at several times the cost of
    the small-graph arithmetic that follows.
    """
    if isinstance(matrix, sp.csr_matrix) and matrix.dtype == np.float64:
        return matrix
    return sp.csr_matrix(matrix, dtype=np.float64)


def row_ids(indptr: np.ndarray) -> np.ndarray:
    """Row index of every stored entry of a CSR matrix."""
    return np.repeat(np.arange(len(indptr) - 1), indptr[1:] - indptr[:-1])


def row_sums(matrix: sp.csr_matrix) -> np.ndarray:
    """``matrix.sum(axis=1)`` as a flat array, summed in scipy's order.

    Empty rows are skipped before the ``reduceat``: it cannot take an
    offset equal to ``nnz``, which a trailing empty row would give.
    """
    indptr = matrix.indptr
    sums = np.zeros(matrix.shape[0], dtype=np.float64)
    nonempty = np.flatnonzero(indptr[1:] != indptr[:-1])
    if nonempty.size:
        sums[nonempty] = np.add.reduceat(matrix.data, indptr[nonempty])
    return sums


def csr_from_coo(
    rows: np.ndarray, cols: np.ndarray, values: np.ndarray, n: int
) -> sp.csr_matrix:
    """Canonical ``n``-by-``n`` CSR of float64 coordinate entries.

    Entries are stably sorted by ``(row, col)``; duplicates are summed
    in that order and sums equal to zero are dropped.  The result has
    sorted int32 column indices and an int32 ``indptr``, as scipy's
    own COO-to-CSR conversion gives at these sizes.
    """
    keys = rows.astype(np.int64) * n + cols
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    sums = values[order]
    if keys.size:
        first = np.empty(keys.size, dtype=bool)
        first[0] = True
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        starts = np.flatnonzero(first)
        sums = np.add.reduceat(sums, starts)
        keep = sums != 0
        keys, sums = keys[starts[keep]], sums[keep]
    indptr = np.searchsorted(keys, np.arange(n + 1) * n).astype(np.int32)
    cols = (keys % max(n, 1)).astype(np.int32)
    return csr_from_arrays(sums, cols, indptr, (n, n))
