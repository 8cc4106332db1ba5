"""Block-diagonal minibatch packing for the recognition GCN.

Graphs have varying vertex counts, so running them one at a time pays
B separate Chebyshev recurrences and B small GEMMs per minibatch.  The
standard batched-GNN trick packs the B samples into *one* virtual graph
whose Laplacian is block diagonal::

    L_packed = diag(L_0, L_1, …, L_{B-1})        (CSR, per level)
    X_packed = vstack(X_0, …, X_{B-1})           (Σn_i, F)

Because the blocks are disconnected, ``L_packed @ X_packed`` computes
every sample's sparse product in one call, the three-term Chebyshev
recurrence runs once for the whole batch, and every dense layer sees a
single tall GEMM instead of B short ones.  Cluster assignments are
concatenated with per-sample *coarse* offsets so pooling/unpooling stay
within their own block.

Every GCN forward is packed; a single graph runs as a pack of one.
Block isolation — a graph's rows do not depend on its pack-mates:
every graph-structured operation is *bitwise* identical to the graph
packed alone — CSR matmul is row-by-row (a block's rows only touch
that block's columns, in the same nnz order), pooling and unpooling
are cluster-local, and BatchNorm/Dropout consult ``offsets`` to keep
each graph's statistics and RNG-stream segment its own (see
``layers.py``).  The dense GEMMs agree to fp64 rounding: BLAS kernels
are row-invariant for most shapes but *not* guaranteed to be (OpenBLAS
picks different kernels for narrow outputs such as the
``n_classes``-wide head), so a graph's logits can move by ~1 ulp with
its pack-mates.  Class predictions (argmax) are identical in practice;
tests pin argmax equality exactly and logits to tight fp64 tolerance,
and committed golden training curves pin training at a stated one.

``offsets[ℓ]`` is the (G+1,) vertex-boundary array at coarsening level
ℓ: graph ``i`` owns packed rows ``offsets[ℓ][i]:offsets[ℓ][i+1]``.
A sample built for the disjoint union of several graphs
(:meth:`GraphSample.from_graphs`) brings one segment per member graph,
so G counts graphs, not samples.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelConfigError
from repro.gcn.chebyshev import chebyshev_basis
from repro.gcn.layers import SampleContext
from repro.gcn.samples import GraphSample
from repro.utils.sparse import csr_from_arrays


def block_diag_csr(blocks: list[sp.csr_matrix]) -> sp.csr_matrix:
    """CSR block-diagonal of square CSR blocks, preserving nnz order.

    Rows keep their within-block column order (scipy canonicalizes to
    sorted indices, which each block already has), so a row of the
    packed product accumulates in exactly the block-alone order — the
    bitwise block isolation the tests rely on.
    """
    if len(blocks) == 1:
        return blocks[0]
    # Direct CSR concatenation: stacked row pointers, column indices
    # shifted by each block's diagonal offset.  Equivalent to
    # ``sp.block_diag(blocks, format="csr")`` but skips the COO
    # round-trip, which dominated pack time (~6x slower) at minibatch
    # scale.
    sizes = [b.shape[0] for b in blocks]
    n = sum(sizes)
    idx_dtype = np.result_type(*(b.indices.dtype for b in blocks))
    col_offsets = np.cumsum([0] + sizes[:-1], dtype=idx_dtype)
    nnz_offsets = np.cumsum(
        [0] + [b.nnz for b in blocks[:-1]], dtype=idx_dtype
    )
    data = np.concatenate([b.data for b in blocks])
    indices = np.concatenate(
        [b.indices.astype(idx_dtype, copy=False) + off
         for b, off in zip(blocks, col_offsets)]
    )
    indptr = np.concatenate(
        [np.zeros(1, dtype=idx_dtype)]
        + [b.indptr[1:].astype(idx_dtype, copy=False) + off
           for b, off in zip(blocks, nnz_offsets)]
    )
    return csr_from_arrays(data, indices, indptr, (n, n))


@dataclass
class PackedPyramid:
    """Coarsening pyramid of a packed batch: block-diagonal Laplacians
    plus offset-shifted cluster assignments at every shared level."""

    laplacians: list[sp.csr_matrix]
    assignments: list[np.ndarray]


@dataclass
class PackedBatch:
    """B graph samples (G graphs) packed into one block-diagonal
    virtual sample."""

    samples: list[GraphSample]
    features: np.ndarray  # (Σn_i, F) vstacked
    labels: np.ndarray  # (Σn_i,) concatenated
    mask: np.ndarray  # (Σn_i,) concatenated
    pyramid: PackedPyramid
    offsets: list[np.ndarray]  # per level: (G+1,) per-graph boundaries
    #: Packed-lifetime memo (the packed first-layer Chebyshev basis);
    #: mirrors :attr:`GraphSample.runtime_cache`.
    runtime_cache: dict = field(default_factory=dict)

    @property
    def n_graphs(self) -> int:
        return len(self.offsets[0]) - 1

    @property
    def n_vertices(self) -> int:
        return self.features.shape[0]

    @property
    def name(self) -> str:
        return "+".join(sample.name for sample in self.samples)

    def context(self) -> SampleContext:
        """Fresh per-forward context carrying the segment offsets."""
        return SampleContext(
            laplacians=self.pyramid.laplacians,
            assignments=self.pyramid.assignments,
            cache=self.runtime_cache,
            offsets=self.offsets,
        )

    def split(self, array: np.ndarray) -> list[np.ndarray]:
        """Slice a packed level-0 row array back into per-graph views."""
        bounds = self.offsets[0]
        return [
            array[bounds[i] : bounds[i + 1]] for i in range(self.n_graphs)
        ]

    def seed_input_basis(self, order: int) -> None:
        """Populate the packed first-layer Chebyshev-basis cache.

        The basis depends only on each sample's fixed Laplacian and
        features, never on the weights, so it is shared across every
        epoch *and* every batch composition.  Strategy:

        * all samples cold → one packed recurrence over the
          block-diagonal Laplacian, then store per-sample views back on
          each :attr:`GraphSample.runtime_cache` for later repackings;
        * any sample warm → fill the cold ones individually and vstack
          (one concatenate instead of K sparse products).

        Both routes produce bitwise-identical packed flats.
        """
        lap0 = self.pyramid.laplacians[0]
        packed = self.runtime_cache.get("cheb-input-flat")
        if (
            packed is not None
            and packed[0] is self.features
            and packed[1] is lap0
            and packed[2] == order
        ):
            return

        def _cached_flat(sample: GraphSample) -> np.ndarray | None:
            entry = sample.runtime_cache.get("cheb-input-flat")
            if (
                entry is not None
                and entry[0] is sample.features
                and entry[1] is sample.pyramid.laplacians[0]
                and entry[2] == order
            ):
                return entry[3]
            return None

        n_features = self.features.shape[1]
        per_sample = [_cached_flat(sample) for sample in self.samples]
        if all(flat is None for flat in per_sample):
            basis = chebyshev_basis(lap0, self.features, order)
            flat = basis.transpose(1, 0, 2).reshape(
                self.n_vertices, order * n_features
            )
            bounds = np.cumsum([0] + [s.n_vertices for s in self.samples])
            for i, sample in enumerate(self.samples):
                sample.runtime_cache["cheb-input-flat"] = (
                    sample.features,
                    sample.pyramid.laplacians[0],
                    order,
                    flat[bounds[i] : bounds[i + 1]],
                )
        else:
            for i, sample in enumerate(self.samples):
                if per_sample[i] is None:
                    basis = chebyshev_basis(
                        sample.pyramid.laplacians[0], sample.features, order
                    )
                    per_sample[i] = basis.transpose(1, 0, 2).reshape(
                        sample.n_vertices, order * n_features
                    )
                    sample.runtime_cache["cheb-input-flat"] = (
                        sample.features,
                        sample.pyramid.laplacians[0],
                        order,
                        per_sample[i],
                    )
            flat = (
                per_sample[0] if len(per_sample) == 1
                else np.vstack(per_sample)
            )
        self.runtime_cache["cheb-input-flat"] = (
            self.features, lap0, order, flat,
        )


def pack_samples(samples: list[GraphSample]) -> PackedBatch:
    """Pack B samples into one block-diagonal :class:`PackedBatch`.

    Packs the deepest pyramid prefix *every* sample carries; a model
    needing more levels than some sample carries fails in
    :meth:`~repro.gcn.model.GCNModel.forward_packed` with a
    :class:`ModelConfigError` naming that sample.  A pack of one copies
    nothing: it shares the sample's arrays (nothing writes into a
    packed array).  Offsets count graphs, so a union sample contributes
    one segment per member graph.
    """
    if not samples:
        raise ModelConfigError("cannot pack an empty sample batch")
    levels = min(len(s.pyramid.assignments) for s in samples)
    if len(samples) == 1:
        (sample,) = samples
        pyramid = sample.pyramid
        return PackedBatch(
            samples=[sample],
            features=sample.features,
            labels=sample.labels,
            mask=sample.mask,
            pyramid=PackedPyramid(
                laplacians=pyramid.laplacians[: levels + 1],
                assignments=pyramid.assignments[:levels],
            ),
            offsets=pyramid.offsets[: levels + 1],
        )

    offsets: list[np.ndarray] = []
    laplacians: list[sp.csr_matrix] = []
    starts: list[list[int]] = []  # per level: each sample's first row
    for level in range(levels + 1):
        # Plain-int bookkeeping: a handful of small numpy ops per
        # sample would cost more than the packing itself.
        bounds, start = [0], []
        for s in samples:
            own = s.pyramid.offsets[level].tolist()
            start.append(bounds[-1])
            bounds += [start[-1] + b for b in own[1:]]
        starts.append(start)
        offsets.append(np.array(bounds, dtype=np.int64))
        laplacians.append(
            block_diag_csr([s.pyramid.laplacians[level] for s in samples])
        )

    assignments: list[np.ndarray] = []
    for level in range(levels):
        parts = [s.pyramid.assignments[level] for s in samples]
        shift = np.repeat(starts[level + 1], [len(part) for part in parts])
        assignments.append(np.concatenate(parts) + shift)

    return PackedBatch(
        samples=list(samples),
        features=np.vstack([s.features for s in samples]),
        labels=np.concatenate([s.labels for s in samples]),
        mask=np.concatenate([s.mask for s in samples]),
        pyramid=PackedPyramid(laplacians=laplacians, assignments=assignments),
        offsets=offsets,
    )
