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
within their own block, and each sample's pooling tables (its clusters'
lowest and highest fine members, computed once per sample) with its
*fine* offsets.  Packing is concatenation: every packed array is one
``np.concatenate`` of the samples' arrays plus one ``np.repeat`` of
their block offsets.

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
from itertools import accumulate

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelConfigError
from repro.gcn.chebyshev import chebyshev_slabs
from repro.gcn.layers import SampleContext, cluster_members
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
    nnzs = [len(b.indices) for b in blocks]
    idx_dtype = np.result_type(*{b.indices.dtype for b in blocks})
    n = sum(sizes)
    data = np.concatenate([b.data for b in blocks])
    indices = np.concatenate([b.indices for b in blocks], dtype=idx_dtype)
    indices += np.repeat(_starts(sizes, idx_dtype), nnzs)
    indptr = np.zeros(n + 1, dtype=idx_dtype)
    np.add(
        np.concatenate([b.indptr[1:] for b in blocks], dtype=idx_dtype),
        np.repeat(_starts(nnzs, idx_dtype), sizes),
        out=indptr[1:],
    )
    return csr_from_arrays(data, indices, indptr, (n, n))


def _starts(sizes: list[int], dtype=np.int64) -> np.ndarray:
    """Where each of consecutive blocks of ``sizes`` starts."""
    return np.fromiter(accumulate(sizes[:-1], initial=0), dtype, len(sizes))


def sample_members(sample: GraphSample) -> list[np.ndarray]:
    """Every level's (2, n_coarse) cluster-member table of ``sample``:
    each cluster's lowest and highest fine member
    (:func:`~repro.gcn.layers.cluster_members`).

    The tables depend only on the sample's fixed pyramid, so they are
    computed once and kept in its :attr:`GraphSample.runtime_cache`,
    next to its first-layer Chebyshev basis; every later packing
    concatenates them.
    """
    assignments = sample.pyramid.assignments
    entry = sample.runtime_cache.get("pool-members")
    if entry is None or entry[0] is not assignments:
        entry = (assignments, [cluster_members(a) for a in assignments])
        sample.runtime_cache["pool-members"] = entry
    return entry[1]


@dataclass
class PackedPyramid:
    """Coarsening pyramid of a packed batch: block-diagonal Laplacians
    plus offset-shifted cluster assignments and (2, n_coarse)
    lowest/highest cluster-member tables at every shared level."""

    laplacians: list[sp.csr_matrix]
    assignments: list[np.ndarray]
    members: list[np.ndarray]


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
            members=self.pyramid.members,
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

        per_sample = [_cached_flat(sample) for sample in self.samples]
        if all(flat is None for flat in per_sample):
            flat = chebyshev_slabs(lap0, self.features, order)
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
                    per_sample[i] = chebyshev_slabs(
                        sample.pyramid.laplacians[0], sample.features, order
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
    one segment per member graph.  Packed cluster ids and member
    tables are each sample's own, shifted block by block, so they equal
    what the packed assignment itself would give, integer for integer.
    """
    if not samples:
        raise ModelConfigError("cannot pack an empty sample batch")
    levels = min(len(s.pyramid.assignments) for s in samples)
    tables = [sample_members(s)[:levels] for s in samples]
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
                members=tables[0],
            ),
            offsets=pyramid.offsets[: levels + 1],
        )

    pyramids = [s.pyramid for s in samples]
    n_graphs = [len(p.offsets[0]) - 1 for p in pyramids]
    # Per level: each sample's vertex count and first packed row.
    sizes = [[p.laplacians[level].shape[0] for p in pyramids]
             for level in range(levels + 1)]
    starts = [_starts(level_sizes) for level_sizes in sizes]

    offsets: list[np.ndarray] = []
    laplacians: list[sp.csr_matrix] = []
    for level in range(levels + 1):
        bounds = np.zeros(sum(n_graphs) + 1, dtype=np.int64)
        np.add(
            np.concatenate([p.offsets[level][1:] for p in pyramids]),
            np.repeat(starts[level], n_graphs),
            out=bounds[1:],
        )
        offsets.append(bounds)
        laplacians.append(block_diag_csr([p.laplacians[level] for p in pyramids]))

    assignments: list[np.ndarray] = []
    members: list[np.ndarray] = []
    for level in range(levels):
        # Cluster ids shift by each sample's first coarse row, member
        # indices by its first fine row.
        assignments.append(
            np.concatenate([p.assignments[level] for p in pyramids])
            + np.repeat(starts[level + 1], sizes[level])
        )
        members.append(
            np.concatenate([table[level] for table in tables], axis=1)
            + np.repeat(starts[level], sizes[level + 1])
        )

    return PackedBatch(
        samples=list(samples),
        features=np.vstack([s.features for s in samples]),
        labels=np.concatenate([s.labels for s in samples]),
        mask=np.concatenate([s.mask for s in samples]),
        pyramid=PackedPyramid(
            laplacians=laplacians, assignments=assignments, members=members
        ),
        offsets=offsets,
    )
