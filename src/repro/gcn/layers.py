"""Neural-network layers with manual forward/backward passes.

No autograd framework is available offline, so every layer implements
its own reverse-mode gradient.  The contract:

* ``forward(x, ctx, training)`` consumes an (n, F) activation and the
  batch's :class:`SampleContext` (graph Laplacians and pooling maps
  at every coarsening level) and returns the next activation;
* ``backward(grad)`` consumes ∂loss/∂output, accumulates parameter
  gradients into ``self.grads`` and returns ∂loss/∂input.

Once an optimizer is built over a layer, its ``params`` and ``grads``
entries are views into the optimizer's flat arena
(:class:`~repro.gcn.optim.ParameterArena`): layers update them in
place and never rebind them.

Layers are stateful across a single forward/backward pair: a training
forward caches what backward needs, and an inference forward caches
nothing (it clears the cache, so a model keeps no activations after
inference and pickles as small as a fresh one).  The
:class:`~repro.gcn.model.GCNModel` drives them strictly in that order,
one packed batch of graphs at a time (``repro.gcn.batch``), before the
optimizer steps.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp

from repro.exceptions import ModelConfigError
from repro.gcn.chebyshev import chebyshev_slabs, chebyshev_slabs_backward


@dataclass
class SampleContext:
    """Graph-dependent state a layer stack needs for one forward.

    :meth:`~repro.gcn.batch.PackedBatch.context` builds it for a packed
    batch of B ≥ 1 graphs.  ``laplacians[ℓ]`` is the block-diagonal
    rescaled Laplacian at coarsening level ℓ (level 0 = original
    graphs).  ``assignments[ℓ]`` maps fine vertex → coarse vertex
    between level ℓ and ℓ+1, and ``members[ℓ]`` is its (2, n_coarse)
    lowest/highest fine-member table (:func:`cluster_members`), which
    :meth:`~repro.gcn.batch.PackedBatch.context` brings from the
    samples and a hand-built context derives from ``assignments``.
    ``level`` is mutated by pool/unpool layers as the batch flows
    through the network.

    ``cache`` is the batch's memo dict.  The first ChebConv layer reads
    its Chebyshev basis there: the basis depends only on the fixed
    Laplacian and input features, not on the weights, so
    :meth:`~repro.gcn.batch.PackedBatch.seed_input_basis` computes it
    once per graph and every later packing of that graph reuses it.

    ``offsets[ℓ][i]`` is the first packed row of graph ``i`` at
    coarsening level ℓ.  Layers whose math is *not* row-local
    (BatchNorm statistics, Dropout's RNG stream) consult
    :meth:`segment_offsets` to keep each graph's math its own, segment
    by segment; everything else is oblivious to packing.
    """

    laplacians: list[sp.csr_matrix]
    assignments: list[np.ndarray] = field(default_factory=list)
    level: int = 0
    cache: dict | None = None
    offsets: list[np.ndarray] | None = None
    members: list[np.ndarray] | None = None

    @property
    def laplacian(self) -> sp.csr_matrix:
        return self.laplacians[self.level]

    def cluster_members(self, level: int) -> np.ndarray:
        """The lowest (row 0) and highest (row 1) fine member of every
        cluster at ``level``."""
        if self.members is None:
            self.members = [cluster_members(a) for a in self.assignments]
        return self.members[level]

    def segment_offsets(self) -> np.ndarray | None:
        """Per-graph row boundaries at the current level, or ``None``
        for a single graph (or no offsets), which needs no segmentation.
        """
        if self.offsets is None:
            return None
        bounds = self.offsets[self.level]
        return bounds if len(bounds) > 2 else None

    def reset(self) -> None:
        self.level = 0


class Layer:
    """Base layer: parameter bookkeeping plus the fwd/bwd contract."""

    def __init__(self) -> None:
        self.params: dict[str, np.ndarray] = {}
        self.grads: dict[str, np.ndarray] = {}

    def forward(
        self, x: np.ndarray, ctx: SampleContext, training: bool
    ) -> np.ndarray:
        raise NotImplementedError

    def backward(self, grad: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def zero_grad(self) -> None:
        for key, value in self.params.items():
            grad = self.grads.get(key)
            if grad is None:
                self.grads[key] = np.zeros_like(value)
            else:
                # Fill in place: the gradient may be a view into an
                # optimizer's arena (repro.gcn.optim.ParameterArena).
                grad.fill(0.0)

    def n_parameters(self) -> int:
        return sum(p.size for p in self.params.values())


class ChebConv(Layer):
    """Graph convolution with order-K Chebyshev filters (Sec. III-A).

    Output ``Y = [T_0(L̂)X | … | T_{K-1}(L̂)X] W + b`` with
    ``W ∈ R^{K·Fin × Fout}``.  Glorot-initialized.  The basis is built
    in that slab layout (:func:`~repro.gcn.chebyshev.chebyshev_slabs`),
    and the backward runs the adjoint recurrence on the slabs of
    ``∂Y Wᵀ``, so neither direction re-lays out an array.
    """

    def __init__(self, in_features: int, out_features: int, order: int, rng):
        super().__init__()
        if order < 1:
            raise ModelConfigError("ChebConv order must be >= 1")
        self.in_features = in_features
        self.out_features = out_features
        self.order = order
        scale = np.sqrt(2.0 / (order * in_features + out_features))
        self.params["weight"] = rng.normal(
            0.0, scale, size=(order * in_features, out_features)
        )
        self.params["bias"] = np.zeros(out_features)
        self.zero_grad()
        self._flat: np.ndarray | None = None
        self._laplacian: sp.csr_matrix | None = None
        #: Set by :class:`~repro.gcn.model.GCNModel` on the first conv
        #: layer: its input is the sample's (constant) feature matrix,
        #: so ∂loss/∂input is never consumed and the K sparse products
        #: of the basis backward pass can be skipped entirely.
        self.input_layer = False

    def forward(self, x, ctx, training):
        laplacian = ctx.laplacian
        flat = None
        if ctx.cache is not None and self.input_layer:
            entry = ctx.cache.get("cheb-input-flat")
            # Identity check: a hit requires the very same input and
            # Laplacian array objects (the entry holds strong
            # references, so their ids cannot be recycled) at the same
            # order.  ``PackedBatch.seed_input_basis`` fills the entry;
            # weight updates never invalidate it.
            if (
                entry is not None
                and entry[0] is x
                and entry[1] is laplacian
                and entry[2] == self.order
            ):
                flat = entry[3]
        if flat is None:
            flat = chebyshev_slabs(laplacian, x, self.order)  # (n, K·Fin)
        if training:
            self._flat, self._laplacian = flat, laplacian
        else:
            self._flat = self._laplacian = None
        return flat @ self.params["weight"] + self.params["bias"]

    def backward(self, grad):
        self.grads["weight"] += self._flat.T @ grad
        self.grads["bias"] += grad.sum(axis=0)
        n = grad.shape[0]
        if self.input_layer:
            # ∂loss/∂features is never used; skip K sparse matmuls.
            return np.zeros((n, self.in_features))
        grad_flat = grad @ self.params["weight"].T  # (n, K·Fin): K slabs
        return chebyshev_slabs_backward(self._laplacian, grad_flat, self.order)


class Dense(Layer):
    """Per-vertex fully connected layer ``Y = X W + b``."""

    def __init__(self, in_features: int, out_features: int, rng):
        super().__init__()
        scale = np.sqrt(2.0 / (in_features + out_features))
        self.params["weight"] = rng.normal(0.0, scale, size=(in_features, out_features))
        self.params["bias"] = np.zeros(out_features)
        self.zero_grad()
        self._x: np.ndarray | None = None

    def forward(self, x, ctx, training):
        self._x = x if training else None
        return x @ self.params["weight"] + self.params["bias"]

    def backward(self, grad):
        self.grads["weight"] += self._x.T @ grad
        self.grads["bias"] += grad.sum(axis=0)
        return grad @ self.params["weight"].T


class ReLU(Layer):
    """Rectified linear activation (the paper's empirical winner)."""

    def __init__(self) -> None:
        super().__init__()
        self._mask: np.ndarray | None = None

    def forward(self, x, ctx, training):
        mask = x > 0
        self._mask = mask if training else None
        return x * mask

    def backward(self, grad):
        return grad * self._mask


class Tanh(Layer):
    """tanh activation — kept for the ReLU-vs-tanh comparison."""

    def __init__(self) -> None:
        super().__init__()
        self._y: np.ndarray | None = None

    def forward(self, x, ctx, training):
        y = np.tanh(x)
        self._y = y if training else None
        return y

    def backward(self, grad):
        return grad * (1.0 - self._y**2)


class Dropout(Layer):
    """Inverted dropout; identity at inference."""

    def __init__(self, rate: float, rng):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ModelConfigError(f"dropout rate must be in [0, 1), got {rate}")
        self.rate = rate
        self.rng = rng
        self._mask: np.ndarray | None = None

    def forward(self, x, ctx, training):
        if not training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        # One draw covers packed batches too: Generator.random fills
        # C-contiguous doubles sequentially, so a single (Σn_i, F) draw
        # consumes the stream exactly as B consecutive (n_i, F) draws
        # would — the packed masks are bit-identical to packing the same
        # graphs one at a time, in pack order.
        self._mask = (self.rng.random(x.shape) < keep) / keep
        return x * self._mask

    def backward(self, grad):
        if self._mask is None:
            return grad
        return grad * self._mask


class BatchNorm(Layer):
    """Normalization over the vertex axis of each graph.

    In training, each feature is normalized over each graph's own
    vertices (running statistics are kept for inference) — the "batch
    normalization ... all input quantities in the same numerical range"
    regularizer of Sec. V-A.  ``backward`` follows a training forward
    only: inference normalizes by the running statistics and keeps
    nothing to differentiate.

    The running mean and variance are the two rows of one (2, F)
    buffer, ``running``, which training folds in place; a checkpoint
    restore writes into it as well.
    """

    def __init__(self, features: int, momentum: float = 0.9, eps: float = 1e-5):
        super().__init__()
        self.params["gamma"] = np.ones(features)
        self.params["beta"] = np.zeros(features)
        self.zero_grad()
        self.momentum = momentum
        self.eps = eps
        self.running = np.stack([np.zeros(features), np.ones(features)])
        self._forget()

    @property
    def running_mean(self) -> np.ndarray:
        return self.running[0]

    @property
    def running_var(self) -> np.ndarray:
        return self.running[1]

    def _forget(self) -> None:
        """Drop the backward cache: an inference forward keeps none."""
        self._xhat = self._std = None
        self._starts = self._sizes = self._counts = None

    def forward(self, x, ctx, training):
        if not training:
            self._forget()
            std = np.sqrt(self.running_var + self.eps)
            xhat = (x - self.running_mean) / std
            return self.params["gamma"] * xhat + self.params["beta"]
        # Training statistics are per graph: one segment per packed
        # graph (or the whole array for a pack of one).  Segment sums
        # go through ``np.add.reduceat``, whose plain sequential
        # accumulation is *segment-stable* — a segment sums to the same
        # bits whether it is reduced alone or inside a packed array —
        # so a graph's statistics do not depend on its pack-mates.
        # (``ndarray.mean``'s pairwise summation is faster per call but
        # cannot be vectorized over ragged segments bit-identically.)
        bounds = ctx.segment_offsets()
        if bounds is None:
            starts = np.zeros(1, dtype=np.int64)
            sizes = np.array([x.shape[0]], dtype=np.int64)
        else:
            starts = bounds[:-1]
            sizes = bounds[1:] - starts
        counts = sizes.astype(np.float64)[:, None]
        self._starts, self._sizes, self._counts = starts, sizes, counts
        mean = np.add.reduceat(x, starts, axis=0) / counts
        single = len(starts) == 1
        centered = x - (mean if single else np.repeat(mean, sizes, axis=0))
        var = np.add.reduceat(centered * centered, starts, axis=0) / counts
        # Running stats fold once per graph in pack order, matching the
        # same graphs packed one at a time bitwise: per graph, both rows
        # become m·running + (1 − m)·stat.
        scaled = (1 - self.momentum) * np.stack((mean, var), axis=1)
        for stat in scaled:
            self.running *= self.momentum
            self.running += stat
        std = np.sqrt(var + self.eps)
        self._std = std if single else np.repeat(std, sizes, axis=0)
        self._xhat = centered / self._std
        return self.params["gamma"] * self._xhat + self.params["beta"]

    def backward(self, grad):
        xhat, std = self._xhat, self._std
        self.grads["gamma"] += (grad * xhat).sum(axis=0)
        self.grads["beta"] += grad.sum(axis=0)
        gg = grad * self.params["gamma"]
        starts, sizes, counts = self._starts, self._sizes, self._counts
        mean_gg = np.add.reduceat(gg, starts, axis=0) / counts
        mean_gx = np.add.reduceat(gg * xhat, starts, axis=0) / counts
        if len(starts) == 1:
            out = (gg - mean_gg - xhat * mean_gx) / std
        else:
            out = (
                gg
                - np.repeat(mean_gg, sizes, axis=0)
                - xhat * np.repeat(mean_gx, sizes, axis=0)
            ) / std
        single_vertex = sizes == 1
        if single_vertex.any():
            # A one-vertex graph has no batch statistics to backprop
            # through; its gradient passes straight through the scale.
            rows = np.repeat(single_vertex, sizes)
            out[rows] = gg[rows] / std[rows]
        return out


def cluster_members(assign: np.ndarray) -> np.ndarray:
    """Each cluster's lowest (row 0) and highest (row 1) fine member
    under ``assign``, as one (2, n_coarse) array.

    Graclus clusters hold one or two vertices, so max-pooling reduces
    to two gathers plus an elementwise max, and its backward to two row
    scatters.  The table depends only on the static assignment, so a
    sample computes its own once (``repro.gcn.batch``) and a packed
    batch concatenates them.
    """
    n_coarse = int(assign.max()) + 1 if assign.size else 0
    order = np.argsort(assign, kind="stable")
    clusters = np.arange(n_coarse)
    sorted_assign = assign[order]
    first = np.searchsorted(sorted_assign, clusters, side="left")
    last = np.searchsorted(sorted_assign, clusters, side="right") - 1
    return order[np.stack((first, last))]


class GraphPool(Layer):
    """Cluster max-pooling between coarsening levels (Sec. III-B).

    Uses the Graclus clusters of the sample context: each coarse vertex
    takes the elementwise max over its (1 or 2) members, read from the
    context's member table — "pooling operations ... performed very
    efficiently" on the cluster tree.  A training forward keeps the
    members and which of them won; the backward routes each gradient
    there with two row scatters.  Advances ``ctx.level``.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lo: np.ndarray | None = None
        self._hi: np.ndarray | None = None
        self._high_wins: np.ndarray | None = None
        self._n_fine: int | None = None

    def forward(self, x, ctx, training):
        if ctx.level >= len(ctx.assignments):
            raise ModelConfigError(
                "GraphPool used beyond the available coarsening levels"
            )
        lo, hi = ctx.cluster_members(ctx.level)
        low, high = x[lo], x[hi]
        out = np.maximum(low, high)
        if training:
            # Which member supplied each max, for routing grads: among
            # a cluster's members that attain it, the highest fine
            # index wins.
            self._lo, self._hi = lo, hi
            self._high_wins = high >= low
            self._n_fine = x.shape[0]
        else:
            self._lo = self._hi = self._high_wins = self._n_fine = None
        ctx.level += 1
        return out

    def backward(self, grad):
        out = np.zeros((self._n_fine, grad.shape[1]))
        high_wins = self._high_wins
        # Clusters are disjoint, so each write lands on its own rows.
        # A one-member cluster (lo == hi, where high >= low holds) gets
        # its gradient from the second write.
        out[self._lo] = np.where(high_wins, 0.0, grad)
        out[self._hi] = np.where(high_wins, grad, 0.0)
        return out


class GraphUnpool(Layer):
    """Inverse of :class:`GraphPool`: copy coarse features to members.

    Lets the Fig. 4 conv/pool stack still emit *per-vertex* labels: the
    final network unpools back to level 0 before the dense softmax
    head, so each original vertex receives the representation of its
    multilevel cluster.
    """

    def __init__(self) -> None:
        super().__init__()
        self._lo: np.ndarray | None = None
        self._hi: np.ndarray | None = None

    def forward(self, x, ctx, training):
        if ctx.level == 0:
            raise ModelConfigError("GraphUnpool at level 0 has nothing to undo")
        ctx.level -= 1
        if training:
            self._lo, self._hi = ctx.cluster_members(ctx.level)
        else:
            self._lo = self._hi = None
        return x[ctx.assignments[ctx.level]]

    def backward(self, grad):
        # Each coarse vertex sums its members' gradients in ascending
        # fine order — the order ``np.add.at(out, assign, grad)`` would
        # accumulate them in.
        out = grad[self._lo]
        pair = self._hi != self._lo
        out[pair] += grad[self._hi[pair]]
        return out
