"""The training step's earlier kernels, kept as bitwise references.

A training step writes the Chebyshev basis straight into the slab
layout its GEMM reads, keeps every parameter and gradient in one flat
arena that the optimizer updates in a few vector ops, routes the pool
backward with two row scatters, concatenates each sample's pooling
tables when it packs, and folds BatchNorm's running statistics in
place.  The functions below are the versions those kernels replaced:
the (K, n, F) Chebyshev recurrence and its transposed copy, the 2-D
winner scatter, the cluster-member table computed from a packed
assignment, the per-graph running-statistics fold, the per-tensor Adam
and SGD steps, and the per-block packing loops.  Each new kernel must
equal its reference bit for bit (``np.array_equal``), on seeded arrays
with exact max ties, one-member clusters, one-vertex graphs, K = 1 and
K = 2, and a pack of one.  The hypothesis versions are marked
``property``.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.datasets.synth import (
    build_samples,
    generate_ota_bias_dataset,
    task_classes,
)
from repro.gcn.batch import pack_samples
from repro.gcn.chebyshev import (
    chebyshev_basis,
    chebyshev_basis_backward,
    chebyshev_slabs,
    chebyshev_slabs_backward,
)
from repro.gcn.coarsening import build_pyramid
from repro.gcn.layers import BatchNorm, GraphPool, SampleContext
from repro.gcn.optim import SGD, Adam
from repro.gcn.samples import GraphSample
from repro.graph.laplacian import normalized_laplacian, rescaled_laplacian
from repro.utils.rng import seeded_rng
from repro.utils.sparse import csr_from_arrays

# ---------------------------------------------------------------------------
# References: the earlier kernels
# ---------------------------------------------------------------------------


def reference_chebyshev_basis(laplacian, x, order):
    """``[T_0 x, …, T_{K-1} x]`` in a (K, n, F) buffer."""
    n, f = x.shape
    basis = np.empty((order, n, f), dtype=np.float64)
    basis[0] = x
    if order > 1:
        basis[1] = laplacian @ x
    for k in range(2, order):
        basis[k] = 2.0 * (laplacian @ basis[k - 1]) - basis[k - 2]
    return basis


def reference_chebyshev_flat(laplacian, x, order):
    """The (K, n, F) basis copied transposed into ChebConv's layout."""
    basis = reference_chebyshev_basis(laplacian, x, order)
    return basis.transpose(1, 0, 2).reshape(x.shape[0], order * x.shape[1])


def reference_chebyshev_backward(laplacian, grad_basis):
    """The adjoint recurrence on a transposed (K, n, F) copy."""
    grad = np.array(grad_basis, dtype=np.float64, copy=True)
    order = grad.shape[0]
    for k in range(order - 1, 1, -1):
        grad[k - 1] += 2.0 * (laplacian @ grad[k])
        grad[k - 2] -= grad[k]
    out = grad[0]
    if order > 1:
        out = out + (laplacian @ grad[1])
    return out


def reference_cluster_members(assign):
    """Each cluster's (lowest, highest) fine member, from ``assign``."""
    n_coarse = int(assign.max()) + 1 if assign.size else 0
    order = np.argsort(assign, kind="stable")
    clusters = np.arange(n_coarse)
    sorted_assign = assign[order]
    lo = order[np.searchsorted(sorted_assign, clusters, side="left")]
    hi = order[np.searchsorted(sorted_assign, clusters, side="right") - 1]
    return lo, hi


def reference_pool(x, assign, grad):
    """Max-pool forward and the 2-D scatter of its (cluster, feature)
    winners in the backward."""
    lo, hi = reference_cluster_members(assign)
    low, high = x[lo], x[hi]
    winner = np.where(high >= low, hi[:, None], lo[:, None])
    out = np.zeros((x.shape[0], grad.shape[1]))
    cols = np.broadcast_to(np.arange(grad.shape[1]), winner.shape)
    out[winner, cols] = grad
    return np.maximum(low, high), out


def reference_fold(running_mean, running_var, mean, var, momentum):
    """Fold each graph's statistics in turn, six new arrays per graph."""
    for i in range(len(mean)):
        running_mean = momentum * running_mean + (1 - momentum) * mean[i]
        running_var = momentum * running_var + (1 - momentum) * var[i]
    return running_mean, running_var


def reference_decayed(key, param, grad, weight_decay):
    if weight_decay and key not in ("bias", "beta"):
        return grad + weight_decay * param
    return grad


def reference_adam_step(slots, state, lr, weight_decay, betas=(0.9, 0.999), eps=1e-8):
    """Adam over per-tensor gathers and scatters of one flat moment
    pair (``state``: m, v, t)."""
    beta1, beta2 = betas
    state["t"] += 1
    bc1 = 1.0 - beta1 ** state["t"]
    bc2 = 1.0 - beta2 ** state["t"]
    entries, offset = [], 0
    for params, grads in slots:
        for key, value in params.items():
            entries.append((params, grads, key, offset, offset + value.size))
            offset += value.size
    g = np.empty(offset)
    for params, grads, key, start, stop in entries:
        g[start:stop] = grads[key].ravel()
    if weight_decay:
        for params, grads, key, start, stop in entries:
            if key not in ("bias", "beta"):
                g[start:stop] += weight_decay * params[key].ravel()
    m, v = state["m"], state["v"]
    m *= beta1
    m += (1 - beta1) * g
    v *= beta2
    v += (1 - beta2) * g * g
    update = lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
    for params, grads, key, start, stop in entries:
        params[key] -= update[start:stop].reshape(params[key].shape)


def reference_sgd_step(slots, velocity, lr, momentum, weight_decay):
    """Momentum SGD, one tensor at a time."""
    for (params, grads), vel in zip(slots, velocity):
        for key in params:
            g = reference_decayed(key, params[key], grads[key], weight_decay)
            vel[key] = momentum * vel[key] - lr * g
            params[key] += vel[key]


def reference_block_diag(blocks):
    """CSR block diagonal with a shifted copy per block."""
    if len(blocks) == 1:
        return blocks[0]
    sizes = [b.shape[0] for b in blocks]
    n = sum(sizes)
    idx_dtype = np.result_type(*(b.indices.dtype for b in blocks))
    col_offsets = np.cumsum([0] + sizes[:-1], dtype=idx_dtype)
    nnz_offsets = np.cumsum([0] + [b.nnz for b in blocks[:-1]], dtype=idx_dtype)
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


def reference_pack_indices(samples):
    """Per-level offsets and shifted assignments, from per-sample
    ``.tolist()`` bookkeeping."""
    levels = min(len(s.pyramid.assignments) for s in samples)
    offsets, starts = [], []
    for level in range(levels + 1):
        bounds, start = [0], []
        for s in samples:
            own = s.pyramid.offsets[level].tolist()
            start.append(bounds[-1])
            bounds += [start[-1] + b for b in own[1:]]
        starts.append(start)
        offsets.append(np.array(bounds, dtype=np.int64))
    assignments = []
    for level in range(levels):
        parts = [s.pyramid.assignments[level] for s in samples]
        shift = np.repeat(starts[level + 1], [len(part) for part in parts])
        assignments.append(np.concatenate(parts) + shift)
    return offsets, assignments


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _assert_same(a, b):
    assert a.dtype == b.dtype and a.shape == b.shape
    assert np.array_equal(a, b)


def _ring(n: int) -> sp.csr_matrix:
    rows = list(range(n)) * 2
    cols = [(i + 1) % n for i in range(n)] + [(i - 1) % n for i in range(n)]
    return sp.csr_matrix((np.ones(2 * n), (rows, cols)), shape=(n, n))


def _random_laplacian(n: int, rng) -> sp.csr_matrix:
    """Rescaled Laplacian of a seeded random graph on ``n`` vertices."""
    dense = np.triu(rng.random((n, n)) < 0.3, 1)
    adjacency = sp.csr_matrix((dense | dense.T).astype(np.float64))
    return rescaled_laplacian(normalized_laplacian(adjacency))


def _ring_sample(n: int, name: str, levels: int = 2) -> GraphSample:
    """A labelled ring; odd rings coarsen into one-member clusters."""
    rng = np.random.default_rng(n)
    x = rng.normal(size=(n, 3))
    x[::3] = x[0]  # exact ties for the pool
    return GraphSample(
        name=name,
        features=x,
        labels=np.arange(n) % 2,
        mask=np.ones(n, dtype=bool),
        pyramid=build_pyramid(_ring(n), levels=levels, rng=seeded_rng(name)),
    )


@pytest.fixture(scope="module")
def ota_samples():
    dataset = generate_ota_bias_dataset(8, seed="reference-kernels", workers=1)
    return build_samples(dataset, task_classes("ota"), levels=2, workers=1)


# ---------------------------------------------------------------------------
# Chebyshev basis
# ---------------------------------------------------------------------------


def _check_chebyshev(laplacian, n, f, order, rng):
    x = rng.normal(size=(n, f))
    x[::2] = x[0]
    ref = reference_chebyshev_flat(laplacian, x, order)
    _assert_same(chebyshev_slabs(laplacian, x, order), ref)
    basis = chebyshev_basis(laplacian, x, order)
    assert np.array_equal(basis, reference_chebyshev_basis(laplacian, x, order))
    grad_flat = rng.normal(size=(n, order * f))
    grad_basis = grad_flat.reshape(n, order, f).transpose(1, 0, 2)
    before = grad_flat.copy()
    ref_back = reference_chebyshev_backward(laplacian, grad_basis)
    _assert_same(chebyshev_slabs_backward(laplacian, grad_flat, order), ref_back)
    _assert_same(chebyshev_basis_backward(laplacian, grad_basis), ref_back)
    assert np.array_equal(grad_flat, before)  # the caller's gradient is kept


class TestChebyshevReference:
    @pytest.mark.parametrize("order", [1, 2, 3, 8])
    @pytest.mark.parametrize("n", [1, 2, 9])
    def test_random_graphs(self, n, order):
        rng = np.random.default_rng(10 * n + order)
        _check_chebyshev(_random_laplacian(n, rng), n, 3, order, rng)

    @pytest.mark.parametrize("order", [1, 2, 3, 5])
    def test_one_vertex_with_a_nonzero_operator(self, order):
        """A (1, K·F) gradient's slabs are contiguous views; the
        backward must still leave the caller's array alone."""
        rng = np.random.default_rng(order)
        _check_chebyshev(sp.csr_matrix([[0.5]]), 1, 4, order, rng)

    @pytest.mark.parametrize("order", [1, 2, 8])
    def test_packed_training_level(self, ota_samples, order):
        packed = pack_samples(ota_samples)
        rng = np.random.default_rng(order)
        for laplacian in packed.pyramid.laplacians:
            _check_chebyshev(laplacian, laplacian.shape[0], 5, order, rng)


@pytest.mark.property
@given(
    n=st.integers(1, 24),
    f=st.integers(1, 5),
    order=st.integers(1, 9),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=80, deadline=None)
def test_chebyshev_matches_reference_property(n, f, order, seed):
    rng = np.random.default_rng(seed)
    _check_chebyshev(_random_laplacian(n, rng), n, f, order, rng)


# ---------------------------------------------------------------------------
# Pooling tables and the pool backward
# ---------------------------------------------------------------------------


def _check_pool(x, ctx, level, rng):
    assign = ctx.assignments[level]
    grad = rng.normal(size=(int(assign.max()) + 1, x.shape[1]))
    ref_out, ref_grad = reference_pool(x, assign, grad)
    ctx.level = level
    pool = GraphPool()
    _assert_same(pool.forward(x, ctx, training=True), ref_out)
    _assert_same(pool.backward(grad), ref_grad)


def _check_pack(samples):
    packed = pack_samples(samples)
    ref_offsets, ref_assignments = reference_pack_indices(samples)
    levels = len(ref_assignments)
    assert len(packed.offsets) == levels + 1
    for got, ref in zip(packed.offsets, ref_offsets):
        _assert_same(got, ref)
    for level in range(levels + 1):
        blocks = [s.pyramid.laplacians[level] for s in samples]
        got, ref = packed.pyramid.laplacians[level], reference_block_diag(blocks)
        for part in ("data", "indices", "indptr"):
            _assert_same(getattr(got, part), getattr(ref, part))
        assert got.shape == ref.shape
    for level, ref_assign in enumerate(ref_assignments):
        _assert_same(packed.pyramid.assignments[level], ref_assign)
        for got, ref in zip(
            packed.pyramid.members[level], reference_cluster_members(ref_assign)
        ):
            _assert_same(got, ref)
    return packed


class TestPoolReference:
    @pytest.mark.parametrize("n", [4, 7, 9, 16])
    def test_ties_and_one_member_clusters(self, n):
        rng = np.random.default_rng(n)
        sample = _ring_sample(n, f"ring{n}")
        ctx = pack_samples([sample]).context()
        sizes = np.bincount(ctx.assignments[0])
        if n % 2:
            assert (sizes == 1).any()  # a one-member cluster
        x = rng.normal(size=(n, 4))
        x[::2] = x[1]  # exact max ties
        _check_pool(x, ctx, 0, rng)
        _check_pool(rng.normal(size=(len(sizes), 4)), ctx, 1, rng)

    def test_hand_built_context_derives_the_tables(self):
        sample = _ring_sample(9, "ring9")
        ctx = SampleContext(
            laplacians=sample.pyramid.laplacians,
            assignments=sample.pyramid.assignments,
        )
        _check_pool(sample.features, ctx, 0, np.random.default_rng(0))

    def test_pack_of_one(self, ota_samples):
        packed = _check_pack(ota_samples[:1])
        own = ota_samples[0].pyramid.members
        assert all(a is b for a, b in zip(packed.pyramid.members, own))

    def test_packs_of_training_samples(self, ota_samples):
        for batch in (ota_samples[:2], ota_samples[::-1], ota_samples[1:6]):
            packed = _check_pack(batch)
            rng = np.random.default_rng(len(batch))
            x = rng.normal(size=(packed.n_vertices, 3))
            x[::3] = x[0]
            _check_pool(x, packed.context(), 0, rng)

    def test_packs_with_ring_samples(self):
        rings = [_ring_sample(n, f"ring{n}") for n in (5, 8, 3, 11)]
        _check_pack(rings)
        _check_pack(rings[1:2])

    def test_pack_with_a_one_vertex_graph(self, ota_samples):
        """A one-vertex graph cannot coarsen: the pack keeps level 0."""
        lone = GraphSample(
            name="lone",
            features=np.ones((1, ota_samples[0].features.shape[1])),
            labels=np.zeros(1, dtype=np.int64),
            mask=np.ones(1, dtype=bool),
            pyramid=build_pyramid(sp.csr_matrix((1, 1)), levels=2, rng=seeded_rng(0)),
        )
        packed = _check_pack([ota_samples[0], lone, ota_samples[1]])
        assert packed.pyramid.members == []


@pytest.mark.property
@given(
    sizes=st.lists(st.integers(2, 30), min_size=1, max_size=6),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_packing_and_pool_match_reference_property(sizes, seed):
    samples = [_ring_sample(n, f"r{i}-{n}") for i, n in enumerate(sizes)]
    packed = _check_pack(samples)
    rng = np.random.default_rng(seed)
    for level in range(len(packed.pyramid.assignments)):
        n = packed.pyramid.laplacians[level].shape[0]
        x = rng.integers(-2, 3, size=(n, 3)).astype(np.float64)  # many ties
        _check_pool(x, packed.context(), level, rng)


# ---------------------------------------------------------------------------
# BatchNorm running statistics
# ---------------------------------------------------------------------------


def _check_fold(x, bounds, steps=3):
    layer = BatchNorm(x.shape[1])
    rng = np.random.default_rng(x.shape[0])
    layer.running[0] = rng.normal(size=x.shape[1])
    layer.running[1] = rng.random(x.shape[1]) + 0.5
    ref_mean, ref_var = layer.running_mean.copy(), layer.running_var.copy()
    ctx = SampleContext(laplacians=[None], offsets=[bounds])
    starts, sizes = bounds[:-1], np.diff(bounds)
    for _ in range(steps):
        layer.forward(x, ctx, training=True)
        mean = np.add.reduceat(x, starts, axis=0) / sizes[:, None]
        centered = x - np.repeat(mean, sizes, axis=0)
        var = np.add.reduceat(centered * centered, starts, axis=0) / sizes[:, None]
        ref_mean, ref_var = reference_fold(ref_mean, ref_var, mean, var, layer.momentum)
    _assert_same(layer.running_mean, ref_mean)
    _assert_same(layer.running_var, ref_var)


class TestBatchNormFoldReference:
    def test_packed_graphs_with_one_vertex_graphs(self):
        x = np.random.default_rng(0).normal(size=(12, 5))
        _check_fold(x, np.array([0, 1, 5, 6, 12]))

    def test_pack_of_one(self):
        x = np.random.default_rng(1).normal(size=(7, 3))
        _check_fold(x, np.array([0, 7]))

    def test_one_vertex_graph_alone(self):
        _check_fold(np.random.default_rng(2).normal(size=(1, 4)), np.array([0, 1]))


@pytest.mark.property
@given(
    sizes=st.lists(st.integers(1, 9), min_size=1, max_size=6),
    f=st.integers(1, 4),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=60, deadline=None)
def test_batchnorm_fold_matches_reference_property(sizes, f, seed):
    x = np.random.default_rng(seed).normal(size=(sum(sizes), f))
    _check_fold(x, np.concatenate([[0], np.cumsum(sizes)]))


# ---------------------------------------------------------------------------
# Optimizers over the parameter arena
# ---------------------------------------------------------------------------


def _slots(seed):
    """A model-like parameter set: weights, biases, BN gamma/beta."""
    rng = np.random.default_rng(seed)
    shapes = [
        {"weight": (6, 4), "bias": (4,)},
        {"gamma": (4,), "beta": (4,)},
        {"weight": (4, 3), "bias": (3,)},
    ]
    return [
        (
            {key: rng.normal(size=shape) for key, shape in layer.items()},
            {key: np.zeros(shape) for key, shape in layer.items()},
        )
        for layer in shapes
    ]


def _copy(slots):
    return [
        ({k: v.copy() for k, v in p.items()}, {k: v.copy() for k, v in g.items()})
        for p, g in slots
    ]


def _set_grads(slots, rng):
    for _params, grads in slots:
        for grad in grads.values():
            grad[...] = rng.normal(size=grad.shape)
            grad.ravel()[::5] = 0.0


def _check_optimizer(kind, weight_decay, steps=6, seed=0):
    slots = _slots(seed)
    ref_slots = _copy(slots)
    if kind == "adam":
        optimizer = Adam(slots, lr=0.01, weight_decay=weight_decay)
        size = optimizer.arena.size
        state = {"m": np.zeros(size), "v": np.zeros(size), "t": 0}
    else:
        optimizer = SGD(slots, lr=0.01, momentum=0.9, weight_decay=weight_decay)
        velocity = [{k: np.zeros_like(v) for k, v in p.items()} for p, _ in ref_slots]
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(steps):
        optimizer.zero_grad()
        _set_grads(slots, rng_a)
        _set_grads(ref_slots, rng_b)
        optimizer.step()
        if kind == "adam":
            reference_adam_step(ref_slots, state, lr=0.01, weight_decay=weight_decay)
        else:
            reference_sgd_step(ref_slots, velocity, 0.01, 0.9, weight_decay)
    for (params, _), (ref_params, _) in zip(slots, ref_slots):
        for key in params:
            _assert_same(params[key], ref_params[key])
    saved = optimizer.state_dict()
    if kind == "adam":
        _assert_same(saved["m"], state["m"])
        _assert_same(saved["v"], state["v"])
    else:
        for idx, vel in enumerate(velocity):
            for key, value in vel.items():
                _assert_same(saved[f"velocity{idx}.{key}"], value)


class TestOptimizerReference:
    @pytest.mark.parametrize("kind", ["adam", "sgd"])
    @pytest.mark.parametrize("weight_decay", [0.0, 5e-3])
    def test_arena_step_matches_per_tensor_step(self, kind, weight_decay):
        _check_optimizer(kind, weight_decay)


@pytest.mark.property
@given(
    kind=st.sampled_from(["adam", "sgd"]),
    weight_decay=st.sampled_from([0.0, 1e-4, 0.05]),
    steps=st.integers(1, 12),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=40, deadline=None)
def test_optimizer_matches_reference_property(kind, weight_decay, steps, seed):
    _check_optimizer(kind, weight_decay, steps, seed)
