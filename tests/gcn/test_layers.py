"""Per-layer forward semantics and gradient checks.

Every layer with parameters gets a central-difference gradient check on
both its parameters and its input — the backbone guarantee that the
from-scratch GCN optimizes what it claims to.
"""

import numpy as np
import pytest
import scipy.sparse as sp

from repro.exceptions import ModelConfigError
from repro.gcn.chebyshev import chebyshev_slabs
from repro.gcn.coarsening import build_pyramid
from repro.gcn.layers import (
    BatchNorm,
    ChebConv,
    Dense,
    Dropout,
    GraphPool,
    GraphUnpool,
    ReLU,
    SampleContext,
    Tanh,
)
from repro.utils.rng import seeded_rng


def _ring_adj(n: int) -> sp.csr_matrix:
    rows = list(range(n)) * 2
    cols = [(i + 1) % n for i in range(n)] + [(i - 1) % n for i in range(n)]
    return sp.csr_matrix((np.ones(2 * n), (rows, cols)), shape=(n, n))


def _ctx(n: int = 8, levels: int = 2) -> SampleContext:
    pyramid = build_pyramid(_ring_adj(n), levels=levels, rng=seeded_rng(0))
    return SampleContext(
        laplacians=pyramid.laplacians, assignments=pyramid.assignments
    )


def _check_param_gradients(layer, x, ctx_factory, tol=1e-5):
    """Central-difference check on every parameter of ``layer``."""
    rng = np.random.default_rng(0)
    out = layer.forward(x, ctx_factory(), training=True)
    upstream = rng.normal(size=out.shape)
    layer.zero_grad()
    layer.backward(upstream)

    def loss():
        return float((layer.forward(x, ctx_factory(), training=True) * upstream).sum())

    for key, param in layer.params.items():
        grad = layer.grads[key]
        flat_idx = int(np.abs(grad).argmax())
        idx = np.unravel_index(flat_idx, grad.shape)
        eps = 1e-6
        orig = param[idx]
        param[idx] = orig + eps
        up = loss()
        param[idx] = orig - eps
        down = loss()
        param[idx] = orig
        numeric = (up - down) / (2 * eps)
        analytic = grad[idx]
        assert analytic == pytest.approx(numeric, rel=tol, abs=1e-7), key


def _check_input_gradient(layer, x, ctx_factory, tol=1e-5):
    rng = np.random.default_rng(1)
    out = layer.forward(x, ctx_factory(), training=True)
    upstream = rng.normal(size=out.shape)
    layer.zero_grad()
    grad_x = layer.backward(upstream)

    def loss(x_in):
        return float(
            (layer.forward(x_in, ctx_factory(), training=True) * upstream).sum()
        )

    eps = 1e-6
    idx = np.unravel_index(int(np.abs(grad_x).argmax()), grad_x.shape)
    up, down = x.copy(), x.copy()
    up[idx] += eps
    down[idx] -= eps
    numeric = (loss(up) - loss(down)) / (2 * eps)
    assert grad_x[idx] == pytest.approx(numeric, rel=tol, abs=1e-7)


class TestChebConv:
    def test_output_shape(self):
        layer = ChebConv(3, 5, order=4, rng=seeded_rng(0))
        out = layer.forward(np.zeros((8, 3)), _ctx(), training=True)
        assert out.shape == (8, 5)

    def test_param_gradients(self):
        layer = ChebConv(3, 4, order=5, rng=seeded_rng(0))
        _check_param_gradients(layer, np.random.default_rng(2).normal(size=(8, 3)), _ctx)

    def test_input_gradient(self):
        layer = ChebConv(3, 4, order=5, rng=seeded_rng(0))
        _check_input_gradient(layer, np.random.default_rng(3).normal(size=(8, 3)), _ctx)

    def test_order_one_is_dense_per_vertex(self):
        layer = ChebConv(2, 2, order=1, rng=seeded_rng(0))
        x = np.random.default_rng(4).normal(size=(8, 2))
        out = layer.forward(x, _ctx(), training=True)
        np.testing.assert_allclose(
            out, x @ layer.params["weight"] + layer.params["bias"]
        )

    def test_invalid_order(self):
        with pytest.raises(ModelConfigError):
            ChebConv(2, 2, order=0, rng=seeded_rng(0))

    def test_parameter_count(self):
        layer = ChebConv(3, 5, order=4, rng=seeded_rng(0))
        assert layer.n_parameters() == 4 * 3 * 5 + 5


class TestDense:
    def test_affine(self):
        layer = Dense(3, 2, rng=seeded_rng(0))
        x = np.random.default_rng(0).normal(size=(4, 3))
        out = layer.forward(x, _ctx(), training=True)
        np.testing.assert_allclose(out, x @ layer.params["weight"] + layer.params["bias"])

    def test_gradients(self):
        layer = Dense(3, 2, rng=seeded_rng(0))
        x = np.random.default_rng(1).normal(size=(4, 3))
        _check_param_gradients(layer, x, _ctx)
        _check_input_gradient(layer, x, _ctx)


class TestActivations:
    def test_relu_forward(self):
        out = ReLU().forward(np.array([[-1.0, 2.0]]), _ctx(), True)
        np.testing.assert_array_equal(out, [[0.0, 2.0]])

    def test_relu_backward_masks(self):
        layer = ReLU()
        layer.forward(np.array([[-1.0, 2.0]]), _ctx(), True)
        grad = layer.backward(np.array([[5.0, 5.0]]))
        np.testing.assert_array_equal(grad, [[0.0, 5.0]])

    def test_tanh_gradient(self):
        layer = Tanh()
        x = np.random.default_rng(0).normal(size=(4, 3))
        _check_input_gradient(layer, x, _ctx)


class TestDropout:
    def test_identity_at_inference(self):
        layer = Dropout(0.5, seeded_rng(0))
        x = np.ones((10, 10))
        np.testing.assert_array_equal(layer.forward(x, _ctx(), training=False), x)

    def test_scaling_preserves_expectation(self):
        layer = Dropout(0.4, seeded_rng(0))
        x = np.ones((300, 300))
        out = layer.forward(x, _ctx(), training=True)
        assert out.mean() == pytest.approx(1.0, abs=0.02)

    def test_backward_uses_same_mask(self):
        layer = Dropout(0.5, seeded_rng(0))
        x = np.ones((6, 6))
        out = layer.forward(x, _ctx(), training=True)
        grad = layer.backward(np.ones_like(out))
        np.testing.assert_array_equal(grad == 0.0, out == 0.0)

    def test_invalid_rate(self):
        with pytest.raises(ModelConfigError):
            Dropout(1.0, seeded_rng(0))


class TestBatchNorm:
    def test_normalizes_training_batch(self):
        layer = BatchNorm(3)
        x = np.random.default_rng(0).normal(5.0, 3.0, size=(50, 3))
        out = layer.forward(x, _ctx(), training=True)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)
        np.testing.assert_allclose(out.std(axis=0), 1.0, atol=1e-3)

    def test_running_stats_used_at_inference(self):
        layer = BatchNorm(2, momentum=0.0)  # running = last batch
        x = np.random.default_rng(1).normal(2.0, 1.0, size=(40, 2))
        layer.forward(x, _ctx(), training=True)
        out = layer.forward(x, _ctx(), training=False)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=0.1)

    def test_gradients(self):
        layer = BatchNorm(3)
        x = np.random.default_rng(2).normal(size=(10, 3))
        _check_param_gradients(layer, x, _ctx)
        _check_input_gradient(layer, x, _ctx, tol=1e-4)

    def test_single_vertex_graph_stable(self):
        layer = BatchNorm(3)
        out = layer.forward(np.ones((1, 3)), _ctx(), training=True)
        assert np.isfinite(out).all()
        grad = layer.backward(np.ones((1, 3)))
        assert np.isfinite(grad).all()


class TestPooling:
    def test_pool_halves_graph(self):
        ctx = _ctx(8)
        pool = GraphPool()
        x = np.random.default_rng(0).normal(size=(8, 3))
        out = pool.forward(x, ctx, training=True)
        assert out.shape[0] == int(ctx.assignments[0].max()) + 1
        assert ctx.level == 1

    def test_pool_takes_max(self):
        ctx = _ctx(8)
        pool = GraphPool()
        x = np.random.default_rng(1).normal(size=(8, 2))
        out = pool.forward(x, ctx, training=True)
        assign = ctx.assignments[0]
        for coarse in range(out.shape[0]):
            members = np.where(assign == coarse)[0]
            np.testing.assert_allclose(out[coarse], x[members].max(axis=0))

    def test_pool_backward_routes_to_winner(self):
        ctx = _ctx(8)
        pool = GraphPool()
        x = np.random.default_rng(2).normal(size=(8, 2))
        out = pool.forward(x, ctx, training=True)
        grad = pool.backward(np.ones_like(out))
        # Gradient mass is conserved and lands only on winners.
        assert grad.sum() == pytest.approx(out.size)
        assign = ctx.assignments[0]
        for coarse in range(out.shape[0]):
            members = np.where(assign == coarse)[0]
            for col in range(2):
                nonzero = [m for m in members if grad[m, col] != 0]
                assert len(nonzero) == 1
                assert x[nonzero[0], col] == pytest.approx(out[coarse, col])

    def test_pool_beyond_levels_fails(self):
        ctx = _ctx(8, levels=1)
        pool = GraphPool()
        x = np.zeros((8, 2))
        pool.forward(x, ctx, training=True)
        with pytest.raises(ModelConfigError):
            GraphPool().forward(np.zeros((ctx.laplacians[1].shape[0], 2)), ctx, True)

    def test_unpool_inverts_level(self):
        ctx = _ctx(8)
        pool = GraphPool()
        unpool = GraphUnpool()
        x = np.random.default_rng(3).normal(size=(8, 2))
        pooled = pool.forward(x, ctx, training=True)
        restored = unpool.forward(pooled, ctx, training=True)
        assert restored.shape == x.shape
        assert ctx.level == 0
        # Every vertex carries its cluster's pooled feature.
        assign = ctx.assignments[0]
        for fine in range(8):
            np.testing.assert_array_equal(restored[fine], pooled[assign[fine]])

    def test_unpool_backward_sums_members(self):
        ctx = _ctx(8)
        pool = GraphPool()
        unpool = GraphUnpool()
        x = np.random.default_rng(4).normal(size=(8, 2))
        pooled = pool.forward(x, ctx, training=True)
        unpool.forward(pooled, ctx, training=True)
        grad = unpool.backward(np.ones((8, 2)))
        assign = ctx.assignments[0]
        for coarse in range(pooled.shape[0]):
            count = int((assign == coarse).sum())
            np.testing.assert_allclose(grad[coarse], count)

    def test_unpool_at_level_zero_fails(self):
        ctx = _ctx(8)
        with pytest.raises(ModelConfigError):
            GraphUnpool().forward(np.zeros((8, 2)), ctx, True)


class TestGraphPoolVectorization:
    """The pool's routing — each cluster's (lowest, highest) member and
    whether the highest one supplied the max — must match a per-vertex
    reference loop: the winner it implies for every (cluster, feature),
    and the gradient its two row scatters deliver there."""

    @staticmethod
    def _reference_pool(x, assign):
        n_coarse = int(assign.max()) + 1 if assign.size else 0
        out = np.full((n_coarse, x.shape[1]), -np.inf)
        np.maximum.at(out, assign, x)
        winner = np.zeros((n_coarse, x.shape[1]), dtype=np.int64)
        for fine, coarse in enumerate(assign):
            exact = x[fine] == out[coarse]
            winner[coarse] = np.where(exact, fine, winner[coarse])
        return out, winner

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_forward_and_winner_match_reference(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(4, 24))
        ctx = _ctx(n)
        x = rng.normal(size=(n, 5))
        # Inject exact ties so winner-routing tie-breaks are exercised.
        x[:: max(1, n // 3)] = x[0]
        pool = GraphPool()
        out = pool.forward(x, ctx, training=True)
        ref_out, ref_winner = self._reference_pool(x, ctx.assignments[0])
        np.testing.assert_array_equal(out, ref_out)
        lo, hi = ctx.cluster_members(0)
        winner = np.where(pool._high_wins, hi[:, None], lo[:, None])
        np.testing.assert_array_equal(winner, ref_winner)

    @pytest.mark.parametrize("seed", [0, 5])
    def test_backward_matches_reference_routing(self, seed):
        rng = np.random.default_rng(seed)
        n = 12
        ctx = _ctx(n)
        x = rng.normal(size=(n, 3))
        x[::4] = x[0]
        pool = GraphPool()
        out = pool.forward(x, ctx, training=True)
        grad_up = rng.normal(size=out.shape)
        grad = pool.backward(grad_up)
        _, ref_winner = self._reference_pool(x, ctx.assignments[0])
        reference = np.zeros((n, 3))
        cols = np.arange(3)
        for coarse in range(out.shape[0]):
            reference[ref_winner[coarse], cols] += grad_up[coarse]
        np.testing.assert_array_equal(grad, reference)


def _seeded_cache(pyramid, x: np.ndarray, order: int) -> dict:
    """A cache holding ``x``'s first-layer basis, as
    ``PackedBatch.seed_input_basis`` leaves it."""
    flat = chebyshev_slabs(pyramid.laplacians[0], x, order)
    return {"cheb-input-flat": (x, pyramid.laplacians[0], order, flat)}


class TestChebConvInputCache:
    def test_cached_forward_is_identical(self):
        """A seeded entry for the very same input is read, not
        recomputed, and gives the uncached output bit for bit."""
        rng = seeded_rng(7)
        layer = ChebConv(3, 4, order=5, rng=rng)
        layer.input_layer = True
        pyramid = build_pyramid(_ring_adj(8), levels=1, rng=seeded_rng(0))
        x = np.random.default_rng(1).normal(size=(8, 3))
        cache = _seeded_cache(pyramid, x, order=5)

        def ctx(cache):
            return SampleContext(
                laplacians=pyramid.laplacians,
                assignments=pyramid.assignments,
                cache=cache,
            )

        cached = layer.forward(x, ctx(cache), training=True)
        assert layer._flat is cache["cheb-input-flat"][3]
        uncached = layer.forward(x, ctx(None), training=True)
        np.testing.assert_array_equal(cached, uncached)

    def test_different_input_misses(self):
        """Another input array misses the seeded entry, and the layer
        leaves the entry as it found it."""
        layer = ChebConv(3, 4, order=5, rng=seeded_rng(7))
        layer.input_layer = True
        pyramid = build_pyramid(_ring_adj(8), levels=1, rng=seeded_rng(0))
        rng = np.random.default_rng(1)
        cache = _seeded_cache(pyramid, rng.normal(size=(8, 3)), order=5)
        seeded = cache["cheb-input-flat"]
        ctx = SampleContext(
            laplacians=pyramid.laplacians,
            assignments=pyramid.assignments,
            cache=cache,
        )
        layer.forward(rng.normal(size=(8, 3)), ctx, training=True)
        assert layer._flat is not seeded[3]
        assert list(cache) == ["cheb-input-flat"]
        assert cache["cheb-input-flat"] is seeded

    def test_input_layer_backward_skips_dead_gradient(self):
        layer = ChebConv(3, 4, order=5, rng=seeded_rng(7))
        layer.input_layer = True
        pyramid = build_pyramid(_ring_adj(8), levels=1, rng=seeded_rng(0))
        ctx = SampleContext(
            laplacians=pyramid.laplacians, assignments=pyramid.assignments
        )
        x = np.random.default_rng(1).normal(size=(8, 3))
        out = layer.forward(x, ctx, training=True)
        layer.zero_grad()
        grad_in = layer.backward(np.ones_like(out))
        # Parameter gradients are real; the dead input gradient is zeros.
        assert np.abs(layer.grads["weight"]).sum() > 0
        np.testing.assert_array_equal(grad_in, np.zeros((8, 3)))
