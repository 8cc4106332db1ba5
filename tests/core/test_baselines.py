"""Baselines: template-library recognizer and Kipf first-order GCN."""

import numpy as np
import pytest
import scipy.sparse as sp

import repro.baselines.kipf as kipf_module
from repro.baselines.kipf import KipfConv, kipf_model, renormalized_adjacency
from repro.baselines.template import (
    SubblockTemplate,
    TemplateRecognizer,
    subblock_template_library,
)
from repro.datasets.ota import OtaSpec, generate_ota
from repro.datasets.synth import (
    build_samples,
    generate_ota_bias_dataset,
    task_classes,
)
from repro.gcn.batch import pack_samples
from repro.gcn.layers import SampleContext
from repro.gcn.samples import GraphSample
from repro.gcn.train import TrainConfig, train
from repro.graph.bipartite import CircuitGraph
from repro.graph.laplacian import normalized_laplacian, rescaled_laplacian
from repro.utils.rng import seeded_rng


class TestTemplateRecognizer:
    def test_recognizes_exact_training_topology(self):
        item = generate_ota(OtaSpec(topology="five_transistor", size_seed=1))
        recognizer = subblock_template_library([item])
        graph = CircuitGraph.from_circuit(item.circuit)
        accuracy = recognizer.accuracy(graph, item.truth(graph))
        assert accuracy == 1.0

    def test_same_topology_different_sizing_recognized(self):
        train_item = generate_ota(OtaSpec(topology="five_transistor", size_seed=1))
        test_item = generate_ota(OtaSpec(topology="five_transistor", size_seed=9))
        recognizer = subblock_template_library([train_item])
        graph = CircuitGraph.from_circuit(test_item.circuit)
        # Sizing differs but topology matches exactly → recognized.
        assert recognizer.accuracy(graph, test_item.truth(graph)) == 1.0

    def test_fails_on_unseen_variant(self):
        """The paper's motivating brittleness: an unenumerated topology
        goes unrecognized."""
        train_item = generate_ota(OtaSpec(topology="five_transistor", size_seed=1))
        test_item = generate_ota(OtaSpec(topology="folded_cascode", size_seed=2))
        recognizer = subblock_template_library([train_item])
        graph = CircuitGraph.from_circuit(test_item.circuit)
        accuracy = recognizer.accuracy(graph, test_item.truth(graph))
        assert accuracy < 0.5

    def test_library_deduplicates_signatures(self):
        items = [
            generate_ota(OtaSpec(topology="five_transistor", size_seed=s))
            for s in range(3)
        ]
        recognizer = subblock_template_library(items)
        # Same topology family: far fewer templates than 2×3 groups.
        assert len(recognizer.templates) <= 4

    def test_max_templates_respected(self):
        items = [
            generate_ota(OtaSpec(topology=t, size_seed=s))
            for t in ("five_transistor", "telescopic", "symmetric")
            for s in range(2)
        ]
        recognizer = subblock_template_library(items, max_templates=3)
        assert len(recognizer.templates) == 3

    def test_recognize_returns_device_map(self):
        item = generate_ota(OtaSpec(topology="five_transistor", size_seed=1))
        recognizer = subblock_template_library([item])
        graph = CircuitGraph.from_circuit(item.circuit)
        out = recognizer.recognize(graph)
        assert set(out.values()) <= {"ota", "bias"}


class TestKipf:
    def _ctx(self, n=8):
        rows = list(range(n)) * 2
        cols = [(i + 1) % n for i in range(n)] + [(i - 1) % n for i in range(n)]
        adj = sp.csr_matrix((np.ones(2 * n), (rows, cols)), shape=(n, n))
        lap = rescaled_laplacian(normalized_laplacian(adj))
        return SampleContext(laplacians=[lap])

    def test_renormalized_adjacency_rows_sum_to_one_for_regular(self):
        n = 6
        rows = list(range(n)) * 2
        cols = [(i + 1) % n for i in range(n)] + [(i - 1) % n for i in range(n)]
        adj = sp.csr_matrix((np.ones(2 * n), (rows, cols)), shape=(n, n))
        a_hat = renormalized_adjacency(adj)
        np.testing.assert_allclose(
            np.asarray(a_hat.sum(axis=1)).ravel(), 1.0, atol=1e-9
        )

    def test_kipfconv_shapes(self):
        layer = KipfConv(3, 5, seeded_rng(0))
        out = layer.forward(np.zeros((8, 3)), self._ctx(), training=True)
        assert out.shape == (8, 5)

    def test_kipfconv_gradients(self):
        layer = KipfConv(3, 4, seeded_rng(0))
        x = np.random.default_rng(0).normal(size=(8, 3))
        ctx = self._ctx()
        out = layer.forward(x, ctx, training=True)
        upstream = np.random.default_rng(1).normal(size=out.shape)
        layer.zero_grad()
        grad_x = layer.backward(upstream)

        def loss():
            return float((layer.forward(x, ctx, training=True) * upstream).sum())

        eps = 1e-6
        w = layer.params["weight"]
        g = layer.grads["weight"]
        idx = np.unravel_index(int(np.abs(g).argmax()), g.shape)
        orig = w[idx]
        w[idx] = orig + eps
        up = loss()
        w[idx] = orig - eps
        down = loss()
        w[idx] = orig
        assert g[idx] == pytest.approx((up - down) / (2 * eps), rel=1e-5)
        assert np.isfinite(grad_x).all()

    def test_kipf_model_trains_on_tiny_task(self):
        item = generate_ota(OtaSpec(topology="five_transistor"))
        graph = CircuitGraph.from_circuit(item.circuit)
        labels = {
            name: (0 if cls == "ota" else 1)
            for name, cls in item.device_labels.items()
        }
        sample = GraphSample.from_graph(graph, labels, levels=0)
        model = kipf_model(n_classes=2, hidden=(16, 16), fc_size=16, dropout=0.0)
        history = train(
            model, [sample],
            config=TrainConfig(epochs=200, batch_size=1, lr=1e-2, patience=0),
        )
        # First-order propagation converges more slowly than ChebConv
        # (which overfits this sample perfectly within 80 epochs) —
        # exactly the gap the baseline benchmark quantifies.
        assert history.train_accuracy[-1] >= 0.85

    def test_propagation_follows_each_packed_batch(self, monkeypatch):
        """Each forward propagates over its own batch's Laplacian, even
        when a freed Laplacian's address is handed to the next batch
        (simulated here: every object gets the same ``id``)."""
        monkeypatch.setattr(kipf_module, "id", lambda obj: 0, raising=False)
        dataset = generate_ota_bias_dataset(5, seed="kipf-ids", workers=1)
        samples = build_samples(dataset, task_classes("ota"), workers=1)
        model = kipf_model(n_classes=2, hidden=(8, 8), fc_size=8)
        for batch in (samples[:2], samples[2:]):
            packed = pack_samples(batch)
            logits = model.forward_packed(packed, training=False)
            assert logits.shape == (packed.n_vertices, 2)

    def test_batch8_training_keeps_no_per_batch_state(self):
        dataset = generate_ota_bias_dataset(24, seed="kipf-probe", workers=1)
        samples = build_samples(dataset, task_classes("ota"), workers=1)
        model = kipf_model(n_classes=2, seed=0)
        history = train(
            model, samples,
            config=TrainConfig(epochs=4, batch_size=8, patience=0),
        )
        assert len(history.train_loss) == 4
        for layer in model.layers:
            if isinstance(layer, KipfConv):
                memos = [
                    name for name, value in vars(layer).items()
                    if isinstance(value, dict)
                    and name not in ("params", "grads")
                ]
                assert memos == []
