"""Block-diagonal minibatch packing: structural invariants, block
isolation, and the one execution path.

Every GCN forward is packed, so the reference for a graph's rows in a
multi-graph pack is the same graph packed alone.  Tolerance contract
(see ``repro/gcn/batch.py``): graph-structured ops are bitwise
identical between the two, but the dense GEMMs may differ by ~1 ulp
(BLAS kernels are not row-invariant for narrow outputs), so logits are
pinned to tight fp64 tolerance while argmax predictions are pinned
exactly.
"""

from __future__ import annotations

import importlib

import numpy as np
import pytest

from repro.datasets.synth import (
    build_samples,
    generate_ota_bias_dataset,
    task_classes,
)
from repro.exceptions import ModelConfigError
from repro.gcn.batch import block_diag_csr, pack_samples
from repro.gcn.layers import BatchNorm
from repro.gcn.loss import batched_cross_entropy, cross_entropy, softmax
from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.samples import class_weights
from repro.gcn.train import TrainConfig, train
from tests.conftest import EXAMPLES_DIR

#: fp64 tolerance for a graph's logits in a pack vs alone (GEMM rows).
RTOL = 1e-10
ATOL = 1e-12


def _config(**overrides) -> GCNConfig:
    base = dict(
        n_features=18,
        n_classes=len(task_classes("ota")),
        filter_size=4,
        channels=(8, 8),
        fc_size=16,
        dropout=0.0,
        batch_norm=True,
        seed=0,
    )
    base.update(overrides)
    return GCNConfig(**base)


def _alone(model, sample, training):
    """``sample``'s logits from a pack of one — the reference."""
    return model.forward_packed(pack_samples([sample]), training=training)


@pytest.fixture(scope="module")
def pool_samples():
    """Ten OTA-bias samples of varying vertex counts (built serially so
    the module stays deterministic under any worker count)."""
    dataset = generate_ota_bias_dataset(10, seed="batch-pool", workers=1)
    return build_samples(dataset, task_classes("ota"), levels=2, workers=1)


class TestPacking:
    def test_offsets_and_concatenation(self, pool_samples):
        samples = pool_samples[:4]
        packed = pack_samples(samples)
        sizes = [s.n_vertices for s in samples]
        assert packed.n_graphs == 4
        assert packed.n_vertices == sum(sizes)
        assert packed.offsets[0].tolist() == np.concatenate(
            [[0], np.cumsum(sizes)]
        ).tolist()
        bounds = packed.offsets[0]
        for i, sample in enumerate(samples):
            seg = slice(bounds[i], bounds[i + 1])
            assert np.array_equal(packed.features[seg], sample.features)
            assert np.array_equal(packed.labels[seg], sample.labels)
            assert np.array_equal(packed.mask[seg], sample.mask)

    def test_laplacians_are_block_diagonal(self, pool_samples):
        samples = pool_samples[:3]
        packed = pack_samples(samples)
        for level, lap in enumerate(packed.pyramid.laplacians):
            bounds = packed.offsets[level]
            dense = lap.toarray()
            for i, sample in enumerate(samples):
                seg = slice(bounds[i], bounds[i + 1])
                block = sample.pyramid.laplacians[level].toarray()
                assert np.array_equal(dense[seg, seg], block)
            # Off-diagonal blocks stay empty: total nnz is the sum.
            assert lap.nnz == sum(
                s.pyramid.laplacians[level].nnz for s in samples
            )

    def test_assignments_stay_in_block(self, pool_samples):
        samples = pool_samples[:3]
        packed = pack_samples(samples)
        for level, assignment in enumerate(packed.pyramid.assignments):
            fine = packed.offsets[level]
            coarse = packed.offsets[level + 1]
            for i in range(len(samples)):
                seg = assignment[fine[i] : fine[i + 1]]
                assert seg.min() >= coarse[i]
                assert seg.max() < coarse[i + 1]

    def test_split_roundtrip(self, pool_samples):
        samples = pool_samples[:3]
        packed = pack_samples(samples)
        for sample, segment in zip(samples, packed.split(packed.features)):
            assert np.array_equal(segment, sample.features)

    def test_single_block_passthrough(self, pool_samples):
        lap = pool_samples[0].pyramid.laplacians[0]
        assert block_diag_csr([lap]) is lap

    def test_empty_batch_raises(self):
        with pytest.raises(ModelConfigError, match="empty sample batch"):
            pack_samples([])

    def test_missing_levels_fail_like_per_sample(self, pool_samples):
        shallow = build_samples(
            generate_ota_bias_dataset(2, seed="batch-shallow", workers=1),
            task_classes("ota"),
            levels=1,
            workers=1,
        )
        model = GCNModel(_config())  # needs 2 levels
        packed = pack_samples(shallow)
        with pytest.raises(ModelConfigError, match="coarsening levels"):
            model.forward_packed(packed, training=False)


class TestForwardParity:
    def test_random_packings_match_per_sample(self, pool_samples):
        rng = np.random.default_rng(7)
        model = GCNModel(_config())
        for _ in range(5):
            size = int(rng.integers(2, 6))
            picks = rng.choice(len(pool_samples), size=size, replace=False)
            samples = [pool_samples[i] for i in picks]
            packed = pack_samples(samples)
            logits = model.forward_packed(packed, training=False)
            for sample, segment in zip(samples, packed.split(logits)):
                reference = _alone(model, sample, training=False)
                np.testing.assert_allclose(
                    segment, reference, rtol=RTOL, atol=ATOL
                )
                assert np.array_equal(
                    segment.argmax(axis=1), reference.argmax(axis=1)
                )

    def test_predict_proba_batch_matches(self, pool_samples):
        samples = pool_samples[:5]
        model = GCNModel(_config())
        batched = model.predict_proba_batch(samples)
        for sample, probabilities in zip(samples, batched):
            np.testing.assert_allclose(
                probabilities,
                model.predict_proba_batch([sample])[0],
                rtol=RTOL,
                atol=ATOL,
            )

    def test_predict_batch_matches(self, pool_samples):
        model = GCNModel(_config())
        batched = model.predict_batch(pool_samples)
        for sample, predictions in zip(pool_samples, batched):
            assert np.array_equal(predictions, model.predict_batch([sample])[0])

    def test_training_forward_matches_sequential(self, pool_samples):
        """Training mode: BatchNorm folds running stats per segment in
        pack order and Dropout draws per segment from one stream, so a
        packed forward reproduces the graphs packed alone, one after the
        other — including the updated running statistics, bitwise."""
        samples = pool_samples[:4]
        config = _config(dropout=0.3)
        reference = GCNModel(config)
        packed_model = GCNModel(config)

        alone = [
            _alone(reference, sample, training=True) for sample in samples
        ]
        packed = pack_samples(samples)
        logits = packed_model.forward_packed(packed, training=True)

        for expected, segment in zip(alone, packed.split(logits)):
            np.testing.assert_allclose(segment, expected, rtol=RTOL, atol=ATOL)
        for layer_ref, layer_packed in zip(
            reference.layers, packed_model.layers
        ):
            if isinstance(layer_ref, BatchNorm):
                assert np.array_equal(
                    layer_ref.running_mean, layer_packed.running_mean
                )
                assert np.array_equal(
                    layer_ref.running_var, layer_packed.running_var
                )

    def test_input_basis_cache_reused_across_packings(self, pool_samples):
        samples = pool_samples[:3]
        model = GCNModel(_config())
        first = pack_samples(samples)
        model.forward_packed(first, training=False)
        assert all("cheb-input-flat" in s.runtime_cache for s in samples)
        # Repacking takes the warm vstack route; the flat is bitwise
        # identical to the cold packed recurrence.
        second = pack_samples(samples)
        model.forward_packed(second, training=False)
        assert np.array_equal(
            first.runtime_cache["cheb-input-flat"][3],
            second.runtime_cache["cheb-input-flat"][3],
        )


class TestBackwardParity:
    def _accumulate_reference(self, model, samples, weights):
        model.zero_grad()
        losses = []
        for sample in samples:
            logits = _alone(model, sample, training=True)
            loss, grad = cross_entropy(
                logits, sample.labels, sample.mask, weights
            )
            model.backward(grad / len(samples))
            losses.append(loss)
        return losses

    def test_gradients_match_per_sample_accumulation(self, pool_samples):
        samples = pool_samples[:4]
        weights = class_weights(samples, len(task_classes("ota")))
        config = _config()
        reference = GCNModel(config)
        packed_model = GCNModel(config)

        ref_losses = self._accumulate_reference(reference, samples, weights)

        packed = pack_samples(samples)
        packed_model.zero_grad()
        logits = packed_model.forward_packed(packed, training=True)
        losses, counts, grad = batched_cross_entropy(
            logits, packed.labels, packed.mask, packed.offsets[0], weights
        )
        packed_model.backward(grad / len(samples))

        np.testing.assert_allclose(losses, ref_losses, rtol=RTOL, atol=ATOL)
        assert counts.tolist() == [int(s.mask.sum()) for s in samples]
        for layer_ref, layer_packed in zip(
            reference.layers, packed_model.layers
        ):
            for key in layer_ref.grads:
                np.testing.assert_allclose(
                    layer_packed.grads[key],
                    layer_ref.grads[key],
                    rtol=1e-8,
                    atol=1e-12,
                )

    def test_batched_loss_grad_rows_match(self, pool_samples):
        """Per-row gradient entries are elementwise (softmax row, pick,
        scale) — identical math to per-graph ``cross_entropy`` when fed
        the same logits."""
        samples = pool_samples[:3]
        packed = pack_samples(samples)
        rng = np.random.default_rng(3)
        logits = rng.normal(size=(packed.n_vertices, 2))
        losses, counts, grad = batched_cross_entropy(
            logits, packed.labels, packed.mask, packed.offsets[0]
        )
        bounds = packed.offsets[0]
        for i, sample in enumerate(samples):
            seg = slice(bounds[i], bounds[i + 1])
            loss, ref_grad = cross_entropy(
                logits[seg], sample.labels, sample.mask
            )
            assert losses[i] == loss
            assert np.array_equal(grad[seg], ref_grad)

    def test_all_masked_batch_is_a_no_op(self, pool_samples):
        samples = pool_samples[:2]
        packed = pack_samples(samples)
        logits = softmax(np.zeros((packed.n_vertices, 2)))
        losses, counts, grad = batched_cross_entropy(
            logits, packed.labels, np.zeros_like(packed.mask),
            packed.offsets[0],
        )
        assert not losses.any()
        assert not counts.any()
        assert not grad.any()


class TestOnePackedPath:
    """Every GCN forward is a packed batch — counted, not timed."""

    @staticmethod
    def _count(monkeypatch) -> list[tuple]:
        """Record ``forward_packed`` calls (with their training flag)
        and ``pack_samples`` calls (with their batch size), wherever
        ``pack_samples`` is bound."""
        calls: list[tuple] = []
        forward = GCNModel.forward_packed
        pack = pack_samples

        def counting_forward(self, batch, training):
            calls.append(("forward_packed", training))
            return forward(self, batch, training)

        def counting_pack(samples):
            calls.append(("pack_samples", len(samples)))
            return pack(samples)

        monkeypatch.setattr(GCNModel, "forward_packed", counting_forward)
        # ``repro.gcn`` re-exports ``train``, so fetch the submodules.
        for name in ("batch", "model", "train"):
            module = importlib.import_module(f"repro.gcn.{name}")
            monkeypatch.setattr(
                module, "pack_samples", counting_pack, raising=False
            )
        return calls

    @pytest.mark.parametrize("hier", [False, True], ids=["flat", "hier"])
    def test_run_packs_its_graph_once(
        self, quick_ota_annotator, monkeypatch, hier
    ):
        from repro.core.pipeline import GanaPipeline

        deck = (EXAMPLES_DIR / "ota_array.sp").read_text()
        pipeline = GanaPipeline(annotator=quick_ota_annotator)
        calls = self._count(monkeypatch)
        pipeline.run(deck, hier=hier)
        assert calls == [("pack_samples", 1), ("forward_packed", False)]

    def test_train_runs_one_forward_per_minibatch(
        self, pool_samples, monkeypatch
    ):
        """Seven graphs at batch 3: minibatches of 3, 3 and 1, each one
        packed training forward."""
        calls = self._count(monkeypatch)
        config = TrainConfig(epochs=2, batch_size=3, patience=0, seed=1)
        train(GCNModel(_config()), pool_samples[:7], None, config)
        assert calls.count(("forward_packed", True)) == 3 * 2
        assert calls.count(("forward_packed", False)) == 0
        packs = sorted(c[1] for c in calls if c[0] == "pack_samples")
        assert packs == [1, 1, 3, 3, 3, 3]
