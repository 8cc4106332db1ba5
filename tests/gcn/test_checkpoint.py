"""Checkpoint/resume golden tests.

The contract (ISSUE 7 tentpole): a training run killed at an interior
epoch and resumed from its checkpoint reproduces the uninterrupted
same-seed run *bitwise* — final weights, History curves, and best-epoch
selection.  Same discipline as ``tests/gcn/test_batch.py``: the
reference is the unmodified ``train()`` path, and equality is exact
(``np.array_equal``), not tolerance-based.

Corrupt-checkpoint handling (satellite): truncated, garbage, and
wrong-version envelopes are structured misses — a Diagnostic naming the
path, fallback to an older envelope or fresh training, never a raw
traceback.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

import repro.gcn.checkpoint as checkpoint_module
from repro.datasets.synth import (
    build_samples,
    generate_ota_bias_dataset,
    task_classes,
)
from repro.exceptions import ModelConfigError
from repro.gcn.batch import pack_samples
from repro.gcn.checkpoint import CheckpointStore
from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.optim import Adam, SGD
from repro.gcn.train import FaultTolerance, TrainConfig, train


@pytest.fixture(scope="module")
def pool_samples():
    dataset = generate_ota_bias_dataset(10, seed="ckpt-pool", workers=1)
    return build_samples(dataset, task_classes("ota"), levels=2, workers=1)


@pytest.fixture(scope="module")
def split(pool_samples):
    return pool_samples[:7], pool_samples[7:]


def _model_config(samples, **overrides) -> GCNConfig:
    base = dict(
        n_features=samples[0].features.shape[1],
        n_classes=len(task_classes("ota")),
        n_layers=2,
        filter_size=4,
        channels=(8, 8),
        fc_size=16,
        dropout=0.2,
        seed=1,
    )
    base.update(overrides)
    return GCNConfig(**base)


def _train_config(**overrides) -> TrainConfig:
    base = dict(epochs=8, batch_size=3, seed=5, patience=0)
    base.update(overrides)
    return TrainConfig(**base)


def _assert_states_equal(a: dict, b: dict) -> None:
    assert a.keys() == b.keys()
    for key in a:
        assert np.array_equal(a[key], b[key]), f"state {key} differs"


def _interrupt_and_resume(split, config, train_config, fault_dir, stop_after):
    """Train ``stop_after`` epochs (simulated kill), then resume fresh."""
    tr, val = split
    partial = GCNModel(config)
    train(
        partial, tr, val,
        dataclasses.replace(train_config, epochs=stop_after),
        fault=FaultTolerance(checkpoint_dir=fault_dir),
    )
    resumed = GCNModel(config)
    history = train(
        resumed, tr, val, train_config,
        fault=FaultTolerance(checkpoint_dir=fault_dir),
    )
    return resumed, history


class TestGoldenResume:
    def test_killed_and_resumed_run_is_bitwise_identical(
        self, split, tmp_path
    ):
        tr, val = split
        config = _model_config(tr)
        train_config = _train_config()

        reference = GCNModel(config)
        ref_history = train(reference, tr, val, train_config)

        resumed, history = _interrupt_and_resume(
            split, config, train_config, tmp_path, stop_after=3
        )
        assert history.resumed_from == 3
        _assert_states_equal(reference.state_dict(), resumed.state_dict())
        assert history.train_loss == ref_history.train_loss
        assert history.train_accuracy == ref_history.train_accuracy
        assert history.val_accuracy == ref_history.val_accuracy
        assert history.best_epoch == ref_history.best_epoch
        assert not history.degraded

    def test_resume_preserves_early_stopping_bookkeeping(
        self, split, tmp_path
    ):
        # The patience window must survive the kill: a resumed run may
        # not train past the epoch the uninterrupted run stopped at.
        tr, val = split
        config = _model_config(tr)
        train_config = _train_config(epochs=12, patience=3)

        reference = GCNModel(config)
        ref_history = train(reference, tr, val, train_config)

        resumed, history = _interrupt_and_resume(
            split, config, train_config, tmp_path, stop_after=4
        )
        _assert_states_equal(reference.state_dict(), resumed.state_dict())
        assert history.val_accuracy == ref_history.val_accuracy
        assert history.best_epoch == ref_history.best_epoch

    def test_sgd_state_resumes_bitwise(self, split, tmp_path):
        tr, val = split
        config = _model_config(tr)
        train_config = _train_config(optimizer="sgd", momentum=0.9)

        reference = GCNModel(config)
        ref_history = train(reference, tr, val, train_config)

        resumed, history = _interrupt_and_resume(
            split, config, train_config, tmp_path, stop_after=3
        )
        _assert_states_equal(reference.state_dict(), resumed.state_dict())
        assert history.train_loss == ref_history.train_loss

    def test_fully_complete_checkpoint_resumes_to_identity(
        self, split, tmp_path
    ):
        # Re-running a finished checkpointed run is a no-op resume: no
        # epochs execute, and the best-epoch weights come back intact.
        tr, val = split
        config = _model_config(tr)
        train_config = _train_config()
        fault = FaultTolerance(checkpoint_dir=tmp_path)

        first = GCNModel(config)
        train(first, tr, val, train_config, fault=fault)
        again = GCNModel(config)
        history = train(again, tr, val, train_config, fault=fault)
        assert history.resumed_from == train_config.epochs
        _assert_states_equal(first.state_dict(), again.state_dict())


class TestCheckpointHygiene:
    def test_checkpoint_every_and_final_epoch(self, split, tmp_path):
        tr, val = split
        config = _model_config(tr)
        train(
            GCNModel(config), tr, val, _train_config(epochs=7),
            fault=FaultTolerance(
                checkpoint_dir=tmp_path, checkpoint_every=2, keep=10
            ),
        )
        store = CheckpointStore(tmp_path)
        epochs = [int(p.name.split("-")[1].split(".")[0]) for p in store.paths()]
        # Every other epoch, plus the final epoch unconditionally.
        assert epochs == [2, 4, 6, 7]

    def test_prune_keeps_newest(self, split, tmp_path):
        tr, val = split
        config = _model_config(tr)
        train(
            GCNModel(config), tr, val, _train_config(epochs=6),
            fault=FaultTolerance(checkpoint_dir=tmp_path, keep=2),
        )
        store = CheckpointStore(tmp_path, keep=2)
        assert [p.name for p in store.paths()] == [
            "epoch-00005.ckpt.npz",
            "epoch-00006.ckpt.npz",
        ]

    def test_invalid_checkpoint_every_rejected(self, split, tmp_path):
        tr, val = split
        with pytest.raises(ModelConfigError, match="checkpoint_every"):
            train(
                GCNModel(_model_config(tr)), tr, val, _train_config(),
                fault=FaultTolerance(
                    checkpoint_dir=tmp_path, checkpoint_every=0
                ),
            )


class TestCorruptCheckpoints:
    def test_truncated_newest_falls_back_to_older(self, split, tmp_path):
        # Torn write on the newest envelope: resume walks back to the
        # previous good one and still reproduces the reference bitwise.
        tr, val = split
        config = _model_config(tr)
        train_config = _train_config()

        reference = GCNModel(config)
        train(reference, tr, val, train_config)

        train(
            GCNModel(config), tr, val,
            dataclasses.replace(train_config, epochs=4),
            fault=FaultTolerance(checkpoint_dir=tmp_path, keep=4),
        )
        newest = CheckpointStore(tmp_path).paths()[-1]
        newest.write_bytes(newest.read_bytes()[: newest.stat().st_size // 3])

        resumed = GCNModel(config)
        history = train(
            resumed, tr, val, train_config,
            fault=FaultTolerance(checkpoint_dir=tmp_path, keep=4),
        )
        assert history.resumed_from == 3  # fell back past epoch 4
        assert any(
            str(newest) in (d.hint or "") for d in history.diagnostics
        )
        assert not newest.exists()  # bad envelope evicted
        _assert_states_equal(reference.state_dict(), resumed.state_dict())

    def test_garbage_checkpoint_starts_fresh(self, split, tmp_path):
        tr, val = split
        config = _model_config(tr)
        (tmp_path / "epoch-00003.ckpt.npz").write_bytes(b"not an npz at all")

        reference = GCNModel(config)
        ref_history = train(reference, tr, val, _train_config())

        model = GCNModel(config)
        history = train(
            model, tr, val, _train_config(),
            fault=FaultTolerance(checkpoint_dir=tmp_path),
        )
        assert history.resumed_from is None  # fresh start
        assert history.diagnostics  # ... but a structured record of why
        assert "epoch-00003" in (history.diagnostics[0].hint or "")
        _assert_states_equal(reference.state_dict(), model.state_dict())
        assert history.train_loss == ref_history.train_loss

    def test_wrong_format_version_is_a_miss(
        self, split, tmp_path, monkeypatch
    ):
        tr, val = split
        config = _model_config(tr)
        # Write envelopes stamped with a future format version...
        monkeypatch.setattr(
            checkpoint_module, "CHECKPOINT_FORMAT_VERSION", 99
        )
        train(
            GCNModel(config), tr, val, _train_config(epochs=3),
            fault=FaultTolerance(checkpoint_dir=tmp_path),
        )
        monkeypatch.undo()
        # ... which the current reader must treat as a miss.
        diagnostics: list = []
        store = CheckpointStore(tmp_path)
        assert store.load_latest(config.to_dict(), diagnostics) is None
        assert diagnostics
        assert "format version" in diagnostics[0].message

    def test_other_models_checkpoints_are_ignored(self, split, tmp_path):
        # Same directory, different architecture: miss without eviction
        # (the envelopes belong to the other run).
        tr, val = split
        train(
            GCNModel(_model_config(tr)), tr, val, _train_config(epochs=3),
            fault=FaultTolerance(checkpoint_dir=tmp_path),
        )
        n_envelopes = len(CheckpointStore(tmp_path).paths())
        other = _model_config(tr, channels=(4, 4))
        history = train(
            GCNModel(other), tr, val, _train_config(epochs=2),
            fault=FaultTolerance(checkpoint_dir=tmp_path, keep=50),
        )
        assert history.resumed_from is None
        assert any(
            "different model config" in d.message
            for d in history.diagnostics
        )
        # The foreign envelopes were not deleted.
        store = CheckpointStore(tmp_path, keep=50)
        assert len(store.paths()) >= n_envelopes


class TestOptimizerStateDicts:
    def _slots(self):
        rng = np.random.default_rng(0)
        params = {"weight": rng.normal(size=(4, 3)), "bias": rng.normal(size=3)}
        grads = {"weight": rng.normal(size=(4, 3)), "bias": rng.normal(size=3)}
        return [(params, grads)]

    def test_adam_roundtrip_is_bitwise(self):
        slots = self._slots()
        source = Adam(slots, lr=1e-2)
        source.step()
        source.step()
        state = source.state_dict()

        twin = Adam(self._slots(), lr=1e-2)
        twin.load_state_dict(state)
        assert twin.t == source.t
        assert twin.lr == source.lr
        assert np.array_equal(twin.m, source.m)
        assert np.array_equal(twin.v, source.v)
        # Exported arrays are copies, not views of live state.
        source.step()
        assert not np.array_equal(state["m"], source.m)

    def test_sgd_roundtrip_is_bitwise(self):
        slots = self._slots()
        source = SGD(slots, lr=1e-2, momentum=0.9)
        source.step()
        state = source.state_dict()

        twin = SGD(self._slots(), lr=1e-2, momentum=0.9)
        twin.load_state_dict(state)
        assert twin.lr == source.lr
        for a, b in zip(twin.velocity, source.velocity):
            for key in a:
                assert np.array_equal(a[key], b[key])

    def test_kind_mismatch_rejected(self):
        adam = Adam(self._slots(), lr=1e-2)
        sgd = SGD(self._slots(), lr=1e-2)
        with pytest.raises(ModelConfigError, match="expected 'adam'"):
            adam.load_state_dict(sgd.state_dict())
        with pytest.raises(ModelConfigError, match="expected 'sgd'"):
            sgd.load_state_dict(adam.state_dict())


class TestModelRngStates:
    def test_dropout_stream_roundtrip(self, split):
        tr, _ = split
        model = GCNModel(_model_config(tr))
        states = model.rng_states()
        assert states  # the head has a dropout layer
        # Drawing advances the stream; restoring rewinds it.
        model.forward_packed(pack_samples([tr[0]]), training=True)
        advanced = model.rng_states()
        assert advanced != states
        model.set_rng_states(states)
        assert model.rng_states() == states

    def test_state_count_mismatch_rejected(self, split):
        tr, _ = split
        model = GCNModel(_model_config(tr))
        with pytest.raises(ModelConfigError, match="dropout RNG states"):
            model.set_rng_states([])
