"""Training-fault injection: SIGKILL mid-epoch, NaN minibatches, and
poison decks that kill their worker process.

ISSUE 7 acceptance:

* a training run SIGKILLed mid-epoch resumes from its newest checkpoint
  and finishes bitwise-identical to the uninterrupted run;
* an injected NaN loss triggers rollback + LR backoff and still yields
  a usable model (with ``degraded`` metadata); exhausting the retry
  budget raises the typed :class:`TrainingDiverged`;
* a poison deck in ``run_many`` yields exactly one ``FailureReport``
  while its chunk siblings succeed, and the next ``run_many`` reuses a
  healthy warm pool; under ``on_error="raise"`` it raises the typed
  :class:`WorkerCrashed` naming the deck.
"""

from __future__ import annotations

import multiprocessing
import os
import signal
import subprocess
import sys
import time
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest

from repro.core.pipeline import GanaPipeline
from repro.datasets.ota import generate_ota, ota_variants
from repro.datasets.synth import (
    build_samples,
    generate_ota_bias_dataset,
    task_classes,
)
from repro.exceptions import GanaError, TrainingDiverged, WorkerCrashed
from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.train import FaultTolerance, TrainConfig, evaluate, train
from repro.runtime import parallel
from repro.runtime.parallel import shutdown_pools
from repro.runtime.resilience import FailureReport
from repro.spice.writer import write_circuit

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Dataset/config literals shared (verbatim) with the SIGKILL
#: subprocess script below — drift here breaks the bitwise comparison.
_DATASET_SEED = "train-fault"
_MODEL_KWARGS = dict(
    n_layers=2, filter_size=4, channels=(8, 8), fc_size=16,
    dropout=0.2, seed=1,
)
_TRAIN_KWARGS = dict(epochs=60, batch_size=3, seed=5, patience=0)


@pytest.fixture(scope="module")
def split():
    dataset = generate_ota_bias_dataset(10, seed=_DATASET_SEED, workers=1)
    samples = build_samples(dataset, task_classes("ota"), levels=2, workers=1)
    return samples[:7], samples[7:]


def _model_config(samples) -> GCNConfig:
    return GCNConfig(
        n_features=samples[0].features.shape[1],
        n_classes=len(task_classes("ota")),
        **_MODEL_KWARGS,
    )


class TestDivergenceRollback:
    def _poison_nth_batched_loss(self, monkeypatch, n: int):
        """Make the ``n``-th batched-loss call return NaN, once."""
        # ``repro.gcn.train`` the *module*: the package re-exports the
        # ``train`` function under the same name, shadowing the
        # attribute path ``import ... as`` would resolve.
        train_module = sys.modules["repro.gcn.train"]

        real = train_module.batched_cross_entropy
        calls = {"count": 0}

        def poisoned(*args, **kwargs):
            losses, counts, grad = real(*args, **kwargs)
            calls["count"] += 1
            if calls["count"] == n:
                losses = losses + np.nan
            return losses, counts, grad

        monkeypatch.setattr(train_module, "batched_cross_entropy", poisoned)
        return calls

    def test_nan_minibatch_rolls_back_and_recovers(self, split, monkeypatch):
        tr, val = split
        # 7 samples / batch_size 3 → two packed minibatches per epoch;
        # call 3 is the first minibatch of epoch 1.
        self._poison_nth_batched_loss(monkeypatch, 3)
        model = GCNModel(_model_config(tr))
        history = train(
            model, tr, val, TrainConfig(epochs=4, batch_size=3, seed=5),
        )
        assert history.rollbacks == 1
        assert history.degraded
        assert len(history.train_loss) == 4  # the epoch was retried, not lost
        [diagnostic] = history.diagnostics
        assert "diverged" in diagnostic.message
        assert "non-finite loss" in diagnostic.message
        assert "learning rate reduced" in diagnostic.hint
        # The recovered model is usable: finite weights, sane accuracy.
        for value in model.state_dict().values():
            assert np.isfinite(value).all()
        assert 0.0 <= evaluate(model, val) <= 1.0

    def test_retry_budget_exhaustion_raises_typed_error(
        self, split, monkeypatch
    ):
        train_module = sys.modules["repro.gcn.train"]
        tr, val = split

        def always_nan(logits, labels, mask, offset, weights):
            real = np.asarray(logits)
            losses = np.full(1, np.nan)
            counts = np.ones(1)
            return losses, counts, np.zeros_like(real)

        monkeypatch.setattr(
            train_module, "batched_cross_entropy", always_nan
        )
        with pytest.raises(TrainingDiverged) as info:
            train(
                GCNModel(_model_config(tr)), tr, val,
                TrainConfig(epochs=4, batch_size=3, seed=5),
                fault=FaultTolerance(max_divergence_retries=1),
            )
        assert isinstance(info.value, GanaError)  # CLI-surfaceable
        assert info.value.epoch == 0
        assert info.value.rollbacks == 2  # the budgeted retry + the raise
        assert "after 1 rollback retry" in str(info.value)

    def test_gradient_norm_guard_trips(self, split):
        tr, val = split
        with pytest.raises(TrainingDiverged, match="gradient norm"):
            train(
                GCNModel(_model_config(tr)), tr, val,
                TrainConfig(epochs=2, batch_size=3, seed=5),
                fault=FaultTolerance(
                    grad_limit=1e-12, max_divergence_retries=0
                ),
            )


@pytest.mark.slow
class TestSigkillResume:
    def test_sigkill_mid_epoch_then_resume_is_bitwise(self, split, tmp_path):
        tr, val = split
        config = _model_config(tr)
        train_config = TrainConfig(**_TRAIN_KWARGS)
        ckpt_dir = tmp_path / "ckpt"

        # The victim process: same dataset/config literals, with saves
        # slowed down so the kill window is wide and deterministic.
        script = f"""
import sys, time
from repro.gcn import checkpoint as checkpoint_module
_real_save = checkpoint_module.CheckpointStore.save
def _slow_save(self, ckpt, cfg):
    time.sleep(0.05)
    return _real_save(self, ckpt, cfg)
checkpoint_module.CheckpointStore.save = _slow_save
from repro.datasets.synth import build_samples, generate_ota_bias_dataset, task_classes
from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.train import FaultTolerance, TrainConfig, train
dataset = generate_ota_bias_dataset(10, seed={_DATASET_SEED!r}, workers=1)
samples = build_samples(dataset, task_classes("ota"), levels=2, workers=1)
tr, val = samples[:7], samples[7:]
config = GCNConfig(
    n_features=tr[0].features.shape[1],
    n_classes=len(task_classes("ota")),
    **{_MODEL_KWARGS!r},
)
train(
    GCNModel(config), tr, val, TrainConfig(**{_TRAIN_KWARGS!r}),
    fault=FaultTolerance(checkpoint_dir=sys.argv[1], keep=5),
)
"""
        env = dict(os.environ)
        env["PYTHONPATH"] = str(REPO_ROOT / "src")
        proc = subprocess.Popen(
            [sys.executable, "-c", script, str(ckpt_dir)],
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            deadline = time.monotonic() + 120.0
            while time.monotonic() < deadline:
                if len(list(ckpt_dir.glob("epoch-*.ckpt.npz"))) >= 2:
                    break
                if proc.poll() is not None:
                    pytest.fail(
                        "training subprocess exited "
                        f"({proc.returncode}) before it could be killed"
                    )
                time.sleep(0.01)
            else:
                pytest.fail("no checkpoints appeared within the deadline")
            os.kill(proc.pid, signal.SIGKILL)
            assert proc.wait(timeout=30) == -signal.SIGKILL
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait(timeout=30)

        resumed = GCNModel(config)
        history = train(
            resumed, tr, val, train_config,
            fault=FaultTolerance(checkpoint_dir=ckpt_dir, keep=5),
        )
        assert history.resumed_from is not None
        assert 1 <= history.resumed_from < train_config.epochs

        reference = GCNModel(config)
        ref_history = train(reference, tr, val, train_config)
        ref_state = reference.state_dict()
        for key, value in resumed.state_dict().items():
            assert np.array_equal(value, ref_state[key]), key
        assert history.train_loss == ref_history.train_loss
        assert history.val_accuracy == ref_history.val_accuracy
        assert history.best_epoch == ref_history.best_epoch


POISON_DECK = "* poisonpill\n.end\n"


@pytest.fixture(scope="module")
def pipeline(quick_ota_annotator):
    return GanaPipeline(annotator=quick_ota_annotator)


@pytest.fixture(scope="module")
def good_decks():
    specs = ota_variants(3, seed="train-fault-decks")
    return [
        write_circuit(generate_ota(spec, name=f"ok{i}").circuit)
        for i, spec in enumerate(specs)
    ]


def _arm_poison_parse(monkeypatch, status: int = 1):
    """Patch ``parse_netlist`` to hard-kill the worker on the poison
    deck with exit ``status``.  Fork-based workers inherit the patched
    module state, so the crash happens inside the pool, not in the test
    process (the parent never parses the poison deck itself)."""
    import repro.core.pipeline as pipeline_module

    real_parse = pipeline_module.parse_netlist

    def kill_on_poison(text, **kwargs):
        if "poisonpill" in text:
            os._exit(status)  # simulated segfault
        return real_parse(text, **kwargs)

    monkeypatch.setattr(pipeline_module, "parse_netlist", kill_on_poison)


class TestPoisonDeckQuarantine:
    def test_poison_deck_yields_exactly_one_report(
        self, pipeline, good_decks, monkeypatch
    ):
        _arm_poison_parse(monkeypatch)
        shutdown_pools()  # fresh forks that inherit the armed parser
        decks = [good_decks[0], POISON_DECK, good_decks[1], good_decks[2]]
        names = ["a", "bomb", "c", "d"]
        results = pipeline.run_many(
            decks, names=names, on_error="report", workers=2
        )
        assert [r.ok for r in results] == [True, False, True, True]
        report = results[1]
        assert isinstance(report, FailureReport)
        assert report.stage == "worker"
        assert report.index == 1
        assert report.name == "bomb"
        assert report.diagnostics
        assert "worker process died" in report.diagnostics[0].message
        # The health counters saw the quarantine.
        assert any(
            h.quarantined >= 1 for h in parallel.pool_health().values()
        )

    def test_survivors_match_a_clean_run(
        self, pipeline, good_decks, monkeypatch
    ):
        _arm_poison_parse(monkeypatch)
        shutdown_pools()
        results = pipeline.run_many(
            [good_decks[0], POISON_DECK, good_decks[1]],
            on_error="report",
            workers=2,
        )
        clean = [pipeline.run(good_decks[0]), pipeline.run(good_decks[1])]
        for got, want in zip([results[0], results[2]], clean):
            assert (
                got.annotation.element_classes
                == want.annotation.element_classes
            )

    def test_next_run_many_reuses_a_healthy_warm_pool(
        self, pipeline, good_decks, monkeypatch
    ):
        _arm_poison_parse(monkeypatch)
        shutdown_pools()
        poisoned = pipeline.run_many(
            [good_decks[0], POISON_DECK, good_decks[1]],
            on_error="report",
            workers=2,
        )
        assert [r.ok for r in poisoned] == [True, False, True]

        first = pipeline.run_many(
            good_decks, on_error="report", workers=2
        )
        assert all(r.ok for r in first)
        warm = {key: id(pool) for key, pool in parallel._POOLS.items()}
        assert warm  # the clean run left a healthy pool behind

        second = pipeline.run_many(
            good_decks, on_error="report", workers=2
        )
        assert all(r.ok for r in second)
        assert {
            key: id(pool) for key, pool in parallel._POOLS.items()
        } == warm  # same executor objects served the second clean run

    def test_raise_mode_names_the_poison_deck(self, pipeline, monkeypatch):
        """Under the default ``on_error="raise"``, a deck that kills its
        worker raises :class:`WorkerCrashed` with its index and name,
        chained from the pool's ``BrokenProcessPool``, and the broken
        pools leave no worker process behind."""
        _arm_poison_parse(monkeypatch, status=9)
        shutdown_pools()
        specs = ota_variants(7, seed="raise-mode-fleet")
        decks = [
            write_circuit(generate_ota(spec, name=f"fleet{i}").circuit)
            for i, spec in enumerate(specs)
        ]
        decks.insert(5, POISON_DECK)
        names = [f"deck{i}" for i in range(len(decks))]
        with pytest.raises(WorkerCrashed) as info:
            pipeline.run_many(decks, names=names, workers=2)
        crash = info.value
        assert isinstance(crash, GanaError)
        assert (crash.index, crash.name) == (5, "deck5")
        assert "deck5" in str(crash)
        assert isinstance(crash.__cause__, BrokenProcessPool)
        shutdown_pools()
        deadline = time.monotonic() + 30
        while multiprocessing.active_children() and time.monotonic() < deadline:
            time.sleep(0.1)
        assert not multiprocessing.active_children()
