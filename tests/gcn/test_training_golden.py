"""Committed golden training curves, float-free.

Training runs every minibatch as one packed forward and backward
(``repro.gcn.batch``).  This golden pins what four seeded recipes train
to: per epoch the mean training loss, the training accuracy and the
validation accuracy, each stored as a ``float.hex`` string, plus the
best epoch.  The recipes cover

* ``trailing_one`` — 7 training graphs at batch 3, so every epoch ends
  in a minibatch of one graph;
* ``batch_one`` — batch 1 throughout;
* ``quick_spec`` — the quick OTA spec that
  ``benchmarks/check_batch_regression.py`` trains (72 graphs, seed 13,
  batch 8, 10 epochs);
* ``rf_sgd_patience`` — a 3-class RF run under SGD with momentum whose
  early stopping fires before the epoch limit.

Curves are compared at a stated tolerance — loss at rtol 1e-7,
accuracies at atol 1e-9, epoch count and best epoch exact — so a
change in float summation order passes and different math does not.

Regenerate it from the current code with::

    PYTHONPATH=src python -m tests.gcn.test_training_golden
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from tests.core.test_golden import TRAINING_GOLDEN

REGENERATE = "PYTHONPATH=src python -m tests.gcn.test_training_golden"
LOSS_RTOL = 1e-7
ACCURACY_ATOL = 1e-9
CURVES = ("train_loss", "train_accuracy", "val_accuracy")


def _ota_pool():
    """Ten small OTA-bias graphs: 7 for training, 3 for validation."""
    from repro.datasets.synth import (
        build_samples,
        generate_ota_bias_dataset,
        task_classes,
    )

    dataset = generate_ota_bias_dataset(10, seed="batch-pool", workers=1)
    samples = build_samples(dataset, task_classes("ota"), levels=2, workers=1)
    return samples[:7], samples[7:]


def _small_ota_model():
    from repro.gcn.model import GCNConfig

    return GCNConfig(
        n_classes=2, filter_size=4, channels=(8, 8), fc_size=16, dropout=0.2
    )


def _trailing_one():
    from repro.gcn.train import TrainConfig

    train_set, val_set = _ota_pool()
    config = TrainConfig(epochs=6, batch_size=3, lr=3e-3, patience=0, seed=11)
    return _small_ota_model(), train_set, val_set, config


def _batch_one():
    from repro.gcn.train import TrainConfig

    train_set, val_set = _ota_pool()
    config = TrainConfig(epochs=4, batch_size=1, lr=3e-3, patience=0, seed=5)
    return _small_ota_model(), train_set, val_set, config


def _quick_spec():
    from repro.datasets.synth import (
        build_samples,
        generate_ota_bias_dataset,
        task_classes,
        train_validation_split,
    )
    from repro.gcn.model import GCNConfig
    from repro.gcn.train import TrainConfig

    dataset = generate_ota_bias_dataset(72, seed=(13, "gcn-batching"), workers=1)
    samples = build_samples(dataset, task_classes("ota"), levels=2, workers=1)
    train_set, val_set = train_validation_split(
        samples, validation_fraction=0.2, seed=13
    )
    model = GCNConfig(
        n_classes=2, filter_size=8, channels=(16, 32), fc_size=64, seed=13
    )
    config = TrainConfig(epochs=10, batch_size=8, patience=0, seed=13)
    return model, train_set, val_set, config


def _rf_sgd_patience():
    from repro.datasets.synth import (
        build_samples,
        generate_rf_dataset,
        task_classes,
        train_validation_split,
    )
    from repro.gcn.model import GCNConfig
    from repro.gcn.train import TrainConfig

    dataset = generate_rf_dataset(24, seed="golden-rf", workers=1)
    samples = build_samples(dataset, task_classes("rf"), levels=2, workers=1)
    train_set, val_set = train_validation_split(
        samples, validation_fraction=0.25, seed=3
    )
    model = GCNConfig(
        n_classes=3, filter_size=4, channels=(8, 16), fc_size=32,
        dropout=0.1, seed=3,
    )
    config = TrainConfig(
        epochs=40, batch_size=4, lr=1e-2, optimizer="sgd", momentum=0.9,
        patience=3, seed=3,
    )
    return model, train_set, val_set, config


#: name → () -> (GCNConfig, train samples, validation samples, TrainConfig)
RECIPES = {
    "trailing_one": _trailing_one,
    "batch_one": _batch_one,
    "quick_spec": _quick_spec,
    "rf_sgd_patience": _rf_sgd_patience,
}


def train_curves(name: str) -> dict:
    """Train one recipe from scratch; its curves as ``float.hex``."""
    from repro.gcn.model import GCNModel
    from repro.gcn.train import train

    model_config, train_set, val_set, config = RECIPES[name]()
    history = train(GCNModel(model_config), train_set, val_set, config)
    curves = {
        key: [float(value).hex() for value in getattr(history, key)]
        for key in CURVES
    }
    curves["best_epoch"] = history.best_epoch
    return curves


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(TRAINING_GOLDEN.read_text())


def test_every_recipe_has_a_golden(golden):
    assert sorted(golden) == sorted(RECIPES), f"stale training golden; run {REGENERATE}"


def test_recipes_cover_their_cases(golden):
    """Each recipe still exercises the case it is named for."""
    _model, train_set, _val, config = _trailing_one()
    assert len(train_set) % config.batch_size == 1
    _model, _train, _val, config = _rf_sgd_patience()
    assert len(golden["rf_sgd_patience"]["val_accuracy"]) < config.epochs


@pytest.mark.parametrize("name", sorted(RECIPES))
def test_training_matches_golden(golden, name):
    got = train_curves(name)
    want = golden[name]
    hint = f"{name}: if the change is intended, regenerate with: {REGENERATE}"
    for key in CURVES:
        assert len(got[key]) == len(want[key]), f"{key} length; {hint}"
    np.testing.assert_allclose(
        [float.fromhex(v) for v in got["train_loss"]],
        [float.fromhex(v) for v in want["train_loss"]],
        rtol=LOSS_RTOL,
        err_msg=hint,
    )
    for key in ("train_accuracy", "val_accuracy"):
        np.testing.assert_allclose(
            [float.fromhex(v) for v in got[key]],
            [float.fromhex(v) for v in want[key]],
            rtol=0,
            atol=ACCURACY_ATOL,
            err_msg=hint,
        )
    assert got["best_epoch"] == want["best_epoch"], hint


if __name__ == "__main__":
    payload = {name: train_curves(name) for name in sorted(RECIPES)}
    TRAINING_GOLDEN.write_text(json.dumps(payload, indent=1) + "\n")
    print(f"wrote {TRAINING_GOLDEN}")
