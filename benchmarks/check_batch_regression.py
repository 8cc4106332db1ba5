"""CI smoke check: batched GCN training must stay fast.

Trains the quick OTA recognition spec twice from one seed — once with
``train()``, which packs each minibatch block-diagonally into one
forward and backward, and once with :func:`per_graph_loop` below, which
runs each training graph as a pack of one — and fails when

* ``train()`` is not ``--min-speedup`` (default 1.5x) faster than the
  per-graph loop, or
* ``train()``'s wall-clock exceeds ``--factor`` (default 2x) times the
  committed ``gcn_batching.quick_spec`` baseline in
  ``BENCH_runtime.json``, or
* the two runs' curves diverge (packing is numerically equivalent to
  the per-graph loop by construction — a divergence means the speedup
  is coming from doing different math).

Read-only: the committed ``gcn_batching`` section is written by
``bench_runtime.py`` (``bench_runtime_gcn_batching``), which reuses
:func:`measure` below across a batch-size sweep.

Usage::

    PYTHONPATH=src python benchmarks/check_batch_regression.py
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT))

BENCH_JSON = REPO_ROOT / "BENCH_runtime.json"

#: The "OTA quick spec" both runs train: the dataset/model sizes of
#: ``pretrain_annotator(task="ota", quick=True)``, with early stopping
#: off (``patience=0``) so both paths run the same fixed epoch count
#: and the wall-clock ratio is a pure throughput comparison.
TRAIN_SIZE = 72
EPOCHS = 10
BATCH_SIZE = 8
SEED = 13


def committed_baseline() -> float | None:
    try:
        data = json.loads(BENCH_JSON.read_text())
        return float(data["gcn_batching"]["quick_spec"]["batched_seconds"])
    except (OSError, KeyError, ValueError):
        return None


def per_graph_loop(model, train_samples, val_samples, config):
    """The reference: ``train()``'s recipe one graph at a time.

    Each training graph is packed alone, once, before the epochs.  Per
    minibatch: ``zero_grad``, then per graph one training forward,
    :func:`~repro.gcn.loss.cross_entropy` and ``backward(grad /
    len(batch))``, then one optimizer step.  The shuffle stream, class
    weights, Adam settings, lr decay and per-epoch evaluation are
    ``train()``'s.  Returns ``(train_loss, val_accuracy, best_epoch)``.
    """
    import numpy as np

    from repro.gcn.batch import pack_samples
    from repro.gcn.loss import cross_entropy
    from repro.gcn.optim import Adam
    from repro.gcn.samples import class_weights
    from repro.gcn.train import evaluate
    from repro.utils.rng import seeded_rng

    alone = [pack_samples([sample]) for sample in train_samples]
    weights = (
        class_weights(train_samples, model.config.n_classes)
        if config.balance_classes
        else None
    )
    optimizer = Adam(
        model.parameter_slots(), lr=config.lr, weight_decay=config.weight_decay
    )
    rng = seeded_rng(("train-shuffle", config.seed))
    train_loss, val_accuracy = [], []
    for _epoch in range(config.epochs):
        order = rng.permutation(len(alone))
        epoch_loss, epoch_total = 0.0, 0
        for start in range(0, len(order), config.batch_size):
            batch = order[start : start + config.batch_size]
            model.zero_grad()
            batch_loss = 0.0
            for i in batch:
                packed = alone[i]
                logits = model.forward_packed(packed, training=True)
                loss, grad = cross_entropy(
                    logits, packed.labels, packed.mask, weights
                )
                model.backward(grad / len(batch))
                count = int(packed.mask.sum())
                batch_loss += loss * count
                epoch_total += count
            optimizer.step()
            epoch_loss += batch_loss
        optimizer.decay_lr(config.lr_decay)
        train_loss.append(epoch_loss / epoch_total)
        val_accuracy.append(evaluate(model, val_samples))
    return train_loss, val_accuracy, int(np.argmax(val_accuracy))


def measure(reps: int = 2, batch_size: int = BATCH_SIZE) -> dict:
    """Train the quick OTA spec with ``train()`` and with
    :func:`per_graph_loop`; best-of reps.

    Alternates the two inside each rep, so after the first rep both see
    identical warm state (each sample's first-layer Chebyshev basis memo
    is shared); best-of therefore excludes one-time setup from the
    ratio.  Curve parity is asserted on every rep.
    """
    import numpy as np

    from repro.datasets.synth import (
        build_samples,
        generate_ota_bias_dataset,
        task_classes,
        train_validation_split,
    )
    from repro.gcn.model import GCNConfig, GCNModel
    from repro.gcn.train import TrainConfig, train

    classes = task_classes("ota")
    dataset = generate_ota_bias_dataset(
        TRAIN_SIZE, seed=(SEED, "gcn-batching"), workers=1
    )
    samples = build_samples(dataset, classes, levels=2, workers=1)
    train_samples, val_samples = train_validation_split(
        samples, validation_fraction=0.2, seed=SEED
    )
    model_config = GCNConfig(
        n_classes=len(classes),
        filter_size=8,
        channels=(16, 32),
        fc_size=64,
        seed=SEED,
    )
    config = TrainConfig(
        epochs=EPOCHS, batch_size=batch_size, patience=0, seed=SEED
    )

    def timed(fn):
        start = time.perf_counter()
        result = fn(GCNModel(model_config), train_samples, val_samples, config)
        return time.perf_counter() - start, result

    batched_seconds = per_sample_seconds = float("inf")
    batched_history = None
    for _ in range(max(1, reps)):
        seconds, batched_history = timed(train)
        batched_seconds = min(batched_seconds, seconds)
        seconds, (loss, val_accuracy, best_epoch) = timed(per_graph_loop)
        per_sample_seconds = min(per_sample_seconds, seconds)
        # Numerical-equivalence gate: a speedup that changes the
        # training trajectory is a bug, not an optimization.
        np.testing.assert_allclose(batched_history.train_loss, loss, rtol=1e-7)
        np.testing.assert_allclose(
            batched_history.val_accuracy, val_accuracy, atol=1e-9
        )
        assert batched_history.best_epoch == best_epoch

    best = batched_history.best_epoch
    return {
        "task": "ota",
        "train_size": TRAIN_SIZE,
        "epochs": EPOCHS,
        "batch_size": batch_size,
        "seed": SEED,
        "per_sample_seconds": per_sample_seconds,
        "batched_seconds": batched_seconds,
        "speedup": per_sample_seconds / max(batched_seconds, 1e-9),
        "epochs_per_second_batched": EPOCHS / max(batched_seconds, 1e-9),
        "epochs_per_second_per_sample": EPOCHS / max(per_sample_seconds, 1e-9),
        "best_epoch": best,
        "best_val_accuracy": batched_history.val_accuracy[best],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--min-speedup",
        type=float,
        default=1.5,
        help="fail when train() is not MIN_SPEEDUP times faster than the "
        "per-graph loop (default 1.5)",
    )
    parser.add_argument(
        "--factor",
        type=float,
        default=2.0,
        help="fail when batched training exceeds FACTOR times the "
        "committed gcn_batching quick-spec baseline (default 2)",
    )
    parser.add_argument(
        "--reps",
        type=int,
        default=3,
        help="training runs per path; the fastest is compared (default 3)",
    )
    args = parser.parse_args(argv)

    baseline = committed_baseline()
    stats = measure(args.reps)
    print(
        "gcn batching: per-graph loop {per_sample_seconds:.4f}s vs batched "
        "{batched_seconds:.4f}s ({speedup:.2f}x, floor "
        "{floor:.1f}x; best val acc {best_val_accuracy:.4f})".format(
            floor=args.min_speedup, **stats
        )
    )

    if stats["speedup"] < args.min_speedup:
        print("FAIL: batched training lost its speedup floor")
        return 1
    if baseline is None:
        print("no committed gcn_batching baseline; skipping the ratio check")
    else:
        ratio = stats["batched_seconds"] / baseline
        print(
            f"vs committed baseline {baseline:.4f}s: {ratio:.2f}x "
            f"(limit {args.factor:.1f}x)"
        )
        if ratio > args.factor:
            print("FAIL: batched training regressed beyond the allowed factor")
            return 1
    print("OK")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
