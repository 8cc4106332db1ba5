"""Training loop for the recognition GCN.

Graphs have varying vertex counts, so a "minibatch" is a set of whole
graphs, packed block-diagonally (``gcn/batch.py``) into one forward and
one backward; each graph's gradient is scaled by the batch size, and
one optimizer step applies the sum.  Early stopping keeps the
best-validation-accuracy parameters.

Fault tolerance (see DESIGN.md §12): the epoch loop snapshots its full
state — weights, optimizer moments, shuffle and dropout RNG streams,
curves, best-epoch bookkeeping — at the end of every completed epoch.
The snapshot serves two recovery paths:

* **checkpoint/resume** — with ``FaultTolerance.checkpoint_dir`` set,
  snapshots are persisted through
  :class:`~repro.gcn.checkpoint.CheckpointStore` and a killed run
  resumes from the newest loadable envelope, reproducing the
  uninterrupted run bitwise;
* **divergence rollback** — a non-finite minibatch loss or an exploding
  gradient norm aborts the epoch *before* the poisoned optimizer step,
  restores the last good snapshot, backs the learning rate off, and
  retries, within a bounded retry budget
  (:class:`~repro.exceptions.TrainingDiverged` when exhausted).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.exceptions import ModelConfigError, TrainingDiverged
from repro.gcn.batch import pack_samples
from repro.gcn.checkpoint import CheckpointStore, TrainCheckpoint
from repro.gcn.loss import batched_cross_entropy
from repro.gcn.metrics import confusion_matrix
from repro.gcn.model import GCNConfig, GCNModel
from repro.gcn.optim import Adam, Optimizer, SGD
from repro.gcn.samples import GraphSample, class_weights
from repro.runtime.resilience import ERROR, WARNING, Diagnostic
from repro.utils.rng import seeded_rng


@dataclass(frozen=True)
class TrainConfig:
    """Optimization hyperparameters (the random-search dimensions of
    Sec. V-A are ``lr``, ``weight_decay``, ``lr_decay``, and the model's
    ``filter_size``)."""

    epochs: int = 40
    batch_size: int = 8
    lr: float = 3e-3
    weight_decay: float = 5e-5
    lr_decay: float = 0.98  # per-epoch multiplicative decay
    optimizer: str = "adam"  # "adam" | "sgd"
    momentum: float = 0.9
    patience: int = 10  # early-stopping patience in epochs; 0 disables
    balance_classes: bool = True
    seed: int = 0
    verbose: bool = False


@dataclass(frozen=True)
class FaultTolerance:
    """Fault-tolerance knobs for :func:`train`.

    Deliberately *not* part of :class:`TrainConfig`: the training
    fingerprint (see ``repro.runtime.cache.fingerprint``) hashes the
    TrainConfig, and where a run checkpoints or how it recovers must
    never change which cached model it resolves to.
    """

    #: Directory for epoch checkpoint envelopes; None disables disk
    #: checkpointing (the in-memory divergence rollback still works).
    checkpoint_dir: str | Path | None = None
    #: Persist an envelope every N completed epochs (the final and any
    #: early-stopping epoch always checkpoint).
    checkpoint_every: int = 1
    #: Resume from the newest loadable envelope in ``checkpoint_dir``.
    resume: bool = True
    #: How many envelopes to keep on disk (older ones are pruned).
    keep: int = 3
    #: Total divergence rollbacks allowed before the run raises
    #: :class:`~repro.exceptions.TrainingDiverged`.
    max_divergence_retries: int = 2
    #: Learning-rate multiplier applied on each rollback (compounds
    #: across consecutive failures of the same epoch).
    lr_backoff: float = 0.5
    #: Gradient-norm ceiling for the divergence guard; None disables
    #: the norm check (the non-finite loss check always runs).
    grad_limit: float | None = 1e6


@dataclass
class History:
    """Per-epoch training curves plus wall-clock bookkeeping."""

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    seconds: float = 0.0
    best_epoch: int = -1
    #: Completed-epoch count the run resumed from (None: fresh start).
    resumed_from: int | None = None
    #: Divergence rollbacks spent during the run.
    rollbacks: int = 0
    #: True when the run needed any rollback — the model is usable but
    #: was trained through a recovery path.
    degraded: bool = False
    #: Wall-clock spent writing checkpoint envelopes (bounded by the
    #: checkpoint-overhead benchmark to <5% of ``seconds``).
    checkpoint_seconds: float = 0.0
    #: Structured recovery records: corrupt-checkpoint misses,
    #: divergence rollbacks, retry-budget exhaustion.
    diagnostics: list[Diagnostic] = field(default_factory=list)

    @property
    def best_val_accuracy(self) -> float:
        return max(self.val_accuracy) if self.val_accuracy else 0.0


def _make_optimizer(model: GCNModel, config: TrainConfig) -> Optimizer:
    slots = model.parameter_slots()
    if config.optimizer == "adam":
        return Adam(slots, lr=config.lr, weight_decay=config.weight_decay)
    if config.optimizer == "sgd":
        return SGD(
            slots,
            lr=config.lr,
            momentum=config.momentum,
            weight_decay=config.weight_decay,
        )
    raise ModelConfigError(f"unknown optimizer {config.optimizer!r}")


#: Packed-inference chunk size for evaluation: large enough to amortize
#: the per-call overhead, small enough to keep the packed Laplacians in
#: cache.
_EVAL_CHUNK = 32


def _eval_packs(samples: list[GraphSample]) -> list:
    """``samples`` packed in inference chunks of ``_EVAL_CHUNK``."""
    return [
        pack_samples(samples[start : start + _EVAL_CHUNK])
        for start in range(0, len(samples), _EVAL_CHUNK)
    ]


def evaluate(model: GCNModel, samples: list[GraphSample]) -> float:
    """Vertex accuracy over a sample list (masked vertices excluded),
    from packed inference in chunks."""
    return _evaluate_packed(model, _eval_packs(samples))


def _evaluate_packed(model: GCNModel, packs: list) -> float:
    """Accuracy over pre-packed evaluation chunks.

    The training loop packs its validation chunks once and reuses them
    every epoch — the packed Laplacians and the first-layer Chebyshev
    basis cache stay warm across epochs.
    """
    correct = 0
    total = 0
    for packed in packs:
        logits = model.forward_packed(packed, training=False)
        predictions = logits.argmax(axis=1)
        correct += int(((predictions == packed.labels) & packed.mask).sum())
        total += int(packed.mask.sum())
    return correct / total if total else 1.0


def evaluate_confusion(
    model: GCNModel, samples: list[GraphSample], n_classes: int
) -> np.ndarray:
    """Pooled confusion matrix over a sample list (packed chunks)."""
    matrix = np.zeros((n_classes, n_classes), dtype=np.int64)
    for packed in _eval_packs(samples):
        logits = model.forward_packed(packed, training=False)
        matrix += confusion_matrix(
            logits.argmax(axis=1), packed.labels, n_classes, packed.mask
        )
    return matrix


class _DivergenceError(Exception):
    """Internal: raised by the epoch loop before a poisoned optimizer
    step can land; the handler in :func:`train` rolls back."""


def _grad_norm(grads: np.ndarray) -> float:
    """Global L2 norm of the optimizer's flat gradient arena
    (NaN-propagating)."""
    return math.sqrt(float(np.dot(grads, grads)))


def _run_epoch(
    model: GCNModel,
    optimizer: Optimizer,
    train_samples: list[GraphSample],
    config: TrainConfig,
    rng: np.random.Generator,
    weights,
    grad_limit: float | None,
) -> tuple[float, int, int]:
    """One epoch over a fresh shuffle; returns (loss, correct, total).

    Raises :class:`_DivergenceError` on a non-finite minibatch loss or
    an out-of-bounds gradient norm — always *before* ``optimizer.step``
    so the last good parameters survive for rollback.  The checks only
    read, so a clean epoch is numerically identical to the unguarded
    loop.
    """
    order = rng.permutation(len(train_samples))
    epoch_loss = 0.0
    epoch_correct = 0
    epoch_total = 0
    for batch_start in range(0, len(order), config.batch_size):
        batch = order[batch_start : batch_start + config.batch_size]
        optimizer.zero_grad()
        # One forward/backward serves the whole minibatch.  Repacked
        # per batch, so the shuffled composition is respected every
        # epoch.
        packed = pack_samples([train_samples[i] for i in batch])
        logits = model.forward_packed(packed, training=True)
        losses, counts, grad = batched_cross_entropy(
            logits, packed.labels, packed.mask, packed.offsets[0], weights,
        )
        model.backward(grad / len(batch))
        batch_loss = float(losses @ counts)
        predictions = logits.argmax(axis=1)
        epoch_correct += int(
            ((predictions == packed.labels) & packed.mask).sum()
        )
        epoch_total += int(counts.sum())
        step = batch_start // config.batch_size
        if not np.isfinite(batch_loss):
            raise _DivergenceError(
                f"non-finite loss ({batch_loss!r}) in minibatch {step}"
            )
        if grad_limit is not None:
            norm = _grad_norm(optimizer.arena.grads)
            if not np.isfinite(norm) or norm > grad_limit:
                raise _DivergenceError(
                    f"gradient norm {norm:.4g} breaches the {grad_limit:g} "
                    f"limit in minibatch {step}"
                )
        optimizer.step()
        epoch_loss += batch_loss
    return epoch_loss, epoch_correct, epoch_total


def _capture(
    model: GCNModel,
    optimizer: Optimizer,
    rng: np.random.Generator,
    history: History,
    best_state: dict[str, np.ndarray] | None,
    epochs_since_best: int,
    retries_left: int,
    completed: int,
) -> TrainCheckpoint:
    """Snapshot the full loop state after ``completed`` epochs."""
    return TrainCheckpoint(
        epoch=completed,
        model_state=model.state_dict(),
        optimizer_state=optimizer.state_dict(),
        shuffle_rng=dict(rng.bit_generator.state),
        layer_rngs=tuple(model.rng_states()),
        train_loss=tuple(history.train_loss),
        train_accuracy=tuple(history.train_accuracy),
        val_accuracy=tuple(history.val_accuracy),
        best_epoch=history.best_epoch,
        epochs_since_best=epochs_since_best,
        best_state=best_state,
        rollbacks=history.rollbacks,
        degraded=history.degraded,
        checkpoint_seconds=history.checkpoint_seconds,
        retries_left=retries_left,
    )


def _restore_loop_state(
    model: GCNModel,
    optimizer: Optimizer,
    rng: np.random.Generator,
    checkpoint: TrainCheckpoint,
) -> None:
    """Restore the mutable loop state (weights, moments, RNG streams).

    Rewinding the RNGs matters for both recovery paths: a resumed run
    replays the uninterrupted run's shuffles and dropout masks bitwise,
    and a rolled-back epoch retries the *same* permutation with only
    the learning rate changed.
    """
    model.load_state_dict(checkpoint.model_state)
    model.set_rng_states(list(checkpoint.layer_rngs))
    optimizer.load_state_dict(checkpoint.optimizer_state)
    rng.bit_generator.state = checkpoint.shuffle_rng


def train(
    model: GCNModel,
    train_samples: list[GraphSample],
    val_samples: list[GraphSample] | None = None,
    config: TrainConfig | None = None,
    fault: FaultTolerance | None = None,
) -> History:
    """Train ``model`` in place; returns the training history.

    With ``val_samples`` and ``patience > 0``, the model is restored to
    its best-validation-epoch parameters before returning.

    ``fault`` configures checkpointing and divergence recovery (see
    :class:`FaultTolerance`); the default guards against divergence
    in memory without touching disk.
    """
    config = config or TrainConfig()
    fault = fault or FaultTolerance()
    if not train_samples:
        raise ModelConfigError("no training samples")
    if fault.checkpoint_every < 1:
        raise ModelConfigError(
            f"checkpoint_every must be >= 1, got {fault.checkpoint_every}"
        )
    optimizer = _make_optimizer(model, config)
    rng = seeded_rng(("train-shuffle", config.seed))
    weights = (
        class_weights(train_samples, model.config.n_classes)
        if config.balance_classes
        else None
    )

    history = History()
    best_state: dict[str, np.ndarray] | None = None
    epochs_since_best = 0
    retries_left = max(0, fault.max_divergence_retries)
    # Validation chunks are packed once and reused every epoch.
    val_packs = _eval_packs(val_samples) if val_samples is not None else []

    store = (
        CheckpointStore(fault.checkpoint_dir, keep=fault.keep)
        if fault.checkpoint_dir is not None
        else None
    )
    model_config = model.config.to_dict()
    epoch = 0
    if store is not None and fault.resume:
        resumed = store.load_latest(model_config, history.diagnostics)
        if resumed is not None:
            _restore_loop_state(model, optimizer, rng, resumed)
            history.train_loss = list(resumed.train_loss)
            history.train_accuracy = list(resumed.train_accuracy)
            history.val_accuracy = list(resumed.val_accuracy)
            history.best_epoch = resumed.best_epoch
            history.rollbacks = resumed.rollbacks
            history.degraded = resumed.degraded
            history.checkpoint_seconds = resumed.checkpoint_seconds
            history.resumed_from = resumed.epoch
            best_state = resumed.best_state
            epochs_since_best = resumed.epochs_since_best
            if resumed.retries_left is not None:
                retries_left = int(resumed.retries_left)
            epoch = resumed.epoch
            if config.verbose:
                print(f"resuming after {epoch} completed epoch(s)")

    start = time.perf_counter()
    # The rollback anchor: loop state at the last completed epoch (or
    # the pristine initialization).  Kept in memory so the divergence
    # guard works even without a checkpoint directory.
    last_good = _capture(
        model, optimizer, rng, history,
        best_state, epochs_since_best, retries_left, epoch,
    )

    while epoch < config.epochs:
        # A resumed run whose checkpoint already sits past the patience
        # window must not train further than the uninterrupted run did.
        if (
            val_samples is not None
            and config.patience
            and epochs_since_best >= config.patience
        ):
            break
        try:
            epoch_loss, epoch_correct, epoch_total = _run_epoch(
                model, optimizer, train_samples, config, rng,
                weights, fault.grad_limit,
            )
        except _DivergenceError as diverged:
            history.rollbacks += 1
            history.degraded = True
            if retries_left <= 0:
                diagnostic = Diagnostic(
                    severity=ERROR,
                    message=f"epoch {epoch} diverged: {diverged}",
                    card="train",
                    hint=(
                        "retry budget exhausted; lower the learning rate "
                        "or raise max_divergence_retries"
                    ),
                )
                history.diagnostics.append(diagnostic)
                raise TrainingDiverged(
                    f"training diverged at epoch {epoch} after "
                    f"{fault.max_divergence_retries} rollback retr"
                    f"{'y' if fault.max_divergence_retries == 1 else 'ies'}: "
                    f"{diverged}",
                    epoch=epoch,
                    rollbacks=history.rollbacks,
                ) from None
            retries_left -= 1
            _restore_loop_state(model, optimizer, rng, last_good)
            optimizer.lr *= fault.lr_backoff
            history.diagnostics.append(
                Diagnostic(
                    severity=WARNING,
                    message=f"epoch {epoch} diverged: {diverged}",
                    card="train",
                    hint=(
                        f"rolled back to epoch {last_good.epoch}; learning "
                        f"rate reduced to {optimizer.lr:g} "
                        f"({retries_left} retr"
                        f"{'y' if retries_left == 1 else 'ies'} left)"
                    ),
                )
            )
            continue
        optimizer.decay_lr(config.lr_decay)

        # Loss and accuracy share one denominator: the epoch's masked
        # vertex count.  A degenerate epoch (every vertex masked out)
        # reports a perfect accuracy and zero loss consistently.
        if epoch_total:
            train_acc = epoch_correct / epoch_total
            history.train_loss.append(epoch_loss / epoch_total)
        else:
            train_acc = 1.0
            history.train_loss.append(0.0)
        history.train_accuracy.append(train_acc)

        stopping = False
        if val_samples is not None:
            val_acc = _evaluate_packed(model, val_packs)
            history.val_accuracy.append(val_acc)
            if history.best_epoch < 0 or val_acc > history.val_accuracy[history.best_epoch]:
                history.best_epoch = epoch
                best_state = model.state_dict()
                epochs_since_best = 0
            else:
                epochs_since_best += 1
            if config.verbose:
                print(
                    f"epoch {epoch:3d}  loss {history.train_loss[-1]:.4f}  "
                    f"train {train_acc:.4f}  val {val_acc:.4f}"
                )
            stopping = bool(
                config.patience and epochs_since_best >= config.patience
            )
        elif config.verbose:
            print(
                f"epoch {epoch:3d}  loss {history.train_loss[-1]:.4f}  "
                f"train {train_acc:.4f}"
            )

        epoch += 1
        last_good = _capture(
            model, optimizer, rng, history,
            best_state, epochs_since_best, retries_left, epoch,
        )
        if store is not None and (
            epoch % fault.checkpoint_every == 0
            or stopping
            or epoch == config.epochs
        ):
            ckpt_start = time.perf_counter()
            store.save(last_good, model_config)
            history.checkpoint_seconds += time.perf_counter() - ckpt_start
        if stopping:
            break

    if best_state is not None:
        model.load_state_dict(best_state)
    history.seconds += time.perf_counter() - start
    return history


def _run_fold(payload) -> float:
    """Top-level cross-validation worker (must be picklable)."""
    model_config, train_config, fold_train, fold_val, fold = payload
    model = GCNModel(model_config.with_(seed=model_config.seed + fold))
    train(model, fold_train, fold_val, train_config)
    return evaluate(model, fold_val)


def cross_validate(
    model_config: GCNConfig,
    samples: list[GraphSample],
    folds: int = 5,
    train_config: TrainConfig | None = None,
    workers: int | None = None,
) -> list[float]:
    """K-fold cross validation; returns per-fold validation accuracies.

    The paper uses five-fold cross validation "to reduce the
    sensitivity to data partitioning" when picking the filter size.
    Folds train independent models from independent seeds, so they run
    concurrently on a process pool; the returned accuracies are always
    in fold order regardless of completion order.
    """
    from repro.gcn.samples import kfold_indices
    from repro.runtime.parallel import parallel_map

    train_config = train_config or TrainConfig()
    fold_indices = kfold_indices(len(samples), folds, seed=train_config.seed)
    jobs = []
    for fold, held_out in enumerate(fold_indices):
        held = set(held_out.tolist())
        fold_train = [s for i, s in enumerate(samples) if i not in held]
        fold_val = [s for i, s in enumerate(samples) if i in held]
        jobs.append((model_config, train_config, fold_train, fold_val, fold))
    return parallel_map(_run_fold, jobs, workers=workers, chunksize=1)
