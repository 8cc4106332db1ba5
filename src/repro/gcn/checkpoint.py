"""Versioned, atomically written training checkpoints.

Training runs are the longest-lived jobs in the flow, so ``train()``
persists one envelope per completed epoch: the model state dict, the
optimizer state (flat-vector Adam moments or SGD velocities), every RNG
stream the epoch loop consumes (the shuffle generator and each dropout
layer's generator), the History curves, and the best-epoch bookkeeping.
Restoring an envelope therefore resumes a killed run *bitwise*: the
remaining epochs see the same permutations, dropout masks, and weights
the uninterrupted run would have, so curves and best-epoch selection
are identical (golden-tested in ``tests/gcn/test_checkpoint.py``).

Envelope layout — one ``epoch-NNNNN.ckpt.npz`` per checkpoint:

* ``__meta__`` — JSON header: format version, the producing model
  config, scalar history/bookkeeping fields, RNG states, and the
  optimizer's scalar state.
* ``model.<name>`` / ``best.<name>`` — current and best-epoch weight
  arrays (state-dict keys).
* ``opt.<name>`` — the optimizer's array state.

Same disk contract as :mod:`repro.runtime.cache`: writes go through
:func:`~repro.runtime.cache.atomic_write` so a crash mid-write can never
leave a half-written envelope where the next run will trip over it, and
*any* read problem — truncation, garbage bytes, a stale format version
— is a structured miss (a :class:`~repro.runtime.resilience.Diagnostic`
naming the path) that falls back to the next-older checkpoint or fresh
training, never a raw traceback.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Any

import numpy as np

from repro.runtime.cache import atomic_write
from repro.runtime.resilience import WARNING, Diagnostic

#: Bumped whenever the envelope layout changes; older envelopes are
#: structured misses, never best-effort parses.
CHECKPOINT_FORMAT_VERSION = 1

_LOG = logging.getLogger(__name__)


@dataclass
class TrainCheckpoint:
    """Everything needed to resume ``train()`` after ``epoch`` epochs.

    ``epoch`` counts *completed* epochs: an envelope with ``epoch=5``
    restores the state the loop held just before starting epoch index 5.
    """

    epoch: int
    model_state: dict[str, np.ndarray]
    optimizer_state: dict[str, Any]
    shuffle_rng: dict  # np.random.Generator.bit_generator.state
    layer_rngs: tuple[dict, ...]  # per-Dropout streams, layer order
    train_loss: tuple[float, ...]
    train_accuracy: tuple[float, ...]
    val_accuracy: tuple[float, ...]
    best_epoch: int = -1
    epochs_since_best: int = 0
    best_state: dict[str, np.ndarray] | None = None
    rollbacks: int = 0
    degraded: bool = False
    checkpoint_seconds: float = 0.0
    retries_left: int | None = None


class CheckpointStore:
    """Epoch-checkpoint directory with atomic writes and pruning.

    One store owns one directory; callers key directories by what the
    run trains (e.g. the training fingerprint — see
    ``ModelCache.checkpoint_dir_for``) so unrelated runs never read
    each other's envelopes.  ``keep`` bounds the directory to the
    newest N envelopes.
    """

    def __init__(self, directory: str | Path, keep: int = 3):
        self.directory = Path(directory)
        self.keep = max(1, int(keep))

    def path_for(self, epoch: int) -> Path:
        return self.directory / f"epoch-{epoch:05d}.ckpt.npz"

    def paths(self) -> list[Path]:
        """Existing envelope paths, oldest first."""
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("epoch-*.ckpt.npz"))

    # -- store -----------------------------------------------------------

    def save(
        self, checkpoint: TrainCheckpoint, model_config: dict[str, Any]
    ) -> Path | None:
        """Atomically persist an envelope; returns its path.

        Write failures (read-only filesystem, disk full) are logged and
        swallowed — checkpointing accelerates recovery, it is never a
        correctness dependency of the run itself.
        """
        path = self.path_for(checkpoint.epoch)
        meta = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "model_config": model_config,
            "epoch": checkpoint.epoch,
            "train_loss": list(checkpoint.train_loss),
            "train_accuracy": list(checkpoint.train_accuracy),
            "val_accuracy": list(checkpoint.val_accuracy),
            "best_epoch": checkpoint.best_epoch,
            "epochs_since_best": checkpoint.epochs_since_best,
            "has_best": checkpoint.best_state is not None,
            "rollbacks": checkpoint.rollbacks,
            "degraded": checkpoint.degraded,
            "checkpoint_seconds": checkpoint.checkpoint_seconds,
            "retries_left": checkpoint.retries_left,
            "shuffle_rng": checkpoint.shuffle_rng,
            "layer_rngs": list(checkpoint.layer_rngs),
            "optimizer": {
                k: v
                for k, v in checkpoint.optimizer_state.items()
                if not isinstance(v, np.ndarray)
            },
        }
        arrays: dict[str, np.ndarray] = {}
        for key, value in checkpoint.model_state.items():
            arrays[f"model.{key}"] = value
        if checkpoint.best_state is not None:
            for key, value in checkpoint.best_state.items():
                arrays[f"best.{key}"] = value
        for key, value in checkpoint.optimizer_state.items():
            if isinstance(value, np.ndarray):
                arrays[f"opt.{key}"] = value
        try:
            atomic_write(
                path,
                lambda handle: np.savez(
                    handle, __meta__=np.array(json.dumps(meta)), **arrays
                ),
            )
        except OSError as exc:
            _LOG.warning("could not write checkpoint %s: %s", path, exc)
            return None
        self._prune()
        return path

    def _prune(self) -> None:
        for stale in self.paths()[: -self.keep]:
            try:
                stale.unlink()
            except OSError:
                pass

    # -- load ------------------------------------------------------------

    def load(
        self,
        path: Path,
        model_config: dict[str, Any],
        diagnostics: list[Diagnostic] | None = None,
    ) -> TrainCheckpoint | None:
        """Parse one envelope; None (plus a Diagnostic) on any problem.

        Unreadable envelopes — truncated, garbage, wrong format version
        — are removed so the run never trips over them again.  An
        envelope written by a *different model config* is left in place
        (the caller is probably pointing at the wrong directory) but is
        still a miss.
        """
        try:
            with np.load(path) as data:
                meta = json.loads(str(data["__meta__"]))
                version = meta.get("format_version")
                if version != CHECKPOINT_FORMAT_VERSION:
                    raise ValueError(
                        f"format version {version!r}, expected "
                        f"{CHECKPOINT_FORMAT_VERSION}"
                    )
                stored_config = meta["model_config"]
                model_state = {}
                best_state = {}
                optimizer_state: dict[str, Any] = dict(meta["optimizer"])
                for name in data.files:
                    if name.startswith("model."):
                        model_state[name[len("model.") :]] = data[name]
                    elif name.startswith("best."):
                        best_state[name[len("best.") :]] = data[name]
                    elif name.startswith("opt."):
                        optimizer_state[name[len("opt.") :]] = data[name]
                if meta["has_best"] != bool(best_state):
                    raise ValueError("best-epoch arrays missing from envelope")
        except Exception as exc:
            self._reject(
                path,
                f"unreadable checkpoint ({type(exc).__name__}: {exc})",
                diagnostics,
                remove=True,
            )
            return None
        if stored_config != model_config:
            self._reject(
                path,
                "checkpoint was written by a different model config",
                diagnostics,
                remove=False,
            )
            return None
        return TrainCheckpoint(
            epoch=int(meta["epoch"]),
            model_state=model_state,
            optimizer_state=optimizer_state,
            shuffle_rng=meta["shuffle_rng"],
            layer_rngs=tuple(meta["layer_rngs"]),
            train_loss=tuple(meta["train_loss"]),
            train_accuracy=tuple(meta["train_accuracy"]),
            val_accuracy=tuple(meta["val_accuracy"]),
            best_epoch=int(meta["best_epoch"]),
            epochs_since_best=int(meta["epochs_since_best"]),
            best_state=best_state or None,
            rollbacks=int(meta["rollbacks"]),
            degraded=bool(meta["degraded"]),
            checkpoint_seconds=float(meta["checkpoint_seconds"]),
            retries_left=meta["retries_left"],
        )

    def load_latest(
        self,
        model_config: dict[str, Any],
        diagnostics: list[Diagnostic] | None = None,
    ) -> TrainCheckpoint | None:
        """Newest loadable envelope, walking backwards past bad ones."""
        for path in reversed(self.paths()):
            checkpoint = self.load(path, model_config, diagnostics)
            if checkpoint is not None:
                return checkpoint
        return None

    def _reject(
        self,
        path: Path,
        reason: str,
        diagnostics: list[Diagnostic] | None,
        remove: bool,
    ) -> None:
        hint = (
            f"ignoring {path}; training falls back to an older "
            f"checkpoint or starts fresh"
        )
        diagnostic = Diagnostic(
            severity=WARNING, message=reason, card="checkpoint", hint=hint
        )
        if diagnostics is not None:
            diagnostics.append(diagnostic)
        _LOG.warning(diagnostic.format())
        if remove:
            try:
                path.unlink()
            except OSError:
                pass

    # -- maintenance -----------------------------------------------------

    def clear(self) -> int:
        """Delete every envelope; returns the number removed."""
        removed = 0
        for path in self.paths():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        return removed
