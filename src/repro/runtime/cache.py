"""Content-addressed disk cache for trained recognition models.

``pretrain_annotator`` is deterministic: the trained weights are a pure
function of the model config, the training config, the dataset spec,
and the seed.  That makes the trained model safely cacheable by a
fingerprint of those inputs — the first ``GanaPipeline.pretrained()``
call in any process pays for training, every later one (including in
other processes) is a millisecond ``np.load``.

Layout: one ``<fingerprint>.npz`` per model under the cache directory
(default ``~/.cache/gana``, overridable via the ``GANA_CACHE_DIR``
environment variable).  Each file carries the full model state dict,
the model config, the class vocabulary, and a format-version stamp;
any mismatch, truncation, or unpickling error is treated as a cache
miss and falls back to retraining.  Writes are atomic (temp file +
``os.replace``) so a crashed or concurrent writer can never leave a
half-written entry behind.

Set ``GANA_NO_CACHE=1`` (or pass ``cache=False`` / ``--no-cache``) to
bypass the cache entirely.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import os
import pickle
import tempfile
import weakref
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, TypeVar

import numpy as np

from repro.exceptions import ArtifactError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.stages import Artifact

_T = TypeVar("_T")

#: Environment variable overriding the cache directory.
CACHE_DIR_ENV = "GANA_CACHE_DIR"
#: Environment variable disabling the cache ("1"/"true"/"yes").
NO_CACHE_ENV = "GANA_NO_CACHE"
#: Bumped whenever the model cache's on-disk format or training
#: semantics change; entries with a different version are stale and
#: ignored (artifact-cache entries carry ``ARTIFACT_FORMAT_VERSION``
#: instead, see :class:`ArtifactCache`).  Version 2:
#: batched minibatch training (block-diagonal packing) became the
#: default, which reorders float accumulation relative to v1 weights.
CACHE_FORMAT_VERSION = 2


def default_cache_dir() -> Path:
    """The active cache directory (``GANA_CACHE_DIR`` or ``~/.cache/gana``)."""
    env = os.environ.get(CACHE_DIR_ENV, "").strip()
    if env:
        return Path(env).expanduser()
    return Path.home() / ".cache" / "gana"


def cache_enabled() -> bool:
    """False when ``GANA_NO_CACHE`` asks to bypass the cache."""
    return os.environ.get(NO_CACHE_ENV, "").strip().lower() not in (
        "1",
        "true",
        "yes",
    )


def _canonical(obj: Any) -> Any:
    """JSON-encode dataclasses/tuples/sets so fingerprints are stable."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {"__dataclass__": type(obj).__name__, **dataclasses.asdict(obj)}
    if isinstance(obj, (set, frozenset)):
        return sorted(obj)
    if isinstance(obj, Path):
        return str(obj)
    raise TypeError(f"unfingerprintable object of type {type(obj).__name__}")


def fingerprint(spec: dict[str, Any]) -> str:
    """Deterministic hex digest of a training spec.

    ``spec`` may contain nested dataclasses (``GCNConfig``,
    ``TrainConfig``), tuples, and plain JSON scalars; key order never
    matters.
    """
    canon = json.dumps(spec, sort_keys=True, default=_canonical)
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:32]


def atomic_write(path: Path, write: Callable[[BinaryIO], None]) -> None:
    """Write ``path`` through a temp file in its directory + ``os.replace``.

    ``write(handle)`` fills the temp file.  A crashed or concurrent
    writer therefore never leaves a half-written ``path`` behind, and
    a failed write removes its temp file.  Errors propagate: each
    caller decides whether to swallow, log, or raise them.
    """
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name[:32]}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            write(handle)
        os.replace(tmp_name, path)
    except BaseException:
        try:
            os.unlink(tmp_name)
        except OSError:
            pass
        raise


class Memo:
    """In-process memo keyed by object *identity*, weakref-guarded.

    The disk cache above amortizes work across processes; this one
    amortizes derived, unpicklable structures across call sites inside
    one process — e.g. the per-template matching profiles of
    :mod:`repro.primitives.index`, computed once per library load and
    reused by every annotation call.  Keys are ``id(obj)`` with a
    weak reference confirming the object is still the same one (id
    values are recycled); entries die with their objects, so the memo
    can never pin memory or serve stale values.  Objects that do not
    support weak references are computed but not stored.
    """

    def __init__(self) -> None:
        self._entries: dict[int, tuple[weakref.ref, Any]] = {}

    def __len__(self) -> int:
        return len(self._entries)

    def get_or_build(self, obj: Any, builder: Callable[[Any], _T]) -> _T:
        key = id(obj)
        entry = self._entries.get(key)
        if entry is not None and entry[0]() is obj:
            return entry[1]
        value = builder(obj)
        try:
            ref = weakref.ref(
                obj, lambda _ref, key=key: self._entries.pop(key, None)
            )
        except TypeError:
            return value  # unweakrefable: still correct, just uncached
        self._entries[key] = (ref, value)
        return value

    def clear(self) -> None:
        self._entries.clear()


class ModelCache:
    """Load/store trained annotators keyed by training-spec fingerprint."""

    def __init__(self, directory: str | Path | None = None):
        self.directory = Path(directory) if directory else default_cache_dir()

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.npz"

    # -- store -----------------------------------------------------------

    def store(self, key: str, annotator) -> Path | None:
        """Atomically persist an annotator; returns the entry path.

        Failures (read-only filesystem, disk full) are swallowed — the
        cache is an accelerator, never a correctness dependency.
        """
        path = self.path_for(key)
        meta = {
            "format_version": CACHE_FORMAT_VERSION,
            "class_names": list(annotator.class_names),
            "config": annotator.model.config.to_dict(),
        }
        try:
            atomic_write(
                path,
                lambda handle: np.savez(
                    handle,
                    __meta__=np.array(json.dumps(meta)),
                    **annotator.model.state_dict(),
                ),
            )
        except OSError:
            return None
        return path

    # -- load ------------------------------------------------------------

    def load(self, key: str):
        """Return the cached :class:`GcnAnnotator` for ``key``, or None.

        Corrupted, truncated, stale-format, or otherwise unreadable
        entries are misses (the bad file is removed so the next store
        rewrites it cleanly).
        """
        from repro.core.annotator import GcnAnnotator
        from repro.gcn.model import GCNConfig, GCNModel

        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            with np.load(path) as data:
                meta = json.loads(str(data["__meta__"]))
                if meta.get("format_version") != CACHE_FORMAT_VERSION:
                    raise ValueError("stale cache format")
                config = GCNConfig.from_dict(meta["config"])
                state = {
                    k: data[k] for k in data.files if k != "__meta__"
                }
            model = GCNModel(config)
            model.load_state_dict(state)
            return GcnAnnotator(
                model=model, class_names=tuple(meta["class_names"])
            )
        except Exception:
            try:
                path.unlink()
            except OSError:
                pass
            return None

    # -- partial-train resume --------------------------------------------

    def checkpoint_dir_for(self, key: str) -> Path:
        """Epoch-checkpoint directory for the training run behind ``key``.

        ``pretrain_annotator`` checkpoints an in-flight training run
        here (one subdirectory per training fingerprint, so unrelated
        specs never read each other's envelopes) and removes the
        directory once the finished model lands in the cache proper —
        a killed pretraining resumes instead of starting over.
        """
        return self.directory / "checkpoints" / key

    # -- maintenance -----------------------------------------------------

    def entries(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.npz"))

    def clear(self) -> int:
        """Delete every cache entry (and any in-flight training
        checkpoints); returns the number of entries removed."""
        removed = 0
        for path in self.entries():
            try:
                path.unlink()
                removed += 1
            except OSError:
                pass
        checkpoints = self.directory / "checkpoints"
        if checkpoints.is_dir():
            import shutil

            shutil.rmtree(checkpoints, ignore_errors=True)
        return removed


class ArtifactCache:
    """Content-addressed store of pipeline stage artifacts.

    The staged runner (:mod:`repro.core.stages`) keys every stage's
    :class:`~repro.core.stages.Artifact` by its derivation fingerprint
    — a hash chain over the input netlist and each stage's
    configuration — so an unchanged fingerprint is a cache hit and the
    stage never re-runs.  An entry is the file
    :meth:`~repro.core.stages.Artifact.save` writes, with the key as
    its fingerprint: one format and one version check
    (``ARTIFACT_FORMAT_VERSION``) for cached and saved artifacts, and
    every entry loads with :func:`~repro.core.stages.load_artifacts`.
    Same contract as :class:`ModelCache`: writes are atomic (temp file
    + ``os.replace``), any read problem is a miss (the bad entry is
    removed), and a failing write is swallowed — the cache
    accelerates, it is never a correctness dependency.

    Layout: one ``<key>.pkl`` per entry under ``directory`` (default
    ``<cache dir>/artifacts``).
    """

    def __init__(self, directory: str | Path | None = None):
        self.directory = (
            Path(directory) if directory else default_cache_dir() / "artifacts"
        )

    def path_for(self, key: str) -> Path:
        return self.directory / f"{key}.pkl"

    def store(self, key: str, artifact: "Artifact") -> Path | None:
        """Atomically save ``artifact`` under ``key``; None on failure.

        The entry carries ``key`` as its fingerprint; the caller's
        artifact is left as it was.
        """
        if artifact.fingerprint != key:
            artifact = copy.copy(artifact)
            artifact.fingerprint = key
        try:
            return artifact.save(self.path_for(key))
        except (OSError, pickle.PicklingError):
            return None

    def load(self, key: str) -> "Artifact | None":
        """The artifact saved under ``key``, or None on any problem (a
        stale format version, another key, not an artifact)."""
        from repro.core.stages import Artifact

        path = self.path_for(key)
        if not path.exists():
            return None
        try:
            artifact = Artifact.load(path)
            if artifact.fingerprint == key:
                return artifact
        except ArtifactError:
            pass
        try:
            path.unlink()
        except OSError:
            pass
        return None

    def entries(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(self.directory.glob("*.pkl"))
