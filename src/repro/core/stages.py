"""Staged pipeline architecture: canonical stage names, one run record,
and a resumable, incrementally-cached runner.

The paper's flow (Sec. II-B) is a linear chain —

    parse → preprocess → graph → gcn → post1 → post2 → hierarchy

— and this module makes each link a first-class, independently
cacheable step instead of one inline monolith:

* :class:`StageName` — THE canonical stage vocabulary.  Timing keys,
  ``resilience.stage()`` failure tags, and profile stage keys all
  derive from it (no more three ad-hoc string sets).
* :class:`Artifact` — the one picklable run record.  It holds its
  ``stage`` tag, the cumulative diagnostics, and every product of the
  chain so far (each product is ``None`` until its stage runs), so any
  single artifact is a self-sufficient resume point.
* :func:`content_fingerprint` — a canonical recursive hasher over
  dataclasses / dicts / numpy arrays (pickle bytes are *not*
  content-stable, so fingerprints get their own encoder).
* :class:`Stage` — the stage protocol: read the upstream artifact,
  return a dict of only the products this stage made, and derive a
  cache key from the upstream *fingerprint* plus the stage's own
  configuration.
* :class:`StagedRunner` — executes a stage chain with
  derivation-fingerprint caching (unchanged fingerprint ⇒ cache hit),
  ``stop_after``/``resume`` support, and per-stage save-to-disk; it
  builds each stage's artifact from the upstream one, the stage's
  products and the diagnostics snapshot, and assembles every run's
  profile from what the run recorded.

Fingerprints chain: every stage's key is a hash of the upstream key
and the stage's config fingerprint, never of artifact *contents*.  A
fully-warm run therefore probes keys as pure string hashing and
deserializes exactly one artifact (the furthest hit); a run where only
the primitive library changed reuses parse/preprocess/graph/gcn
artifacts and recomputes from Postprocessing I, which matches exactly
as a run without a cache does: no per-CCC match result outlives a run
(the library's shape table keeps only name-free searches, which every
run reads alike).

Concrete stage implementations live in :mod:`repro.core.pipeline`
(which owns the pipeline configuration they close over); this module
is deliberately importable from anywhere below ``core`` without
cycles.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import pickle
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterable, Protocol, runtime_checkable

import numpy as np

from repro.exceptions import ArtifactError
from repro.graph.bipartite import CircuitGraph
from repro.graph.ccc import CCCPartition
from repro.primitives.matcher import MatchStats
from repro.runtime.cache import ArtifactCache, Memo, atomic_write
from repro.runtime.resilience import Diagnostic
from repro.runtime.resilience import stage as stage_guard
from repro.spice.netlist import Circuit, Netlist, reset_power_net_memo
from repro.spice.preprocess import PreprocessReport

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.annotator import Annotation, GcnAnnotator
    from repro.core.constraints import ConstraintSet
    from repro.core.hierarchy import HierarchyNode
    from repro.core.postprocess import PostprocessResult
    from repro.graph.features import NetRole
    from repro.spice.flatten import DesignTree


# ---------------------------------------------------------------------------
# The canonical stage vocabulary
# ---------------------------------------------------------------------------


class StageName(enum.Enum):
    """The seven steps of the GANA flow, in execution order.

    This enum is the single source of truth for stage names: timing
    dicts, failure tags, profile stages, CLI ``--stop-after`` values,
    and artifact filenames all use ``StageName.*.value``.
    """

    PARSE = "parse"
    PREPROCESS = "preprocess"
    GRAPH = "graph"
    GCN = "gcn"
    POST1 = "post1"
    POST2 = "post2"
    HIERARCHY = "hierarchy"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


#: All stages, in execution order.
STAGE_ORDER: tuple[StageName, ...] = tuple(StageName)

#: The keys of ``PipelineResult.timings``: one per stage.
TIMING_STAGES: tuple[str, ...] = tuple(s.value for s in STAGE_ORDER)


def coerce_stage(value: "StageName | str") -> StageName:
    """Normalize a stage given as enum member or name string."""
    if isinstance(value, StageName):
        return value
    try:
        return StageName(str(value).strip().lower())
    except ValueError:
        known = ", ".join(s.value for s in STAGE_ORDER)
        raise ValueError(
            f"unknown pipeline stage {value!r}; expected one of: {known}"
        ) from None


# ---------------------------------------------------------------------------
# Content fingerprints
# ---------------------------------------------------------------------------

#: Bumped whenever the fingerprint encoding changes; every digest is
#: seeded with it so old cache entries can never collide with new ones.
FINGERPRINT_VERSION = 1

_FP_SEED = f"gana-fp-v{FINGERPRINT_VERSION}".encode()


def content_fingerprint(*parts: Any) -> str:
    """Stable hex digest of arbitrarily nested plain data.

    Handles the vocabulary artifacts are made of: scalars, strings,
    bytes, tuples/lists, sets, dicts (order-insensitive), enums, numpy
    arrays (dtype + shape + buffer), paths, and dataclasses (walked
    field by field, so non-field caches like
    ``CircuitGraph._edge_arrays`` never leak in).  Pickle bytes are not
    content-stable (memoization depends on object identity), hence this
    dedicated encoder.  Unsupported types raise ``TypeError`` rather
    than silently fingerprinting their ``repr``.
    """
    return _fingerprint(parts, None)


def _fingerprint(parts: tuple, graphs: dict | None) -> str:
    digest = hashlib.sha256(_FP_SEED)
    for part in parts:
        _hash_into(digest, part, graphs)
    return digest.hexdigest()[:32]


def _hash_into(h, obj: Any, graphs: dict | None = None) -> None:
    """Feed ``obj``'s encoding to ``h``.  With a ``graphs`` memo, each
    distinct :class:`CircuitGraph` is walked once and its recorded
    bytes replayed wherever it recurs: the digest is the same as
    without the memo."""
    if obj is None:
        h.update(b"N;")
    elif isinstance(obj, bool):
        h.update(b"B1;" if obj else b"B0;")
    elif isinstance(obj, (int, np.integer)):
        h.update(b"I%d;" % int(obj))
    elif isinstance(obj, (float, np.floating)):
        h.update(b"F" + repr(float(obj)).encode() + b";")
    elif isinstance(obj, str):
        raw = obj.encode("utf-8")
        h.update(b"S%d:" % len(raw))
        h.update(raw)
    elif isinstance(obj, bytes):
        h.update(b"Y%d:" % len(obj))
        h.update(obj)
    elif isinstance(obj, enum.Enum):
        h.update(b"E" + type(obj).__name__.encode() + b".")
        _hash_into(h, obj.name)
    elif isinstance(obj, np.ndarray):
        arr = np.ascontiguousarray(obj)
        header = f"A{arr.dtype.str}|{','.join(map(str, arr.shape))}:"
        h.update(header.encode())
        h.update(arr.tobytes())
    elif isinstance(obj, (tuple, list)):
        h.update(b"T(" if isinstance(obj, tuple) else b"L(")
        for item in obj:
            _hash_into(h, item, graphs)
        h.update(b")")
    elif isinstance(obj, (set, frozenset)):
        h.update(b"Z(")
        for digest in sorted(_item_digest((item,), graphs) for item in obj):
            h.update(digest)
        h.update(b")")
    elif isinstance(obj, dict):
        h.update(b"D(")
        for digest in sorted(
            _item_digest((key, value), graphs) for key, value in obj.items()
        ):
            h.update(digest)
        h.update(b")")
    elif isinstance(obj, Path):
        h.update(b"P")
        _hash_into(h, str(obj))
    elif graphs is not None and isinstance(obj, CircuitGraph):
        entry = graphs.get(id(obj))
        if entry is None:
            recorder = _Recorder()
            _hash_fields(recorder, obj, graphs)
            # The entry holds the graph, so its id cannot be recycled.
            entry = graphs[id(obj)] = (obj, bytes(recorder.buffer))
        h.update(entry[1])
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        _hash_fields(h, obj, graphs)
    else:
        raise TypeError(
            f"cannot fingerprint object of type {type(obj).__name__}"
        )


def _hash_fields(h, obj: Any, graphs: dict | None) -> None:
    """A dataclass's encoding: its type, then each field by name."""
    h.update(b"C" + type(obj).__qualname__.encode() + b"(")
    for f in dataclasses.fields(obj):
        _hash_into(h, f.name)
        _hash_into(h, getattr(obj, f.name), graphs)
    h.update(b")")


class _Recorder:
    """Stands in for a hash object and keeps the bytes fed to it, in
    one buffer (a list of the many small chunks would weigh several
    times their bytes)."""

    def __init__(self) -> None:
        self.buffer = bytearray()

    def update(self, data: bytes) -> None:
        self.buffer += data


def _item_digest(parts: tuple, graphs: dict | None) -> bytes:
    h = hashlib.sha256()
    for part in parts:
        _hash_into(h, part, graphs)
    return h.digest()


_ANNOTATOR_FP_MEMO = Memo()


def annotator_fingerprint(annotator: "GcnAnnotator") -> str:
    """Fingerprint of a trained annotator: config, vocabulary, weights.

    Memoized per annotator object (weights are assumed frozen after
    training, which every construction path in this package guarantees).
    """
    return _ANNOTATOR_FP_MEMO.get_or_build(
        annotator,
        lambda a: content_fingerprint(
            "annotator",
            tuple(a.class_names),
            a.model.config,
            dict(a.model.state_dict()),
        ),
    )


# ---------------------------------------------------------------------------
# Artifacts
# ---------------------------------------------------------------------------

#: Bumped when any artifact's schema changes; saved artifacts and
#: artifact-cache entries share one envelope, so after a bump the
#: former refuse to load and the latter miss (and are removed).
#: Version 2: artifacts grew the hierarchy-scoped annotation fields
#: (``tree``/``hier``) — version-1 pickles predate them.
#: Version 3: the seven per-stage classes became one :class:`Artifact`.
#: Version 4: ``hier`` became the four-count :class:`HierReport`.
#: Version 5: graph edges pickle as named tuples
#: (:class:`~repro.graph.bipartite.Edge`).
#: Version 6: the graph stage's CCC ``partition`` joined the record,
#: and cache entries became this envelope (earlier ones were the
#: cache's own payload, which ignored this version).
ARTIFACT_FORMAT_VERSION = 6

#: File suffix used by :meth:`Artifact.save` / :func:`load_artifacts`.
ARTIFACT_SUFFIX = ".artifact.pkl"


@dataclass
class HierReport:
    """What a hier run (``run(hier=True)``) knows beyond the flat run.

    Postprocessing I is the flat run's either way; the report holds the
    :class:`~repro.spice.flatten.DesignTree`'s ``n_definitions``,
    ``n_instances`` and ``n_unique_groups`` (distinct (definition,
    multiplier) pairs), and ``reused``: the CCCs answered from the
    library's shape table (the run's ``ccc_shared`` counter), whose
    shape an earlier CCC of this run, or of an earlier run with the
    same library, had already searched.  That is how a repeated
    instance's interior is matched from one search; on a warm library
    every CCC of an already-seen shape counts.
    """

    n_definitions: int = 0
    n_instances: int = 0
    n_unique_groups: int = 0
    reused: int = 0

    @property
    def replayed(self) -> int:
        """``reused``, under the name older readers of the report use."""
        return self.reused

    @property
    def guard_failures(self) -> int:
        """Always 0: every CCC names its own matches, so there is no
        rename guard to fail."""
        return 0

    def as_dict(self) -> dict[str, int]:
        return dataclasses.asdict(self)


@dataclass
class Artifact:
    """The run record after ``stage``: every product of the chain so far.

    A stage returns only what it produced; the runner builds the next
    artifact from the upstream one, those products and the diagnostics
    snapshot, so each product below is ``None`` until its stage runs
    and is carried forward unchanged after that.

    ``fingerprint`` is the *derivation* fingerprint — the cache key the
    runner computed for the stage that produced this artifact — when
    the run was cached; otherwise it is filled lazily with the content
    fingerprint at save time.  Either way a saved artifact always
    carries a non-empty fingerprint, and
    :meth:`content_fingerprint` recomputes the content digest on demand
    (the round-trip tests assert save/load preserves it exactly).
    """

    stage: StageName
    #: Cumulative diagnostics through ``stage``.
    diagnostics: tuple[Diagnostic, ...] = ()
    # parse: the deck as parsed (or the object passed through).
    source: "Netlist | Circuit | None" = None
    mode: str | None = None
    # preprocess: flattened and reduced circuit plus testbench
    # inference results (the resolved port labels / net roles).
    flat: Circuit | None = None
    reduced: Circuit | None = None
    report: PreprocessReport | None = None
    design_name: str | None = None
    port_labels: dict[str, str] | None = None
    net_roles: "dict[str, NetRole] | None" = None
    #: Hierarchy sidecar (``--hier`` runs only; None on the flat path).
    tree: "DesignTree | None" = None
    # graph: the bipartite element/net graph and its channel-connected
    # components (which Postprocessing I votes over).
    graph: CircuitGraph | None = None
    partition: CCCPartition | None = None
    # gcn: per-vertex class annotation (possibly the degraded
    # template-library fallback).
    gcn_annotation: "Annotation | None" = None
    degraded: bool | None = None
    degraded_reason: str | None = None
    # post1: CCC vote + primitive matching.
    post1: "PostprocessResult | None" = None
    #: Hierarchy report (``--hier`` runs of decks with instances only).
    hier: HierReport | None = None
    # post2: port rules applied.
    post2: "PostprocessResult | None" = None
    # hierarchy: the hierarchy tree + propagated constraints.
    hierarchy: "HierarchyNode | None" = None
    constraints: "ConstraintSet | None" = None
    fingerprint: str = field(default="", init=False, repr=False, compare=False)

    def content_fingerprint(self) -> str:
        """Canonical digest of every field of this artifact except
        ``fingerprint``."""
        return content_fingerprint(
            "artifact",
            *(getattr(self, f.name) for f in dataclasses.fields(self) if f.compare),
        )

    def save(self, path: str | Path) -> Path:
        """Atomically pickle this artifact in the versioned envelope
        (the format of saved artifacts and artifact-cache entries)."""
        path = Path(path)
        if not self.fingerprint:
            self.fingerprint = self.content_fingerprint()
        envelope = {"format_version": ARTIFACT_FORMAT_VERSION, "artifact": self}
        atomic_write(
            path,
            lambda handle: pickle.dump(
                envelope, handle, protocol=pickle.HIGHEST_PROTOCOL
            ),
        )
        return path

    @staticmethod
    def load(path: str | Path) -> "Artifact":
        """Load a saved artifact; validates envelope, version, and stage."""
        path = Path(path)
        try:
            with open(path, "rb") as handle:
                envelope = pickle.load(handle)
        except FileNotFoundError:
            raise ArtifactError(f"no artifact at {path}") from None
        except Exception as exc:
            raise ArtifactError(f"unreadable artifact {path}: {exc}") from exc
        if (
            not isinstance(envelope, dict)
            or envelope.get("format_version") != ARTIFACT_FORMAT_VERSION
        ):
            raise ArtifactError(
                f"{path}: not a version-{ARTIFACT_FORMAT_VERSION} artifact"
            )
        artifact = envelope.get("artifact")
        if not isinstance(artifact, Artifact) or not isinstance(
            artifact.stage, StageName
        ):
            raise ArtifactError(f"{path}: envelope holds no artifact")
        return artifact

    def describe(self) -> str:
        """One-line rendering for CLI output."""
        fp = self.fingerprint or self.content_fingerprint()
        return f"{self.stage.value} [{fp}]"


def load_artifacts(path: str | Path) -> list[Artifact]:
    """Load one artifact file, or every ``*.artifact.pkl`` in a directory."""
    path = Path(path)
    if path.is_dir():
        artifacts = [
            Artifact.load(entry)
            for entry in sorted(path.glob(f"*{ARTIFACT_SUFFIX}"))
        ]
        if not artifacts:
            raise ArtifactError(f"no *{ARTIFACT_SUFFIX} files in {path}")
        return artifacts
    return [Artifact.load(path)]


# ---------------------------------------------------------------------------
# The Stage protocol and run context
# ---------------------------------------------------------------------------


@runtime_checkable
class Stage(Protocol):
    """One pipeline step: upstream artifact in, this stage's products out.

    ``run`` returns a dict of only the :class:`Artifact` fields the
    stage produced; the runner carries everything else forward.
    ``cache_key`` derives the stage's cache key from the *upstream
    fingerprint* plus the stage's own configuration — never from
    artifact contents — so the whole key chain is computable without
    deserializing anything.  A ``None`` key marks the stage (and, by
    chaining, everything downstream) uncacheable.
    """

    name: StageName

    def cache_key(self, upstream_fp: str | None, ctx: "RunContext") -> str | None:
        ...  # pragma: no cover - protocol

    def run(self, upstream: "Artifact | None", ctx: "RunContext") -> dict[str, Any]:
        ...  # pragma: no cover - protocol


@dataclass
class RunContext:
    """Mutable per-run state shared by every stage of one execution.

    ``diagnostics`` is the live list the resilience guards close over;
    the runner re-synchronizes it from artifact snapshots on cache hits
    and resume, and stages append to it while running.
    """

    pipeline: Any = None  # the GanaPipeline (duck-typed; no import cycle)
    netlist: "str | Netlist | Circuit | None" = None
    net_roles: "dict[str, NetRole] | None" = None
    port_labels: dict[str, str] | None = None
    name: str = ""
    infer_testbench: bool = True
    mode: str = "strict"
    cache: ArtifactCache | None = None
    save_dir: Path | None = None
    #: Precomputed GCN annotation (batched inference): when set, the
    #: gcn stage adopts it instead of calling the annotator, so packed
    #: multi-deck forwards slot into the ordinary stage chain.
    gcn_annotation: "Annotation | None" = None
    #: Hierarchy-scoped annotation (``--hier``): flattening also
    #: records the DesignTree, and post1 reports on it.
    hier: bool = False
    #: Build the hierarchy tree from the instance table (implies the
    #: tree *shape* deviates from the flat path; opt-in).
    hier_tree: bool = False
    diagnostics: list[Diagnostic] = field(default_factory=list)
    artifacts: dict[StageName, Artifact] = field(default_factory=dict)
    stage_seconds: dict[StageName, float] = field(default_factory=dict)
    cache_hits: list[StageName] = field(default_factory=list)
    #: Postprocessing I's per-template matching statistics.
    match_stats: MatchStats = field(default_factory=MatchStats)


@dataclass
class StagedRun:
    """Outcome of one :meth:`StagedRunner.execute` call."""

    artifacts: dict[StageName, Artifact]
    stage_seconds: dict[StageName, float]
    cache_hits: tuple[StageName, ...]
    diagnostics: list[Diagnostic]
    #: The run's profile (see :func:`run_profile`).
    profile: dict[str, Any]
    saved: dict[StageName, Path] = field(default_factory=dict)

    @property
    def complete(self) -> bool:
        """True when the chain ran through the hierarchy stage."""
        return StageName.HIERARCHY in self.artifacts

    @property
    def final(self) -> Artifact:
        """The finished design; raises if the run stopped early."""
        artifact = self.artifacts.get(StageName.HIERARCHY)
        if artifact is None:
            done = ", ".join(s.value for s in self.artifacts)
            raise ArtifactError(
                f"run is incomplete (stages done: {done or 'none'})"
            )
        return artifact

    def last_artifact(self) -> Artifact:
        """The furthest artifact the run produced."""
        for name in reversed(STAGE_ORDER):
            artifact = self.artifacts.get(name)
            if artifact is not None:
                return artifact
        raise ArtifactError("run produced no artifacts")

    def timings(self) -> dict[str, float]:
        """Seconds per stage, keyed by stage name (0.0 for stages
        loaded from the cache or seeded by ``resume``, unless the run's
        context came with seconds for them)."""
        return {name.value: s for name, s in self.stage_seconds.items()}


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


@dataclass
class StagedRunner:
    """Executes a stage chain with caching, resume, and early stop.

    Execution plan, in order:

    1. seed ``resume`` artifacts; the chain restarts after the furthest
       one (earlier stages are never run);
    2. compute the derivation-fingerprint key chain (pure string
       hashing — no artifact is touched);
    3. probe the cache from the far end: the furthest stage whose key
       is present yields ONE artifact to deserialize, and every stage
       upstream of it is a hit that is never even loaded (with a
       ``save_dir`` the probe loads each earlier hit too, so all
       artifacts land on disk);
    4. run the remaining stages under ``resilience.stage`` guards,
       storing each fresh artifact back to the cache.

    A stage adds its seconds to any already in ``ctx.stage_seconds``,
    so a caller can seed seconds spent on the run elsewhere.

    Escaping exceptions carry the failure stage, pre-failure
    diagnostics, and the partial profile (``_gana_profile``) so
    ``failure_report`` keeps them across the batch pool.
    """

    stages: tuple[Stage, ...]

    def execute(
        self,
        ctx: RunContext,
        resume: Iterable[Artifact] = (),
        stop_after: "StageName | str | None" = None,
    ) -> StagedRun:
        # A fresh run must never see rail-role answers memoized under a
        # previous deck's (possibly monkeypatched) net-name conventions.
        reset_power_net_memo()

        order = [impl.name for impl in self.stages]
        end = len(order) - 1
        if stop_after is not None:
            stop = coerce_stage(stop_after)
            if stop not in order:
                raise ValueError(
                    f"stage {stop.value!r} is not part of this chain"
                )
            end = order.index(stop)

        for artifact in resume or ():
            if not isinstance(artifact, Artifact):
                raise TypeError(
                    f"resume expects Artifact instances, "
                    f"got {type(artifact).__name__}"
                )
            ctx.artifacts[artifact.stage] = artifact

        keys = self._key_chain(ctx)

        start = 0
        prev: Artifact | None = None
        for i, impl in enumerate(self.stages):
            seeded = ctx.artifacts.get(impl.name)
            if seeded is not None and i <= end:
                start = i + 1
                prev = seeded
        if prev is not None:
            ctx.diagnostics[:] = list(prev.diagnostics)
        # Stages skipped via seeded artifacts cost nothing but still
        # appear in the timing dict, so every run reports each stage.
        for impl in self.stages[:start]:
            ctx.stage_seconds.setdefault(impl.name, 0.0)

        if ctx.cache is not None:
            hit = self._probe_backwards(ctx, keys, start, end)
            if hit is not None:
                start, prev = hit

        try:
            for i in range(start, end + 1):
                impl = self.stages[i]
                name = impl.name
                started = time.perf_counter()
                with stage_guard(name, ctx.diagnostics):
                    produced = impl.run(prev, ctx)
                artifact = dataclasses.replace(
                    prev if prev is not None else Artifact(stage=name),
                    stage=name,
                    diagnostics=tuple(ctx.diagnostics),
                    **produced,
                )
                key = keys.get(name)
                if key is not None:
                    artifact.fingerprint = key
                    if ctx.cache is not None:
                        ctx.cache.store(key, artifact)
                ctx.stage_seconds[name] = ctx.stage_seconds.get(name, 0.0) + (
                    time.perf_counter() - started
                )
                ctx.artifacts[name] = artifact
                prev = artifact
        except Exception as exc:
            if not hasattr(exc, "_gana_profile"):
                exc._gana_profile = run_profile(ctx)
            raise

        run = StagedRun(
            artifacts=dict(ctx.artifacts),
            stage_seconds=dict(ctx.stage_seconds),
            cache_hits=tuple(ctx.cache_hits),
            diagnostics=ctx.diagnostics,
            profile=run_profile(ctx),
        )
        if ctx.save_dir is not None:
            for i, name in enumerate(STAGE_ORDER):
                artifact = run.artifacts.get(name)
                if artifact is not None:
                    run.saved[name] = artifact.save(
                        ctx.save_dir / f"{i}-{name.value}{ARTIFACT_SUFFIX}"
                    )
        return run

    # -- internals --------------------------------------------------------

    def _key_chain(self, ctx: RunContext) -> dict[StageName, str | None]:
        """Derive every stage's cache key by chaining fingerprints."""
        keys: dict[StageName, str | None] = {}
        if ctx.cache is None and ctx.save_dir is None:
            return keys
        fp: str | None = None
        for impl in self.stages:
            seeded = ctx.artifacts.get(impl.name)
            if seeded is not None:
                if not seeded.fingerprint:
                    seeded.fingerprint = seeded.content_fingerprint()
                fp = seeded.fingerprint
            else:
                fp = impl.cache_key(fp, ctx)
            keys[impl.name] = fp
        return keys

    def _probe_backwards(
        self,
        ctx: RunContext,
        keys: dict[StageName, str | None],
        start: int,
        end: int,
    ) -> tuple[int, Artifact] | None:
        """Find the furthest cached stage and load only that artifact.

        With a ``save_dir`` every stage's artifact lands on disk, so
        the earlier hits are loaded too, and if one of them is missing
        the run takes no hit at all.
        """
        for last in range(end, start - 1, -1):
            artifact = self._cached(ctx, keys, last)
            if artifact is not None:
                break
        else:
            return None
        hits = [artifact]
        if ctx.save_dir is not None:
            hits = [self._cached(ctx, keys, i) for i in range(start, last)] + hits
            if None in hits:
                return None
        for hit in hits:
            ctx.artifacts[hit.stage] = hit
        for impl in self.stages[start : last + 1]:
            ctx.cache_hits.append(impl.name)
            # Hits cost ~one deserialize; charge them zero so the
            # timing dict reports each stage either way.
            ctx.stage_seconds.setdefault(impl.name, 0.0)
        ctx.diagnostics[:] = list(hits[-1].diagnostics)
        return last + 1, hits[-1]

    def _cached(
        self, ctx: RunContext, keys: dict[StageName, str | None], i: int
    ) -> Artifact | None:
        """Stage ``i``'s cache entry, trusted only if it is that stage's."""
        name = self.stages[i].name
        key = keys.get(name)
        artifact = None if key is None else ctx.cache.load(key)
        if artifact is None or artifact.stage is not name:
            return None
        return artifact


def run_profile(ctx: RunContext) -> dict[str, Any]:
    """The profile of a run, built from what the run already records.

    ``stages`` is the run's stage seconds, rounded to 1 µs (equal to
    ``round`` of each ``StagedRun.timings()`` value); ``per_template``
    and ``counters`` are Postprocessing I's :class:`MatchStats`, hier
    run or not.  Plain ``dict``/``float``/``int``, so it pickles across
    the batch pool and JSON-serializes unchanged.
    """
    return {
        "stages": {
            name.value: round(seconds, 6)
            for name, seconds in ctx.stage_seconds.items()
        },
        **ctx.match_stats.as_dict(),
    }


# ---------------------------------------------------------------------------
# Result comparison helper
# ---------------------------------------------------------------------------


def pipeline_result_fingerprint(result: Any) -> str:
    """Semantic digest of a ``PipelineResult``: everything except
    wall-clock (timings / profile).  Two runs that recognized the same
    design identically — annotations, constraints, hierarchy,
    diagnostics, degradation — share this fingerprint; the oracles use
    it to assert that twin paths agree.

    It equals :func:`content_fingerprint` of the same parts, but walks
    the deck's graph once, though the GCN, Post-I and Post-II
    annotations each refer to it."""
    return _fingerprint(
        (
            "pipeline-result",
            result.gcn_annotation,
            result.post1,
            result.post2,
            result.hierarchy,
            result.constraints,
            result.preprocess_report,
            tuple(result.diagnostics),
            result.degraded,
            result.degraded_reason,
        ),
        {},
    )
