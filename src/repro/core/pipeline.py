"""The end-to-end GANA flow (Sec. II-B).

    SPICE text
      → parse → flatten → preprocess            (repro.spice)
      → bipartite graph + features              (repro.graph)
      → GCN sub-block annotation                (repro.gcn / annotator)
      → Postprocessing I (CCC vote, primitives, stand-alones, BPF)
      → Postprocessing II (port rules)          (postprocess)
      → hierarchy tree + propagated constraints (hierarchy, constraints)

Every stage's wall-clock time is recorded in
:attr:`PipelineResult.timings` — the quantity Sec. V-B reports for the
switched-capacitor filter (135 s) and phased array (514 s) — and every
result carries a :attr:`PipelineResult.profile` built from the same
seconds plus Postprocessing I's per-template matching statistics.

Resilience (see :mod:`repro.runtime.resilience`):

* ``run(..., mode="lenient")`` parses/elaborates leniently and carries
  the collected diagnostics on :attr:`PipelineResult.diagnostics`;
* when GCN inference errors — or every vertex lands below
  ``confidence_floor`` — ``run`` falls back to the template-library
  classifier (the prior art of refs [2]/[3]) and marks the result
  ``degraded=True`` so callers can tell;
* ``run_many(..., on_error="report")`` isolates per-deck faults: each
  item yields either a :class:`PipelineResult` or a structured
  :class:`~repro.runtime.resilience.FailureReport` (stage, exception
  chain, diagnostics), in input order, with per-item wall-clock
  ``timeout`` ceilings; a deck that kills its pool worker is bisected
  out and costs one ``stage="worker"`` report.

Staged architecture (see :mod:`repro.core.stages`): :meth:`run` is a
thin façade over a :class:`~repro.core.stages.StagedRunner` executing
the seven concrete stages defined here (:class:`ParseStage` …
:class:`HierarchyStage`).  :meth:`GanaPipeline.run_staged` exposes the
full surface — per-stage artifact caching and incremental recompute
(``artifact_cache``), early stop (``stop_after``), resume from saved
artifacts (``resume_from``), artifact export (``save_artifacts``).
Committed golden outputs under ``tests/golden/`` pin what the runner
produces on every example and corpus deck.
"""

from __future__ import annotations

import logging
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.baselines.template import TemplateRecognizer, task_fallback_recognizer
from repro.core.annotator import Annotation, GcnAnnotator
from repro.core.constraints import (
    ConstraintSet,
    propagate,
    subblock_constraints,
)
from repro.core.hierarchy import HierarchyNode, NodeKind
from repro.core.postprocess import (
    PostprocessResult,
    apply_port_rules,
    postprocess_ccc,
)
from repro.core.stages import (
    Artifact,
    PrimitiveMatchCache,
    RunContext,
    StagedRun,
    StagedRunner,
    StageName,
    annotator_fingerprint,
    content_fingerprint,
    load_artifacts,
)
from repro.exceptions import WorkerCrashed
from repro.graph.bipartite import CircuitGraph
from repro.graph.features import NetRole
from repro.primitives.library import (
    PrimitiveLibrary,
    extended_library,
    library_fingerprint,
)
from repro.runtime.cache import ArtifactCache
from repro.runtime.resilience import (
    Diagnostic,
    FailureReport,
    failure_report,
    stage,
    time_limit,
    worker_crash_report,
)
from repro.spice.flatten import SEP, flatten, flatten_hierarchical
from repro.spice.netlist import Circuit, Netlist, is_power_net, rail_conventions
from repro.spice.parser import parse_netlist
from repro.spice.preprocess import PreprocessReport, preprocess

_LOG = logging.getLogger(__name__)


@dataclass
class PipelineResult:
    """Everything the flow produces for one input netlist."""

    graph: CircuitGraph
    gcn_annotation: Annotation
    post1: PostprocessResult
    post2: PostprocessResult
    hierarchy: HierarchyNode
    constraints: ConstraintSet
    preprocess_report: PreprocessReport
    timings: dict[str, float] = field(default_factory=dict)
    #: The run's profile (:func:`~repro.core.stages.run_profile`):
    #: ``stages`` (``timings`` rounded to 1 µs), ``per_template`` and
    #: ``counters`` from Postprocessing I's matching, and on hier runs
    #: ``definitions`` (``hier.per_definition``); plain dict so it
    #: pickles across the ``run_many`` pool and JSON-serializes
    #: unchanged.
    profile: dict = field(default_factory=dict)
    #: Lenient-mode parse/elaboration problems for this input.
    diagnostics: list[Diagnostic] = field(default_factory=list)
    #: True when GCN inference failed (or fell below the confidence
    #: floor) and the annotation came from the template-library
    #: fallback instead.
    degraded: bool = False
    degraded_reason: str | None = None
    #: Hierarchy-scoped annotation report (``--hier`` runs only):
    #: definition/instance statistics and reuse counts.  The annotation
    #: itself is byte-identical to the flat path.
    hier: "HierReport | None" = None

    @property
    def ok(self) -> bool:
        """Mirror of :attr:`FailureReport.ok` for uniform batch filtering."""
        return True

    @property
    def annotation(self) -> Annotation:
        """The final (post-II) annotation."""
        return self.post2.annotation

    def accuracies(self, truth: dict[str, str]) -> dict[str, float]:
        """GCN / post-I / post-II accuracy against ground truth —
        the three columns of Table II's narrative."""
        return {
            "gcn": self.gcn_annotation.accuracy(truth),
            "post1": self.post1.annotation.accuracy(truth),
            "post2": self.post2.annotation.accuracy(truth),
        }


def build_hierarchy(
    result: PostprocessResult,
    system_name: str,
    instances: "tuple | None" = None,
) -> tuple[HierarchyNode, ConstraintSet]:
    """Assemble the hierarchy tree from a postprocessed annotation.

    Sub-block instances are connected groups of same-class CCCs
    (connected through shared non-power nets); each carries its
    class-implied constraints plus the constraints of the primitives
    inside it, with symmetry axes merged per sub-block (Sec. IV-B).
    Stand-alone primitives hang off the system root.

    ``instances`` (a :class:`~repro.spice.flatten.DesignTree` instance
    table) switches sub-block *placement* to true subckt nesting: each
    recognized block hangs under the chain of instance-path nodes that
    own its devices instead of directly under the root, so the tree
    mirrors the designer's hierarchy (``--hier-tree``).  Grouping,
    naming, and constraints are unchanged — only where blocks attach.
    """
    annotation = result.annotation
    graph = annotation.graph
    partition = result.partition

    instance_index: dict[str, object] = {}
    block_classes: dict[str, str] = {}
    if instances:
        for rec in instances:
            instance_index[rec.path] = rec
            block_classes[rec.path] = rec.definition

    def owner_path(devices: "set[str]") -> tuple[str, ...]:
        """Deepest recorded instance path prefixing every device."""
        if not instance_index or not devices:
            return ()
        parts = next(iter(devices)).split(SEP)[:-1]
        for depth in range(len(parts), 0, -1):
            path = SEP.join(parts[:depth])
            if path not in instance_index:
                continue
            prefix = path + SEP
            if all(name.startswith(prefix) for name in devices):
                return tuple(parts[:depth])
        return ()

    root = HierarchyNode(name=system_name, kind=NodeKind.SYSTEM)
    all_constraints = ConstraintSet()

    standalone_cids = {cid for cid, _match in result.standalone}

    # Group CCCs: same class + net connectivity => one sub-block instance.
    # Power rails never group, and neither do distribution nets (nets
    # touching more than two components, e.g. a bias rail shared by
    # every channel's LNA): only point-to-point signal connections
    # define an instance.
    ccc_neighbors: dict[int, set[int]] = defaultdict(set)
    for net_local, cids in partition.of_net.items():
        if is_power_net(graph.nets[net_local]) or len(cids) > 2:
            continue
        for a in cids:
            for b in cids:
                if a != b:
                    ccc_neighbors[a].add(b)

    visited: set[int] = set()
    instance_counter: dict[str, int] = defaultdict(int)
    for cid in range(partition.n_components):
        if cid in visited or cid in standalone_cids:
            continue
        cls_id = result.ccc_classes.get(cid, -1)
        cls_name = annotation.class_name(cls_id)
        group = [cid]
        visited.add(cid)
        queue = [cid]
        while queue:
            current = queue.pop()
            for other in ccc_neighbors[current]:
                if (
                    other not in visited
                    and other not in standalone_cids
                    and result.ccc_classes.get(other, -1) == cls_id
                ):
                    visited.add(other)
                    group.append(other)
                    queue.append(other)

        index = instance_counter[cls_name]
        instance_counter[cls_name] += 1
        block_name = f"{cls_name}{index}"
        block = HierarchyNode(
            name=block_name, kind=NodeKind.SUBBLOCK, block_class=cls_name
        )
        block.constraints.extend(subblock_constraints(cls_name, block_name))

        block_constraints = ConstraintSet()
        group_devices: set[str] = set()
        for member_cid in group:
            member_devices = {
                graph.elements[i].name for i in partition.components[member_cid]
            }
            group_devices |= member_devices
            claimed: set[str] = set()
            for match in result.ccc_matches.get(member_cid, []):
                primitive = HierarchyNode(
                    name=f"{block_name}/{match.primitive}@{min(match.elements)}",
                    kind=NodeKind.PRIMITIVE,
                    block_class=match.primitive,
                    devices=tuple(sorted(match.elements)),
                    constraints=list(match.constraints),
                )
                block.add(primitive)
                claimed |= match.elements
                block_constraints.extend(list(match.constraints))
            for name in sorted(member_devices - claimed):
                block.add(
                    HierarchyNode(
                        name=name, kind=NodeKind.ELEMENT, devices=(name,)
                    )
                )
        # Merge symmetry axes within the sub-block (common axis).
        merged = propagate(block_constraints)
        block.constraints.extend(
            c for c in merged if c not in block.constraints
        )
        parent = (
            root.ensure_path(owner_path(group_devices), block_classes)
            if instance_index
            else root
        )
        parent.add(block)
        all_constraints.extend(block.constraints)
        for child in block.children:
            all_constraints.extend(child.constraints)

    # Stand-alone primitives get their own top-level hierarchy (or,
    # in instance-table mode, hang under their owning instance).
    for cid, match in result.standalone:
        node = HierarchyNode(
            name=f"standalone/{match.primitive}@{min(match.elements)}",
            kind=NodeKind.PRIMITIVE,
            block_class=match.primitive,
            devices=tuple(sorted(match.elements)),
            constraints=list(match.constraints),
        )
        parent = (
            root.ensure_path(owner_path(set(match.elements)), block_classes)
            if instance_index
            else root
        )
        parent.add(node)
        all_constraints.extend(node.constraints)

    return root, all_constraints


@dataclass
class GanaPipeline:
    """User-facing entry point: a trained annotator plus the library.

    ``degrade`` controls graceful degradation: when GCN inference
    raises, or every vertex's top softmax lands below
    ``confidence_floor`` (0.0 disables the floor), annotation falls
    back to the template-library classifier and the result is marked
    ``degraded=True``.  Set ``degrade=False`` to let inference errors
    propagate instead.
    """

    annotator: GcnAnnotator
    library: PrimitiveLibrary = field(default_factory=extended_library)
    detect_bpf: bool = True
    degrade: bool = True
    confidence_floor: float = 0.0
    #: Injected template recognizer for the degradation fallback, to
    #: control its topology library; None builds the task's default.
    fallback_recognizer: TemplateRecognizer | None = None
    #: The default fallback, built on first use.  It depends only on
    #: ``class_names``, so unlike an injected one it keeps the pool key
    #: and the gcn-stage cache key stable.
    _built_fallback: TemplateRecognizer | None = field(
        default=None, init=False, repr=False, compare=False
    )

    @property
    def class_names(self) -> tuple[str, ...]:
        return self.annotator.class_names

    @classmethod
    def pretrained(
        cls,
        task: str = "ota",
        quick: bool = True,
        seed: int = 0,
        cache: bool | None = None,
        **kwargs,
    ) -> "GanaPipeline":
        """Train (or load from cache) a recognition model.

        ``task`` is ``"ota"`` (classes: ota/bias) or ``"rf"`` (classes:
        lna/mixer/osc).  ``quick=True`` trains on a reduced dataset for
        interactive use; ``quick=False`` reproduces the paper-scale
        training run.  Extra keyword arguments (e.g. ``train_size``)
        pass through to
        :func:`repro.datasets.synth.pretrain_annotator`.  No weights
        ship with the package — datasets are generated on the fly, so
        "pretrained" means "trained now, deterministically" — but the
        runtime model cache (``~/.cache/gana`` / ``GANA_CACHE_DIR``)
        makes every call after the first a millisecond load; pass
        ``cache=False`` (or set ``GANA_NO_CACHE=1``) to force
        retraining.
        """
        from repro.datasets.synth import pretrain_annotator

        annotator = pretrain_annotator(
            task, quick=quick, seed=seed, cache=cache, **kwargs
        )
        return cls(annotator=annotator)

    def run(
        self,
        netlist: str | Netlist | Circuit,
        net_roles: dict[str, NetRole] | None = None,
        port_labels: dict[str, str] | None = None,
        name: str = "",
        infer_testbench: bool = True,
        mode: str = "strict",
        artifact_cache: ArtifactCache | str | Path | None = None,
        save_artifacts: str | Path | None = None,
        hier: bool = False,
        hier_tree: bool = False,
    ) -> PipelineResult:
        """Execute the full flow on a SPICE deck / netlist / flat circuit.

        The result's :attr:`~PipelineResult.profile` holds the stage
        seconds of ``timings`` plus per-primitive-template matching
        statistics from Postprocessing I (launches, matches, seconds,
        skips) — see :func:`repro.core.stages.run_profile`.

        When the deck still contains its testbench sources and
        ``infer_testbench`` is on, antenna/oscillating port labels and
        bias net roles are inferred from them (Sec. V-A footnote 2);
        explicit ``port_labels``/``net_roles`` entries always win.

        ``mode="lenient"`` parses and elaborates with error recovery:
        malformed cards and broken instances are skipped, and the
        collected :class:`~repro.runtime.resilience.Diagnostic` records
        land on :attr:`PipelineResult.diagnostics`.  Escaping
        exceptions are tagged with the stage they came from (``parse``,
        ``preprocess``, ``graph``, ``gcn``, ``post1``, ``post2``,
        ``hierarchy``) for :func:`~repro.runtime.resilience.failure_report`.

        ``artifact_cache`` (an
        :class:`~repro.runtime.cache.ArtifactCache` or a directory
        path) turns on per-stage incremental recompute: stages whose
        derivation fingerprint is unchanged load from the cache instead
        of re-running — e.g. re-annotating with a different primitive
        library reuses the parse/preprocess/graph/GCN artifacts and
        recomputes only Postprocessing I onwards.  ``save_artifacts``
        writes every stage's artifact under the given directory (for
        later ``run_staged(resume_from=...)``).  Both default to off.
        """
        staged = self.run_staged(
            netlist,
            net_roles=net_roles,
            port_labels=port_labels,
            name=name,
            infer_testbench=infer_testbench,
            mode=mode,
            artifact_cache=artifact_cache,
            save_artifacts=save_artifacts,
            hier=hier,
            hier_tree=hier_tree,
        )
        return self.result_from_staged(staged)

    def run_staged(
        self,
        netlist: str | Netlist | Circuit | None = None,
        net_roles: dict[str, NetRole] | None = None,
        port_labels: dict[str, str] | None = None,
        name: str = "",
        infer_testbench: bool = True,
        mode: str = "strict",
        artifact_cache: ArtifactCache | str | Path | None = None,
        save_artifacts: str | Path | None = None,
        resume_from=None,
        stop_after: StageName | str | None = None,
        hier: bool = False,
        hier_tree: bool = False,
    ) -> StagedRun:
        """Run the stage chain with full staged-execution control.

        Returns the :class:`~repro.core.stages.StagedRun` (artifacts,
        per-stage seconds, cache hits, profile) instead of a
        :class:`PipelineResult`; feed a complete run through
        :meth:`result_from_staged` to get the classic result object.

        ``stop_after`` halts the chain after the named stage
        (:class:`~repro.core.stages.StageName` or its string value).
        ``resume_from`` seeds artifacts — an
        :class:`~repro.core.stages.Artifact`, a saved artifact file, a
        directory of them, or an iterable of any of those; the chain
        restarts after the furthest seeded stage, so ``netlist`` may be
        omitted when resuming.  ``artifact_cache`` / ``save_artifacts``
        as in :meth:`run`.

        ``hier`` turns on hierarchy-scoped annotation: flattening also
        emits a :class:`~repro.spice.flatten.DesignTree`, and
        Postprocessing I dedupes VF2 matching across repeated subckt
        instances (byte-identical results; see
        :mod:`repro.core.hier_annotate`).  ``hier_tree`` (implies
        ``hier``) additionally builds the hierarchy tree from the
        instance table, nesting recognized blocks under their true
        subckt instances — a deliberate output-shape deviation from
        the flat path.
        """
        hier = hier or hier_tree
        cache = artifact_cache
        if cache is not None and not isinstance(cache, ArtifactCache):
            cache = ArtifactCache(cache)
        resume: list[Artifact] = []
        if resume_from is not None:
            candidates = (
                [resume_from]
                if isinstance(resume_from, (str, Path, Artifact))
                else list(resume_from)
            )
            for item in candidates:
                if isinstance(item, Artifact):
                    resume.append(item)
                else:
                    resume.extend(load_artifacts(item))
        ctx = RunContext(
            pipeline=self,
            netlist=netlist,
            net_roles=net_roles,
            port_labels=port_labels,
            name=name,
            infer_testbench=infer_testbench,
            mode=mode,
            cache=cache,
            save_dir=Path(save_artifacts) if save_artifacts else None,
            hier=hier,
            hier_tree=hier_tree,
        )
        runner = StagedRunner(default_stages())
        return runner.execute(ctx, resume=resume, stop_after=stop_after)

    def result_from_staged(self, staged: StagedRun) -> PipelineResult:
        """Assemble the classic :class:`PipelineResult` from a complete
        staged run (raises if the run stopped before ``hierarchy``)."""
        final = staged.final
        return PipelineResult(
            graph=final.graph,
            gcn_annotation=final.gcn_annotation,
            post1=final.post1,
            post2=final.post2,
            hierarchy=final.hierarchy,
            constraints=final.constraints,
            preprocess_report=final.report,
            timings=staged.timings(),
            diagnostics=list(staged.diagnostics),
            degraded=final.degraded,
            degraded_reason=final.degraded_reason,
            profile=staged.profile,
            hier=final.hier,
        )

    # -- graceful degradation ---------------------------------------------

    def _fallback(self) -> TemplateRecognizer:
        if self.fallback_recognizer is not None:
            return self.fallback_recognizer
        if self._built_fallback is None:
            self._built_fallback = task_fallback_recognizer(self.class_names)
        return self._built_fallback

    def _degraded_annotation(self, graph: CircuitGraph) -> Annotation:
        """Template-library classification shaped like a GCN annotation.

        Devices covered by a template match take its class; everything
        else gets the majority recognized class (or class 0); net
        vertices take the majority class of their adjacent elements.
        Probabilities are one-hot so the CCC vote still has weights.
        """
        recognized = self._fallback().recognize(graph)
        names = self.class_names
        name_to_id = {cls: i for i, cls in enumerate(names)}
        n = graph.n_vertices
        classes = np.full(n, -1, dtype=np.int64)
        for i, dev in enumerate(graph.elements):
            cls = recognized.get(dev.name)
            if cls in name_to_id:
                classes[i] = name_to_id[cls]
        assigned = classes[: graph.n_elements]
        covered = assigned[assigned >= 0]
        default = (
            int(np.bincount(covered).argmax()) if covered.size else 0
        )
        classes[:graph.n_elements][assigned < 0] = default
        votes: dict[int, Counter] = defaultdict(Counter)
        for edge in graph.edges:
            votes[edge.net][int(classes[edge.element])] += 1
        for j in range(len(graph.nets)):
            tally = votes.get(j)
            classes[graph.n_elements + j] = (
                tally.most_common(1)[0][0] if tally else default
            )
        probabilities = np.zeros((n, len(names)))
        probabilities[np.arange(n), classes] = 1.0
        return Annotation(
            graph=graph,
            class_names=names,
            vertex_classes=classes,
            probabilities=probabilities,
        )

    def run_many(
        self,
        netlists: list[str | Netlist | Circuit],
        names: list[str] | None = None,
        port_labels: dict[str, str] | list[dict[str, str] | None] | None = None,
        net_roles: dict[str, NetRole] | list[dict[str, NetRole] | None] | None = None,
        infer_testbench: bool = True,
        workers: int | None = None,
        mode: str = "strict",
        on_error: str = "raise",
        timeout: float | None = None,
        artifact_cache: ArtifactCache | str | Path | None = None,
        hier: bool = False,
    ) -> list[PipelineResult | FailureReport]:
        """Annotate a fleet of netlists, in parallel where possible.

        Each netlist goes through exactly the same :meth:`run` flow;
        results come back in input order and are identical to a serial
        ``[self.run(n) for n in netlists]`` (only wall-clock differs).
        ``port_labels``/``net_roles`` may be a single mapping applied to
        every netlist or a per-netlist list; ``names`` is an optional
        per-netlist system-name list.  ``workers`` follows
        :func:`repro.runtime.parallel.resolve_workers` (explicit >
        ``GANA_WORKERS`` > cpu count); one worker, one netlist, or a
        host that cannot build a pool all degrade to the serial loop.

        Fault isolation: with ``on_error="report"`` a failing item does
        not sink the batch — its slot holds a
        :class:`~repro.runtime.resilience.FailureReport` (failing stage,
        exception chain, diagnostics) instead of a
        :class:`PipelineResult`, still in input order; filter with
        ``r.ok``.  ``on_error="raise"`` (default) preserves the original
        fail-fast contract.  ``timeout`` is a per-item wall-clock
        ceiling in seconds (SIGALRM-based, see
        :func:`~repro.runtime.resilience.time_limit`); a deck that blows
        it becomes a ``BudgetExceeded`` failure for that item only.
        ``mode`` is forwarded to :meth:`run`.  Each result carries its
        own profile, and so does each failure report: the stages the
        item finished before it failed (``None`` only for a
        ``stage="worker"`` report: a deck that kills its pool worker,
        which raises :class:`~repro.exceptions.WorkerCrashed` with its
        index and name under ``on_error="raise"``; see
        :func:`repro.runtime.parallel.parallel_map`).

        The trained pipeline ships to each worker once (pool
        initializer), not once per netlist, so per-item IPC stays
        proportional to the netlist text + result.  Pools themselves
        are kept warm between ``run_many`` calls: the initializer state
        is fingerprinted (annotator weights, library, degrade knobs),
        so a repeat call with an equivalent pipeline reuses the
        already-initialized workers instead of re-forking and
        re-pickling the model (see
        :func:`repro.runtime.parallel.shutdown_pools`).

        One dispatch path: the batch becomes a list of *chunks*, each
        run by :func:`_run_pipeline_chunk` — in-process on one worker,
        otherwise one pool task per chunk.  A chunk holds one deck when
        the batch runs in-process or sets ``timeout`` or
        ``artifact_cache``; otherwise each worker receives one
        contiguous chunk, runs every deck up to the graph stage,
        classifies all of the chunk's graphs in one block-diagonal
        packed forward (when the annotator supports
        :meth:`~repro.core.annotator.GcnAnnotator.annotate_batch`),
        then finishes each deck from the precomputed annotation.
        Results are unchanged (class predictions are identical; softmax
        probabilities agree to fp64 rounding — see
        ``repro/gcn/batch.py``); the packed GCN seconds are attributed
        to each item proportional to its vertex count.  Any packed
        failure falls back to per-item inference for that chunk.

        ``artifact_cache`` (an
        :class:`~repro.runtime.cache.ArtifactCache` or directory path)
        is forwarded to every item's :meth:`run`: the cache object is
        just a directory handle, so it pickles to pool workers and the
        whole fleet shares one on-disk artifact store.  (Cache-backed
        fleets run one deck per chunk, so batched inference never
        bypasses or pollutes the content-addressed store.)
        """
        if on_error not in ("raise", "report"):
            raise ValueError(
                f"on_error must be 'raise' or 'report', got {on_error!r}"
            )
        from repro.runtime.parallel import parallel_map, resolve_workers

        def per_item(value, index):
            if isinstance(value, (list, tuple)):
                return value[index]
            return value

        jobs = [
            {
                "index": i,
                "isolate": on_error == "report",
                "timeout": timeout,
                "kwargs": {
                    "netlist": netlist,
                    "net_roles": per_item(net_roles, i),
                    "port_labels": per_item(port_labels, i),
                    "name": names[i] if names else "",
                    "infer_testbench": infer_testbench,
                    "mode": mode,
                    "artifact_cache": artifact_cache,
                    "hier": hier,
                },
            }
            for i, netlist in enumerate(netlists)
        ]
        n_workers = min(resolve_workers(workers), len(jobs))
        if n_workers <= 1 or timeout is not None or artifact_cache is not None:
            # One deck per chunk: an in-process batch stays a plain loop
            # over run(), and the per-item ceiling and the
            # content-addressed store both belong to a run() of one deck.
            chunks = [[job] for job in jobs]
        else:
            # Contiguous chunks, one per worker, so every worker gets one
            # packed GCN forward for its whole share of the fleet.
            bounds = [len(jobs) * k // n_workers for k in range(n_workers + 1)]
            chunks = [jobs[lo:hi] for lo, hi in zip(bounds, bounds[1:])]
        if n_workers <= 1:
            return [
                result
                for chunk in chunks
                for result in _run_pipeline_chunk(self, chunk)
            ]
        pool_key = self._pool_key()

        # A worker killed outright (segfault, OOM kill, os._exit) breaks
        # the whole executor, so parallel_map bisects the chunks to
        # isolate the one that crashed.  That chunk re-enters the same
        # dispatch as singleton chunks, so the poison deck is isolated
        # by name: with on_error="report" it becomes a stage="worker"
        # FailureReport while every sibling completes, and with
        # on_error="raise" it raises WorkerCrashed.
        def chunk_crash(chunk, exc):
            if len(chunk) > 1:
                return dispatch([[job] for job in chunk])
            index, name = chunk[0]["index"], chunk[0]["kwargs"]["name"]
            if on_error == "report":
                return [worker_crash_report(exc, index=index, name=name)]
            raise WorkerCrashed(
                f"deck {index}{f' ({name})' if name else ''} killed its "
                f"pool worker: {exc}",
                index=index,
                name=name,
            ) from exc

        def dispatch(chunks):
            nested = parallel_map(
                _pipeline_worker_run_chunk,
                chunks,
                workers=n_workers,
                initializer=_pipeline_worker_init,
                initargs=(self,),
                pool_key=pool_key,
                on_crash=chunk_crash,
            )
            return [result for chunk in nested for result in chunk]

        return dispatch(chunks)

    def _pool_key(self) -> str | None:
        """Content fingerprint of the state ``_pipeline_worker_init``
        installs, so :func:`~repro.runtime.parallel.parallel_map` can
        hand an equivalent pipeline the already-warm worker pool.  The
        rail conventions are part of it: a worker forked under other
        rail regexes would annotate under those.
        ``None`` (no reuse) when any component lacks a stable
        fingerprint (injected fallbacks, stub annotators in tests).
        """
        if self.fallback_recognizer is not None:
            return None
        try:
            return content_fingerprint(
                "pipeline-pool",
                annotator_fingerprint(self.annotator),
                library_fingerprint(self.library),
                self.detect_bpf,
                self.degrade,
                self.confidence_floor,
                rail_conventions(),
            )
        except Exception:
            return None


# ---------------------------------------------------------------------------
# Concrete stages (the Stage implementations run() executes); each
# returns only the Artifact fields it produced.
# ---------------------------------------------------------------------------


class ParseStage:
    """``parse``: SPICE text (or a pre-parsed object) → ``source``."""

    name = StageName.PARSE

    def cache_key(self, upstream_fp: str | None, ctx: RunContext) -> str:
        source = ctx.netlist
        if isinstance(source, str):
            root = content_fingerprint("spice-text", source)
        else:
            # Netlist/Circuit are plain dataclasses whose reprs cover
            # every field deterministically; hashing the repr is ~5x
            # cheaper than the generic structural walk, and this key is
            # recomputed on every warm run.
            root = content_fingerprint("netlist-object", repr(source))
        # The rail conventions decide every later stage's output, so
        # they root the whole key chain.
        return content_fingerprint(
            "stage", self.name.value, root, ctx.mode, rail_conventions()
        )

    def run(self, upstream: None, ctx: RunContext) -> dict:
        source = ctx.netlist
        if source is None:
            raise ValueError(
                "no input netlist and no artifact to resume from"
            )
        if isinstance(source, str):
            source = parse_netlist(source, mode=ctx.mode)
        if isinstance(source, Netlist):
            ctx.diagnostics.extend(source.diagnostics)
        return {"source": source, "mode": ctx.mode}


class PreprocessStage:
    """``preprocess``: flatten, infer testbench roles, reduce."""

    name = StageName.PREPROCESS

    def cache_key(self, upstream_fp: str | None, ctx: RunContext) -> str | None:
        if upstream_fp is None:
            return None
        return content_fingerprint(
            "stage",
            self.name.value,
            upstream_fp,
            ctx.infer_testbench,
            ctx.port_labels,
            ctx.net_roles,
            ctx.hier,
        )

    def run(self, upstream: Artifact, ctx: RunContext) -> dict:
        source = upstream.source
        lenient = ctx.mode == "lenient"
        # Flatten failures keep their historical "parse" failure tag
        # (innermost stage guard wins).
        tree = None
        with stage(StageName.PARSE, diagnostics=ctx.diagnostics):
            if isinstance(source, Netlist):
                if ctx.hier:
                    flat, tree = flatten_hierarchical(
                        source,
                        diagnostics=ctx.diagnostics if lenient else None,
                    )
                else:
                    flat = flatten(
                        source,
                        diagnostics=ctx.diagnostics if lenient else None,
                    )
            else:
                flat = source
        port_labels = ctx.port_labels
        net_roles = ctx.net_roles
        if ctx.infer_testbench and any(
            d.kind.is_source for d in flat.devices
        ):
            from repro.core.testbench import (
                infer_net_roles,
                infer_port_labels,
            )

            inferred_labels = infer_port_labels(flat)
            inferred_labels.update(port_labels or {})
            port_labels = inferred_labels
            inferred_roles = infer_net_roles(flat)
            inferred_roles.update(net_roles or {})
            net_roles = inferred_roles
        reduced, report = preprocess(flat)
        return {
            "flat": flat,
            "reduced": reduced,
            "report": report,
            "design_name": flat.name,
            "port_labels": port_labels,
            "net_roles": net_roles,
            "tree": tree,
        }


class GraphStage:
    """``graph``: reduced circuit → bipartite element/net graph."""

    name = StageName.GRAPH

    def cache_key(self, upstream_fp: str | None, ctx: RunContext) -> str | None:
        if upstream_fp is None:
            return None
        return content_fingerprint("stage", self.name.value, upstream_fp)

    def run(self, upstream: Artifact, ctx: RunContext) -> dict:
        return {"graph": CircuitGraph.from_circuit(upstream.reduced)}


class GcnStage:
    """``gcn``: GCN inference with graceful degradation."""

    name = StageName.GCN

    def cache_key(self, upstream_fp: str | None, ctx: RunContext) -> str | None:
        pipeline = ctx.pipeline
        if upstream_fp is None:
            return None
        if ctx.gcn_annotation is not None:
            # A precomputed annotation came from a multi-graph packed
            # forward whose logits can differ from the deck packed alone
            # by fp64 rounding; keep it out of the content-addressed store.
            return None
        if pipeline.fallback_recognizer is not None and pipeline.degrade:
            # An injected fallback has no stable fingerprint; a cached
            # degraded annotation could silently outlive it.
            return None
        return content_fingerprint(
            "stage",
            self.name.value,
            upstream_fp,
            annotator_fingerprint(pipeline.annotator),
            pipeline.degrade,
            pipeline.confidence_floor,
        )

    def run(self, upstream: Artifact, ctx: RunContext) -> dict:
        pipeline = ctx.pipeline
        graph = upstream.graph
        degraded_reason: str | None = None
        try:
            if ctx.gcn_annotation is not None:
                # Batched inference already classified this graph in a
                # packed multi-deck forward; adopt it and let the usual
                # confidence-floor/degrade checks below vet it.
                annotation = ctx.gcn_annotation
            else:
                annotation = pipeline.annotator.annotate(
                    graph, net_roles=upstream.net_roles
                )
        except Exception as exc:
            if not pipeline.degrade:
                raise
            degraded_reason = (
                f"GCN inference failed "
                f"({type(exc).__name__}: {exc}); fell back to the "
                f"template-library classifier"
            )
        else:
            if (
                pipeline.degrade
                and pipeline.confidence_floor > 0.0
                and annotation.probabilities is not None
                and graph.n_vertices > 0
            ):
                top = annotation.probabilities.max(axis=1)
                if float(top.max()) < pipeline.confidence_floor:
                    degraded_reason = (
                        f"every vertex confidence below the "
                        f"{pipeline.confidence_floor:g} floor; fell back "
                        f"to the template-library classifier"
                    )
        if degraded_reason is not None:
            annotation = pipeline._degraded_annotation(graph)
        return {
            "gcn_annotation": annotation,
            "degraded": degraded_reason is not None,
            "degraded_reason": degraded_reason,
        }


class Post1Stage:
    """``post1``: CCC vote + primitive matching (match-cache aware)."""

    name = StageName.POST1

    def cache_key(self, upstream_fp: str | None, ctx: RunContext) -> str | None:
        if upstream_fp is None:
            return None
        return content_fingerprint(
            "stage",
            self.name.value,
            upstream_fp,
            library_fingerprint(ctx.pipeline.library),
            ctx.pipeline.detect_bpf,
            ctx.hier,
        )

    def run(self, upstream: Artifact, ctx: RunContext) -> dict:
        from repro.graph.ccc import CCCPartition

        pipeline = ctx.pipeline
        tree = upstream.tree
        hier_cache = None
        if ctx.hier and tree is not None and tree.instances:
            from repro.core.hier_annotate import HierMatchCache

            hier_cache = HierMatchCache(tree, artifact_cache=ctx.cache)
            match_cache = hier_cache
        else:
            match_cache = (
                PrimitiveMatchCache(ctx.cache)
                if ctx.cache is not None
                else None
            )
        # The CCC partition depends only on the graph/annotation, not on
        # the library — key it off the upstream (gcn) derivation key so
        # a library-only change reuses it across runs.
        partition = None
        partition_key = None
        if ctx.cache is not None:
            gcn_key = ctx.stage_keys.get(StageName.GCN)
            if gcn_key:
                partition_key = f"ccc-partition-{gcn_key}"
                cached = ctx.cache.load(partition_key)
                if isinstance(cached, CCCPartition):
                    partition = cached
        post1 = postprocess_ccc(
            upstream.gcn_annotation,
            pipeline.library,
            partition=partition,
            detect_bpf=pipeline.detect_bpf,
            stats=ctx.match_stats,
            match_cache=match_cache,
        )
        if partition is None and partition_key is not None:
            ctx.cache.store(partition_key, post1.partition)
        return {
            "post1": post1,
            "hier": hier_cache.finalize() if hier_cache is not None else None,
        }


class Post2Stage:
    """``post2``: port rules."""

    name = StageName.POST2

    def cache_key(self, upstream_fp: str | None, ctx: RunContext) -> str | None:
        if upstream_fp is None:
            return None
        return content_fingerprint("stage", self.name.value, upstream_fp)

    def run(self, upstream: Artifact, ctx: RunContext) -> dict:
        return {
            "post2": apply_port_rules(upstream.post1, upstream.port_labels or {})
        }


class HierarchyStage:
    """``hierarchy``: assemble the tree + propagated constraints."""

    name = StageName.HIERARCHY

    def cache_key(self, upstream_fp: str | None, ctx: RunContext) -> str | None:
        if upstream_fp is None:
            return None
        return content_fingerprint(
            "stage", self.name.value, upstream_fp, ctx.name, ctx.hier_tree
        )

    def run(self, upstream: Artifact, ctx: RunContext) -> dict:
        tree = upstream.tree
        instances = (
            tree.instances if ctx.hier_tree and tree is not None else None
        )
        hierarchy, constraints = build_hierarchy(
            upstream.post2,
            system_name=ctx.name or upstream.design_name,
            instances=instances,
        )
        return {"hierarchy": hierarchy, "constraints": constraints}


def default_stages() -> tuple:
    """The canonical seven-stage chain :meth:`GanaPipeline.run` executes."""
    return (
        ParseStage(),
        PreprocessStage(),
        GraphStage(),
        GcnStage(),
        Post1Stage(),
        Post2Stage(),
        HierarchyStage(),
    )


def _run_pipeline_job(
    pipeline: GanaPipeline, job: dict
) -> PipelineResult | FailureReport:
    """One batch item: run under the item's time ceiling, and — in
    isolation mode — convert any escape into a :class:`FailureReport`
    so the batch (and, across processes, the pool protocol) survives.
    """
    kwargs = job["kwargs"]
    label = kwargs["name"] or f"item {job['index']}"
    try:
        with time_limit(job["timeout"], what=f"pipeline run for {label}"):
            return pipeline.run(**kwargs)
    except Exception as exc:
        if not job["isolate"]:
            raise
        return failure_report(exc, index=job["index"], name=kwargs["name"])


def _run_pipeline_chunk(
    pipeline: GanaPipeline, jobs: list[dict]
) -> list[PipelineResult | FailureReport]:
    """One chunk of a ``run_many`` fleet, classified with one packed
    GCN forward.

    Phase 1 runs every deck through the graph stage (with the usual
    per-item fault isolation); a single
    :meth:`~repro.core.annotator.GcnAnnotator.annotate_batch` call then
    classifies all surviving graphs block-diagonally; phase 2 resumes
    each deck from its graph artifact with the precomputed annotation
    injected into the gcn stage.  The packed pass's wall-clock is
    attributed to items proportional to their vertex counts, so
    per-item ``timings["gcn"]`` stays meaningful.  If the packed pass
    fails, the chunk's items fall back to ordinary per-item GCN
    inference — identical semantics, just without the speedup.  A
    single-deck chunk, or an annotator without ``annotate_batch``,
    runs each deck through :func:`_run_pipeline_job`.
    """
    if len(jobs) < 2 or not callable(
        getattr(pipeline.annotator, "annotate_batch", None)
    ):
        return [_run_pipeline_job(pipeline, job) for job in jobs]

    results: list[PipelineResult | FailureReport | None] = [None] * len(jobs)
    phase1: list[StagedRun | None] = [None] * len(jobs)
    for k, job in enumerate(jobs):
        kwargs = job["kwargs"]
        try:
            phase1[k] = pipeline.run_staged(
                kwargs["netlist"],
                net_roles=kwargs["net_roles"],
                port_labels=kwargs["port_labels"],
                name=kwargs["name"],
                infer_testbench=kwargs["infer_testbench"],
                mode=kwargs["mode"],
                stop_after=StageName.GRAPH,
                hier=kwargs.get("hier", False),
            )
        except Exception as exc:
            if not job["isolate"]:
                raise
            results[k] = failure_report(
                exc, index=job["index"], name=kwargs["name"]
            )

    pending = [k for k in range(len(jobs)) if phase1[k] is not None]
    annotations: dict[int, Annotation] = {}
    gcn_shares: dict[int, float] = {}
    if len(pending) > 1:
        featured = [phase1[k].artifacts[StageName.GRAPH] for k in pending]
        started = time.perf_counter()
        try:
            batch = pipeline.annotator.annotate_batch(
                [f.graph for f in featured],
                [f.net_roles for f in featured],
            )
        except Exception:
            _LOG.warning(
                "packed annotate_batch failed; falling back to per-item "
                "GCN inference for this chunk",
                exc_info=True,
            )
        else:
            packed_seconds = time.perf_counter() - started
            total = sum(f.graph.n_vertices for f in featured) or 1
            for k, f, annotation in zip(pending, featured, batch):
                annotations[k] = annotation
                gcn_shares[k] = packed_seconds * f.graph.n_vertices / total

    for k in pending:
        job = jobs[k]
        kwargs = job["kwargs"]
        # Phase 2 resumes from the graph artifact, which alone would
        # charge the pre-graph stages 0 s.  Seed its stage seconds with
        # the real phase-1 numbers and this item's share of the packed
        # GCN pass, so its timings, its profile and a failure's partial
        # profile all count them.
        ctx = RunContext(
            pipeline=pipeline,
            name=kwargs["name"],
            mode=kwargs["mode"],
            gcn_annotation=annotations.get(k),
            hier=kwargs.get("hier", False),
            stage_seconds={
                **phase1[k].stage_seconds,
                StageName.GCN: gcn_shares.get(k, 0.0),
            },
        )
        try:
            staged = StagedRunner(default_stages()).execute(
                ctx, resume=[phase1[k].artifacts[StageName.GRAPH]]
            )
            results[k] = pipeline.result_from_staged(staged)
        except Exception as exc:
            if not job["isolate"]:
                raise
            results[k] = failure_report(
                exc, index=job["index"], name=kwargs["name"]
            )
    return results


#: Per-process pipeline installed by the ``run_many`` pool initializer,
#: so the (potentially large) trained model is pickled once per worker
#: instead of once per netlist.
_WORKER_PIPELINE: GanaPipeline | None = None


def _pipeline_worker_init(pipeline: GanaPipeline) -> None:
    global _WORKER_PIPELINE
    _WORKER_PIPELINE = pipeline


def _pipeline_worker_run_chunk(
    jobs: list[dict],
) -> list[PipelineResult | FailureReport]:
    assert _WORKER_PIPELINE is not None, "worker initializer did not run"
    return _run_pipeline_chunk(_WORKER_PIPELINE, jobs)
